//! `fleet_warm`: a fresh worker (empty memory cache, empty disk
//! directory) restores the `cold_synth` designs entirely from a loopback
//! `Server` through `RemoteStore`: zero stages computed, remote gets,
//! decode and disk-heal writes. Seeding the daemon (the puts) is set-up.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

use cool_core::{
    Client, FlowArtifacts, FlowOptions, RemoteStore, Server, ServerHandle, StageCache,
};
use cool_ir::ContentHasher;

use crate::cold::{self, Pinned};
use crate::flow::{self, Design, Quality};
use crate::runner::{Finish, Op, Workload};
use crate::stats;
use crate::trace::Probe;

/// A cache entry as the disk tier and the wire carry it: key, raw
/// bytes, and whether it is a stage entry (otherwise a node entry).
type Entry = (u128, Vec<u8>, bool);

/// The fleet's designs, computed once per run: the `cold_synth` flows,
/// run cold into a disk-backed cache whose stage entries seed every
/// daemon. (A write-through would also put the node entries; a worker
/// that restores whole stages never reads them.)
pub struct Produced {
    designs: Vec<Pinned>,
    options: FlowOptions,
    /// The cold run's design and quality per input.
    seeded: Vec<(Design, Quality)>,
    entries: Vec<Entry>,
}

impl Produced {
    pub fn new(seed: u64, jobs: usize, dir: &Path, probe: &mut Probe) -> Result<Produced, String> {
        let _ = std::fs::remove_dir_all(dir);
        let designs = cold::designs(seed, probe)?;
        let options = cold::options(jobs);
        let cache = StageCache::persistent(StageCache::DEFAULT_CAPACITY, dir)
            .map_err(|e| format!("cannot open {}: {e}", dir.display()))?;
        let mut seeded = Vec::new();
        for design in &designs {
            let art = cold::run(design, &options, Some(&cache))?;
            let cycles = flow::cosimulate(&art, &design.vectors, probe, false)?;
            seeded.push((Design::of(&art), Quality::of(&art, cycles)));
        }
        let entries = cce_entries(dir)?.into_iter().filter(|e| e.2).collect();
        let _ = std::fs::remove_dir_all(dir);
        Ok(Produced {
            designs,
            options,
            seeded,
            entries,
        })
    }
}

pub struct FleetWarm<'p> {
    produced: &'p Produced,
    server: Option<(ServerHandle, JoinHandle<std::io::Result<()>>)>,
    addr: String,
    root: PathBuf,
    /// The fresh worker `prepare` opened for the next op.
    worker: Option<(StageCache, PathBuf)>,
    /// The last restored worker directory per input, kept for the replay.
    kept: Vec<Option<PathBuf>>,
}

impl FleetWarm<'_> {
    /// Start a loopback daemon and seed it: one client puts every stage
    /// entry the cold flows produced, as their write-through would have.
    pub fn setup(produced: &Produced, root: PathBuf) -> Result<FleetWarm<'_>, String> {
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("cannot create {}: {e}", root.display()))?;
        let server = Server::bind("127.0.0.1:0", StageCache::default())
            .map_err(|e| format!("cannot bind the daemon: {e}"))?;
        let handle = server.handle();
        let addr = handle.addr().to_string();
        let join = std::thread::spawn(move || server.run());
        let fleet = FleetWarm {
            produced,
            server: Some((handle, join)),
            addr,
            root,
            worker: None,
            kept: vec![None; produced.designs.len()],
        };
        let mut client = Client::connect(&fleet.addr)
            .map_err(|e| format!("cannot connect to the daemon: {e}"))?;
        for (key, bytes, stage) in &produced.entries {
            let put = if *stage {
                client.cache_put_stage(*key, bytes.clone())
            } else {
                client.cache_put_node(*key, bytes.clone())
            };
            put.map_err(|e| format!("seeding the daemon failed: {e}"))?;
        }
        Ok(fleet)
    }

    /// Put, get and ping every entry the restores healed to disk, one
    /// client and connection, timing each round trip.
    fn replay(&self, probe: &mut Probe) -> Result<(), String> {
        let mut entries = Vec::new();
        for dir in self.kept.iter().flatten() {
            entries.extend(cce_entries(dir)?);
        }
        let mut client =
            Client::connect(&self.addr).map_err(|e| format!("replay cannot connect: {e}"))?;
        for (key, bytes, stage) in &entries {
            let (put, ms) = probe.span("remote.put", |_| {
                if *stage {
                    client.cache_put_stage(*key, bytes.clone())
                } else {
                    client.cache_put_node(*key, bytes.clone())
                }
            });
            put.map_err(|e| format!("replay put failed: {e}"))?;
            probe.sample("remote.put_ms", ms);
            let (got, ms) = probe.span("remote.get", |_| {
                if *stage {
                    client.cache_get_stage(*key)
                } else {
                    client.cache_get_node(*key)
                }
            });
            let got = got.map_err(|e| format!("replay get failed: {e}"))?;
            if got.as_ref() != Some(bytes) {
                return Err(format!("replay get of {key:032x} returned other bytes"));
            }
            probe.sample("remote.get_ms", ms);
            let (pong, ms) = probe.span("server.ping", |_| client.ping());
            pong.map_err(|e| format!("replay ping failed: {e}"))?;
            probe.sample("server.ping_ms", ms);
        }
        Ok(())
    }
}

/// Every `<key>.cce` entry in `dir`, by key.
fn cce_entries(dir: &Path) -> Result<Vec<Entry>, String> {
    let mut entries = Vec::new();
    let listing =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in listing.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("cce") {
            continue;
        }
        let Some(key) = path
            .file_stem()
            .and_then(|s| s.to_str())
            .and_then(|s| u128::from_str_radix(s, 16).ok())
        else {
            continue;
        };
        let bytes =
            std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let stage = cool_core::disk::decode_stage_entry(&bytes).is_some();
        entries.push((key, bytes, stage));
    }
    entries.sort_by_key(|e| e.0);
    Ok(entries)
}

impl Drop for FleetWarm<'_> {
    fn drop(&mut self) {
        self.worker = None;
        if let Some((handle, join)) = self.server.take() {
            handle.shutdown();
            let _ = join.join();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

impl Workload for FleetWarm<'_> {
    type Out = (FlowArtifacts, cool_core::CacheStats);

    fn input(&self, k: usize) -> usize {
        k % self.produced.designs.len()
    }

    fn kind(&self, k: usize) -> usize {
        self.input(k)
    }

    /// A fresh worker: new memory cache, new empty disk directory, new
    /// connection to the daemon.
    fn prepare(&mut self, k: usize, _probe: &mut Probe) -> Result<(), String> {
        let dir = self.root.join(format!("worker-{k}"));
        let cache = StageCache::persistent(StageCache::DEFAULT_CAPACITY, &dir)
            .map_err(|e| format!("cannot open {}: {e}", dir.display()))?
            .with_remote(Arc::new(RemoteStore::new(self.addr.clone())));
        self.worker = Some((cache, dir));
        Ok(())
    }

    fn op(&mut self, k: usize) -> Result<Self::Out, String> {
        let design = &self.produced.designs[self.input(k)];
        let (cache, _) = self.worker.as_ref().ok_or("worker not prepared")?;
        let art = cold::run(design, &self.produced.options, Some(cache))?;
        Ok((art, cache.stats()))
    }

    fn check(
        &mut self,
        op: &Op,
        (art, stats): &Self::Out,
        probe: &mut Probe,
    ) -> Result<u128, String> {
        let i = self.input(op.k);
        let (_, dir) = self.worker.take().ok_or("worker not prepared")?;
        flow::trace_flow(art, op, probe);
        let restored = art.trace.remote_hits();
        if restored != art.trace.records().len() || stats.remote_errors > 0 {
            return Err(format!(
                "{}: {restored} of {} stages restored from the daemon ({})",
                art.graph.name(),
                art.trace.records().len(),
                stats.summary()
            ));
        }
        flow::cosimulate(art, &self.produced.designs[i].vectors, probe, true)?;
        let design = Design::of(art);
        flow::same_design(
            &format!("{} restored", art.graph.name()),
            &design,
            &self.produced.seeded[i].0,
        )?;
        let remote_ops = stats.remote_hits + stats.remote_misses + stats.remote_puts;
        for (metric, value) in [
            ("cache.stage_hits", art.trace.cache_hits() as u64),
            ("cache.stage_misses", art.trace.cache_misses() as u64),
            ("cache.node_hits", stats.node_hits),
            ("cache.node_misses", stats.node_misses),
            ("disk.writes", stats.disk_writes + stats.node_disk_writes),
            ("disk.hits", stats.disk_hits + stats.node_disk_hits),
            ("remote.hits", stats.remote_hits),
            ("remote.misses", stats.remote_misses),
            ("remote.puts", stats.remote_puts),
            ("remote.errors", stats.remote_errors),
        ] {
            probe.sample(metric, value as f64);
        }
        if remote_ops > 0 {
            probe.sample(
                "remote.roundtrip_ms_per_op",
                flow::ms(stats.remote_roundtrip) / remote_ops as f64,
            );
        }
        if probe.traced() {
            let bytes: u64 = cce_entries(&dir)?.iter().map(|e| e.1.len() as u64).sum();
            probe.sample("disk.bytes", bytes as f64);
            if let Some(old) = self.kept[i].replace(dir) {
                let _ = std::fs::remove_dir_all(old);
            }
        } else {
            let _ = std::fs::remove_dir_all(&dir);
        }
        let mut h = ContentHasher::new();
        design.hash_into(&mut h);
        for v in [
            stats.remote_hits,
            stats.remote_misses,
            stats.node_hits,
            stats.node_misses,
        ] {
            h.write_u64(v);
        }
        Ok(h.finish())
    }

    fn probe(&mut self, _op: &Op, (art, _): &Self::Out, probe: &mut Probe) -> Result<(), String> {
        flow::sample_counts(art, probe);
        Ok(())
    }

    fn finish(&mut self, probe: &mut Probe) -> Finish {
        let mut fin = Finish::default();
        for (_, quality) in &self.produced.seeded {
            fin.quality.add(*quality);
        }
        if probe.traced() {
            fin.checks += 1;
            let (replayed, _) = probe.span("replay", |p| self.replay(p));
            if let Err(e) = replayed {
                fin.errors.push(e);
            }
            for (metric, p50, tail) in [
                ("remote.get_ms", "remote.get_p50_ms", "remote.get_tail_ms"),
                ("remote.put_ms", "remote.put_p50_ms", "remote.put_tail_ms"),
            ] {
                let samples = probe.samples(metric).to_vec();
                probe.sample(p50, stats::median(&samples));
                probe.sample(tail, stats::tail(&samples).0);
            }
            let pings = probe.samples("server.ping_ms").to_vec();
            probe.sample("server.ping_p50_ms", stats::median(&pings));
        }
        fin
    }
}
