//! `edit_loop`: the `cool watch` user. One long-lived `StageCache` with
//! memory and disk tiers takes a stream of one-node edits to
//! `incremental(16, scale)`, each with a never-seen `scale`: every stage
//! key misses, all but the edited node hit the node tier, one node is
//! synthesized, and the new entries are written to disk.
//!
//! The timed edits run serially (`jobs = 1`), like `cold_synth`'s
//! flows. At `jobs = cores` every stage hands milliseconds of work to
//! freshly spawned threads, and on a shared machine the hand-offs made
//! the median edit swing 1.8x from run to run (the quartile spread of
//! ten runs was 0.27, against 0.10 serially). The cold reference runs
//! at the end use `jobs = cores`, so byte-identity across job counts is
//! still checked.

use std::collections::BTreeMap;
use std::path::PathBuf;

use cool_core::{CacheStats, FlowArtifacts, FlowOptions, FlowSession, Partitioner, StageCache};
use cool_hls::HlsOptions;
use cool_ir::{ContentHasher, PartitioningGraph, Target};
use cool_spec::workloads;

use crate::flow::{self, Design, Quality};
use crate::runner::{Finish, Op, Workload};
use crate::trace::Probe;

/// Bands of the edited design (32 function nodes).
pub const BANDS: usize = 16;
/// Edits whose output is compared with a cold run of the same spec.
pub const CHECKED_EDITS: usize = 6;
/// Co-simulated input vectors per edit: the check costs about as much
/// as the edit itself, so fewer than for the cold designs.
const VECTORS: usize = 2;

/// The paper's board with the two FPGA budgets raised so the bands fit,
/// plus a third, stock XC4005 for the edited `scale` node. The bands
/// overflow the 14x14 placement grid of their devices, so the third
/// device is the design's one placed FPGA.
fn board() -> Target {
    let mut board = cool_bench::paper_board();
    let mut edited = board.hw[0].clone();
    edited.name = "fpga2".to_string();
    for hw in &mut board.hw {
        hw.clb_capacity = 100_000;
    }
    board.hw.push(edited);
    board
}

/// Quick effort except HLS (effort 2048); all nodes pinned to hardware,
/// the bands across the first two FPGAs and `scale` on the third.
fn options(graph: &PartitioningGraph, jobs: usize) -> FlowOptions {
    let mut mapping = cool_partition::all_hardware(graph, 2);
    if let Some(scale) = graph.node_by_name("scale") {
        mapping.assign(scale, cool_ir::Resource::Hardware(2));
    }
    FlowOptions {
        partitioner: Partitioner::Fixed(mapping),
        hls: HlsOptions {
            effort: 2048,
            ..HlsOptions::default()
        },
        ..FlowOptions::quick()
    }
    .with_jobs(jobs)
}

pub struct EditLoop {
    dir: PathBuf,
    cache: StageCache,
    board: Target,
    /// Worker threads of the cold reference runs.
    jobs: usize,
    /// `scale` of edit 0; edit `k` uses `first_scale + k`.
    first_scale: i64,
    vectors: Vec<BTreeMap<String, i64>>,
    /// The edit `prepare` parsed, with its options.
    next: Option<(PartitioningGraph, FlowOptions)>,
    stats: CacheStats,
    bytes_before: u64,
    ops: usize,
    checked: Vec<(PartitioningGraph, Design, Quality)>,
}

impl EditLoop {
    /// Open a fresh cache in `dir` and prime it with one flow, as a
    /// watch session does on start.
    pub fn setup(
        seed: u64,
        jobs: usize,
        dir: PathBuf,
        probe: &mut Probe,
    ) -> Result<EditLoop, String> {
        let _ = std::fs::remove_dir_all(&dir);
        // No byte cap: past a cap every insert rescans the directory, and
        // the edit's latency would then depend on how long the run has
        // been going rather than on the edit.
        let cache = StageCache::persistent_with_cap(StageCache::DEFAULT_CAPACITY, &dir, 0)
            .map_err(|e| format!("cannot open the edit cache in {}: {e}", dir.display()))?;
        let first_scale = 1_000 + 1_000 * (seed % 1_000_000) as i64;
        let base = flow::via_spec(&workloads::incremental(BANDS, first_scale - 1), probe)?;
        let board = board();
        FlowSession::new(&base)
            .target(board.clone())
            .options(options(&base, 1))
            .cache(cache.clone())
            .run()
            .map_err(|e| format!("priming flow failed: {e}"))?;
        let vectors = flow::input_vectors(&base, seed, VECTORS);
        let stats = cache.stats();
        let bytes_before = cache.disk().map_or(0, cool_core::DiskStore::total_bytes);
        Ok(EditLoop {
            dir,
            cache,
            board,
            jobs,
            first_scale,
            vectors,
            next: None,
            stats,
            bytes_before,
            ops: 0,
            checked: Vec::new(),
        })
    }

    fn run(
        &self,
        graph: &PartitioningGraph,
        options: &FlowOptions,
        cache: Option<&StageCache>,
    ) -> Result<FlowArtifacts, String> {
        let mut session = FlowSession::new(graph)
            .target(self.board.clone())
            .options(options.clone());
        if let Some(cache) = cache {
            session = session.cache(cache.clone());
        }
        session
            .run()
            .map_err(|e| format!("{}: flow failed: {e}", graph.name()))
    }
}

impl Drop for EditLoop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for EditLoop {
    type Out = FlowArtifacts;

    /// Every edit is a new input; what must repeat is the reuse pattern.
    fn input(&self, _k: usize) -> usize {
        0
    }

    /// The edited spec is printed and parsed outside the op's time.
    fn prepare(&mut self, k: usize, probe: &mut Probe) -> Result<(), String> {
        let scale = self.first_scale + k as i64;
        let graph = flow::via_spec(&workloads::incremental(BANDS, scale), probe)?;
        let options = options(&graph, 1);
        self.next = Some((graph, options));
        Ok(())
    }

    fn op(&mut self, _k: usize) -> Result<FlowArtifacts, String> {
        let (graph, options) = self.next.as_ref().ok_or("edit not prepared")?;
        self.run(graph, options, Some(&self.cache))
    }

    fn check(&mut self, op: &Op, art: &FlowArtifacts, probe: &mut Probe) -> Result<u128, String> {
        self.ops += 1;
        flow::trace_flow(art, op, probe);
        let cycles = flow::cosimulate(art, &self.vectors, probe, true)?;
        let after = self.cache.stats();
        let d = |a: u64, b: u64| a.saturating_sub(b);
        let counts = [
            d(after.hits, self.stats.hits),
            d(after.misses, self.stats.misses),
            d(after.node_hits, self.stats.node_hits),
            d(after.node_misses, self.stats.node_misses),
            d(
                after.disk_writes + after.node_disk_writes,
                self.stats.disk_writes + self.stats.node_disk_writes,
            ),
            d(
                after.disk_hits + after.node_disk_hits,
                self.stats.disk_hits + self.stats.node_disk_hits,
            ),
        ];
        self.stats = after;
        let hls = art
            .trace
            .node_delta_of("hls")
            .map(|d| d.computed_names.clone())
            .unwrap_or_default();
        if hls != ["scale"] {
            return Err(format!(
                "edit {}: re-synthesized {hls:?}, want exactly the edited `scale` node",
                op.k
            ));
        }
        for (metric, value) in [
            "cache.stage_hits",
            "cache.stage_misses",
            "cache.node_hits",
            "cache.node_misses",
            "disk.writes",
            "disk.hits",
        ]
        .into_iter()
        .zip(counts)
        {
            probe.sample(metric, value as f64);
        }
        if self.checked.len() < CHECKED_EDITS {
            let (graph, _) = self.next.as_ref().ok_or("edit not prepared")?;
            self.checked
                .push((graph.clone(), Design::of(art), Quality::of(art, cycles)));
        }
        let mut h = ContentHasher::new();
        for c in counts {
            h.write_u64(c);
        }
        Ok(h.finish())
    }

    fn probe(&mut self, _op: &Op, art: &FlowArtifacts, probe: &mut Probe) -> Result<(), String> {
        let (_, options) = self.next.as_ref().ok_or("edit not prepared")?;
        flow::probe_flow(art, options, probe)
    }

    /// The first edits again, cold, uncached and at `jobs = cores`:
    /// bytes, encoding and placements must equal what the warm serial
    /// edit produced.
    fn finish(&mut self, probe: &mut Probe) -> Finish {
        let mut fin = Finish::default();
        if self.ops > 0 {
            let bytes = self
                .cache
                .disk()
                .map_or(0, cool_core::DiskStore::total_bytes);
            probe.sample(
                "disk.bytes",
                bytes.saturating_sub(self.bytes_before) as f64 / self.ops as f64,
            );
        }
        let checked = std::mem::take(&mut self.checked);
        for (graph, warm, quality) in &checked {
            fin.checks += 1;
            let (cold, _) = probe.span("cold_reference", |_| {
                self.run(graph, &options(graph, self.jobs), None)
            });
            match cold {
                Ok(cold) => {
                    if let Err(e) = flow::same_design(
                        &format!("{} warm edit", graph.name()),
                        warm,
                        &Design::of(&cold),
                    ) {
                        fin.errors.push(e);
                    }
                }
                Err(e) => fin.errors.push(e),
            }
            fin.quality.add(*quality);
        }
        fin
    }
}
