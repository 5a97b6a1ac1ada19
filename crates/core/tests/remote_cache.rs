//! The distributed-cache determinism battery.
//!
//! A fleet store is only trustworthy under the same invariant as the
//! disk tier: restoring an entry must be byte-identical to recomputing
//! it, at any job count, on any machine. These tests drive the full
//! standard flow through the remote tier's three promises:
//!
//! * **Cross-machine warm start** — a worker with an empty local cache
//!   restores every cacheable stage from the daemon and produces
//!   artifacts byte-identical to a local cold run, at `jobs` 1 and 4.
//! * **Disk healing** — a remote hit re-materializes the entry into the
//!   local disk tier, so the *next* process on that machine warm-starts
//!   without the network.
//! * **Graceful degradation** — a dead or dying daemon turns the remote
//!   tier off (with error accounting), never the flow into a failure,
//!   and never changes a produced byte.

mod support;

use support::run_flow;

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use cool_core::{
    FlowArtifacts, FlowOptions, FlowSession, Partitioner, RemoteStore, Server, ServerHandle,
    StageCache,
};
use cool_ir::hash::digest;
use cool_ir::Target;
use cool_partition::GaOptions;
use cool_spec::workloads;

/// Bind a daemon holding one in-memory fleet store on an ephemeral port.
fn spawn_daemon() -> (ServerHandle, thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", StageCache::default()).expect("bind");
    let handle = server.handle();
    let join = thread::spawn(move || server.run().expect("accept loop"));
    (handle, join)
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique, empty temp directory per call (std-only; no tempfile crate).
fn temp_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cool-remote-cache-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A 128-bit content fingerprint over every artifact family of a run.
fn artifact_fingerprint(art: &FlowArtifacts) -> Vec<u128> {
    vec![
        digest(&art.cost),
        digest(&art.partition),
        digest(&art.schedule),
        digest(&art.stg),
        digest(&art.stg_minimized),
        digest(&art.minimize_stats),
        digest(&art.memory_map),
        digest(&art.hls_designs),
        digest(&art.controller),
        digest(&art.encoding),
        digest(&art.placements),
        digest(&art.netlist),
        digest(&art.vhdl),
        digest(&art.c_programs),
    ]
}

fn equalizer8_options(jobs: usize) -> FlowOptions {
    FlowOptions {
        partitioner: Partitioner::Genetic(GaOptions {
            population: 8,
            generations: 4,
            threads: 1,
            ..GaOptions::default()
        }),
        ..FlowOptions::quick()
    }
    .with_jobs(jobs)
}

/// The acceptance criterion: a flow warm-started *purely* from the
/// remote tier (empty memory, empty disk) is byte-identical to a local
/// cold run at `jobs` 1 and 4 — and the remote hits heal the local disk
/// tier so a third, offline process warm-starts from disk.
#[test]
fn warm_start_from_remote_is_byte_identical_at_jobs_1_and_4() {
    let g = workloads::equalizer(8);
    let target = Target::fuzzy_board();
    let (handle, join) = spawn_daemon();
    let addr = handle.addr().to_string();

    // The reference: an entirely local, uncached cold run.
    let cold = FlowSession::new(&g)
        .target(target.clone())
        .options(equalizer8_options(1))
        .run()
        .expect("local cold run");

    // Worker A computes everything and writes through to the fleet
    // store — it has no disk tier at all, so the daemon is the only
    // place its work survives.
    let a_cache = StageCache::new(64).with_remote(Arc::new(RemoteStore::new(addr.clone())));
    let a = run_flow(&g, &target, &equalizer8_options(1), Some(&a_cache)).expect("worker A");
    assert_eq!(a.trace.cache_misses(), 9, "{}", a.trace.to_table());
    assert_eq!(artifact_fingerprint(&cold), artifact_fingerprint(&a));
    let a_stats = a_cache.stats();
    assert!(
        a_stats.remote_puts >= 9,
        "every computed stage writes through: {}",
        a_stats.summary()
    );
    assert_eq!(a_stats.remote_errors, 0, "{}", a_stats.summary());

    for jobs in [1usize, 4] {
        // Worker B models the second machine: fresh memory tier, fresh
        // *empty* cache directory, only the daemon in common.
        let dir = temp_cache_dir(&format!("warm-j{jobs}"));
        let b_cache = StageCache::persistent(64, &dir)
            .expect("open cache dir")
            .with_remote(Arc::new(RemoteStore::new(addr.clone())));
        let b = run_flow(&g, &target, &equalizer8_options(jobs), Some(&b_cache)).expect("worker B");
        assert_eq!(
            b.trace.remote_hits(),
            9,
            "jobs={jobs}: every cacheable stage must hit the fleet store:\n{}",
            b.trace.to_table()
        );
        assert_eq!(b.trace.cache_misses(), 0, "{}", b.trace.to_table());
        assert_eq!(
            artifact_fingerprint(&cold),
            artifact_fingerprint(&b),
            "jobs={jobs}: remote warm start must be byte-identical to the local cold run"
        );
        assert_eq!(cold.vhdl, b.vhdl);
        assert_eq!(cold.c_programs, b.c_programs);
        assert_eq!(cold.partition.mapping, b.partition.mapping);
        let stats = b_cache.stats();
        assert_eq!(stats.remote_hits, 9, "{}", stats.summary());
        assert_eq!(
            stats.disk_writes,
            9,
            "remote hits must heal the local disk tier: {}",
            stats.summary()
        );

        // Worker C: same machine as B, daemon not consulted (no remote
        // tier) — the healed disk tier alone warm-starts it.
        let c_cache = StageCache::persistent(64, &dir).expect("reopen cache dir");
        let c = run_flow(&g, &target, &equalizer8_options(jobs), Some(&c_cache)).expect("worker C");
        assert_eq!(
            c.trace.disk_hits(),
            9,
            "jobs={jobs}: the healed disk tier must serve everything:\n{}",
            c.trace.to_table()
        );
        assert_eq!(artifact_fingerprint(&cold), artifact_fingerprint(&c));
        let _ = fs::remove_dir_all(&dir);
    }

    handle.shutdown();
    join.join().expect("server thread");
}

/// A daemon that dies mid-sweep (between flows sharing one long-lived
/// cache) degrades the remote tier to local-only: the next flow computes
/// locally, produces byte-identical artifacts, counts the outage — and
/// never fails.
#[test]
fn daemon_death_mid_sweep_degrades_without_changing_bytes() {
    let g = workloads::equalizer(4);
    let options = FlowOptions::quick();
    let t_full = Target::fuzzy_board();
    let mut t_capped = Target::fuzzy_board();
    for hw in &mut t_capped.hw {
        hw.clb_capacity = 96;
    }

    // Local references for both sweep points.
    let ref_full = FlowSession::new(&g)
        .target(t_full.clone())
        .options(options.clone())
        .run()
        .expect("local reference (full)");
    let ref_capped = FlowSession::new(&g)
        .target(t_capped.clone())
        .options(options.clone())
        .run()
        .expect("local reference (capped)");

    let (handle, join) = spawn_daemon();
    let addr = handle.addr().to_string();

    // Populate the fleet store, then start the "sweep": one long-lived
    // cache, one flow per board.
    let seed_cache = StageCache::new(64).with_remote(Arc::new(RemoteStore::new(addr.clone())));
    run_flow(&g, &t_full, &options, Some(&seed_cache)).expect("seed flow");

    let sweep_cache = StageCache::new(64).with_remote(Arc::new(RemoteStore::new(addr)));
    let first = run_flow(&g, &t_full, &options, Some(&sweep_cache)).expect("sweep point 1");
    assert!(
        first.trace.remote_hits() > 0,
        "the first sweep point must warm-start from the daemon:\n{}",
        first.trace.to_table()
    );
    assert_eq!(
        artifact_fingerprint(&ref_full),
        artifact_fingerprint(&first)
    );

    // The daemon dies between sweep points.
    handle.shutdown();
    join.join().expect("server thread");

    let second = run_flow(&g, &t_capped, &options, Some(&sweep_cache))
        .expect("a dead daemon must never fail the flow");
    assert_eq!(
        artifact_fingerprint(&ref_capped),
        artifact_fingerprint(&second),
        "degraded-to-local artifacts must be byte-identical to the local reference"
    );
    let stats = sweep_cache.stats();
    assert!(
        stats.remote_errors > 0,
        "the outage must be visible in the counters: {}",
        stats.summary()
    );
}

/// A daemon that was never reachable behaves the same: local-only from
/// the first lookup, correct bytes, errors counted, no failure.
#[test]
fn unreachable_daemon_degrades_to_local_only() {
    let g = workloads::equalizer(2);
    let target = Target::fuzzy_board();
    let options = FlowOptions::quick();

    let reference = FlowSession::new(&g)
        .target(target.clone())
        .options(options.clone())
        .run()
        .expect("local reference");

    // Bind-then-drop guarantees a port nobody is listening on.
    let addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe");
        listener.local_addr().expect("probe addr").to_string()
    };
    let cache = StageCache::new(64).with_remote(Arc::new(RemoteStore::new(addr)));
    let run = run_flow(&g, &target, &options, Some(&cache)).expect("flow degrades, not fails");
    assert_eq!(run.trace.cache_misses(), 9, "{}", run.trace.to_table());
    assert_eq!(artifact_fingerprint(&reference), artifact_fingerprint(&run));
    let stats = cache.stats();
    assert_eq!(stats.remote_hits, 0, "{}", stats.summary());
    assert!(stats.remote_errors > 0, "{}", stats.summary());
    assert!(
        stats.summary().contains("remote tier:"),
        "remote traffic must surface in the summary: {}",
        stats.summary()
    );
}
