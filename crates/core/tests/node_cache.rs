//! The node-tier incremental-synthesis battery.
//!
//! Stage-level keys are seeded with the *graph* digest, so editing one
//! node invalidates every stage key — by design (stage entries must be
//! exact). The node tier underneath is what makes such an edit cheap:
//! per-node HLS designs, STG fragments and hardware VHDL units are keyed
//! on the node's own content and survive the edit. These tests pin the
//! contract down: a single-node edit re-synthesizes exactly that node
//! (trace-verified), the artifacts stay byte-identical to a cold run at
//! every job count, and the reuse works across "processes" (fresh cache
//! instances over one cache directory, served from disk).

mod support;

use support::run_flow;

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use cool_core::{FlowArtifacts, FlowOptions, Partitioner, StageCache};
use cool_ir::hash::digest;
use cool_ir::Target;
use cool_spec::workloads;

/// The paper's board with the FPGA budgets raised so an all-hardware
/// mapping of the incremental workload is area-feasible (the stock
/// XC4005 pair fits only a node or two of it).
fn big_board() -> Target {
    let mut t = Target::fuzzy_board();
    for hw in &mut t.hw {
        hw.clb_capacity = 100_000;
    }
    t
}

/// Deterministic options: every function node in hardware (so every
/// node has an HLS design and a VHDL unit to reuse), no stochastic
/// partitioner in the loop.
fn all_hw_options(g: &cool_ir::PartitioningGraph, jobs: usize) -> FlowOptions {
    FlowOptions {
        partitioner: Partitioner::Fixed(cool_partition::all_hardware(g, 2)),
        ..FlowOptions::quick()
    }
    .with_jobs(jobs)
}

/// Every generated byte of a run, concatenated.
fn generated_bytes(art: &FlowArtifacts) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (name, source) in &art.vhdl {
        bytes.extend_from_slice(name.as_bytes());
        bytes.extend_from_slice(source.as_bytes());
    }
    for p in &art.c_programs {
        bytes.extend_from_slice(p.file_name.as_bytes());
        bytes.extend_from_slice(p.source.as_bytes());
    }
    bytes
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cool-node-cache-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The tentpole property: after a cold cached run, editing the one tiny
/// `scale` node re-synthesizes exactly that node — every band's HLS
/// design, STG fragment and VHDL unit is served from the node tier even
/// though *every stage-level key missed* — and the artifacts are
/// byte-identical to an uncached run of the edited graph, at jobs 1
/// and 4.
#[test]
fn single_node_edit_resynthesizes_exactly_one_node() {
    let base = workloads::incremental(8, 19);
    let edited = workloads::incremental(8, 23);
    let target = big_board();
    let n = base.function_nodes().len();

    for jobs in [1usize, 4] {
        let cache = StageCache::default();
        let cold = run_flow(&base, &target, &all_hw_options(&base, jobs), Some(&cache)).unwrap();
        let cold_hls = cold
            .trace
            .node_delta_of("hls")
            .expect("cold cached run reports hls node activity");
        assert_eq!(cold_hls.computed, n, "cold run synthesizes every node");
        assert_eq!(cold_hls.reused, 0);

        // An unchanged re-run hits at stage level: the node tier is never
        // consulted, so the records carry no node activity at all.
        let unchanged =
            run_flow(&base, &target, &all_hw_options(&base, jobs), Some(&cache)).unwrap();
        assert!(unchanged.trace.cache_hits() > 0);
        assert!(unchanged.trace.node_delta_of("hls").is_none());

        // The edit: every stage-level key misses (the graph digest is in
        // every seed), but the node tier serves all clean nodes.
        let warm = run_flow(
            &edited,
            &target,
            &all_hw_options(&edited, jobs),
            Some(&cache),
        )
        .unwrap();
        assert_eq!(
            warm.trace.cache_hits() + warm.trace.disk_hits(),
            0,
            "a graph edit must miss every stage key:\n{}",
            warm.trace.to_table()
        );
        let hls = warm.trace.node_delta_of("hls").expect("hls node delta");
        assert_eq!(
            hls.computed_names,
            vec!["scale".to_string()],
            "jobs={jobs}: exactly the edited node re-synthesizes:\n{}",
            warm.trace.to_table()
        );
        assert_eq!(hls.computed, 1);
        assert_eq!(hls.reused, n - 1);
        // STG fragments depend only on (node, resource): the edit dirties
        // none of them.
        let stg = warm.trace.node_delta_of("stg").expect("stg node delta");
        assert_eq!(stg.computed, 0, "{}", warm.trace.to_table());
        assert_eq!(stg.reused, n);
        // The edited node's VHDL re-emits; every other unit is reused.
        let rtl = warm.trace.node_delta_of("rtl").expect("rtl node delta");
        assert_eq!(rtl.computed_names, vec!["scale".to_string()]);
        assert_eq!(rtl.reused, n - 1);

        // Byte-identity against an uncached run of the edited graph.
        let fresh = run_flow(&edited, &target, &all_hw_options(&edited, 1), None).unwrap();
        assert_eq!(
            generated_bytes(&fresh),
            generated_bytes(&warm),
            "jobs={jobs}: node-tier reuse must never change a generated byte"
        );
        assert_eq!(digest(&fresh.hls_designs), digest(&warm.hls_designs));
        assert_eq!(digest(&fresh.stg), digest(&warm.stg));
        assert_eq!(digest(&fresh.schedule), digest(&warm.schedule));
    }
}

/// The cross-process variant: two fresh cache instances sharing one
/// cache directory. The second "process" performs the warm edit with an
/// empty memory tier, so every reused node artifact is served from
/// disk.
#[test]
fn warm_edit_reuses_node_artifacts_across_processes() {
    let base = workloads::incremental(8, 19);
    let edited = workloads::incremental(8, 23);
    let target = big_board();
    let n = base.function_nodes().len();
    let dir = temp_cache_dir("xproc");

    let first = StageCache::persistent(64, &dir).unwrap();
    run_flow(&base, &target, &all_hw_options(&base, 1), Some(&first)).unwrap();
    assert!(
        first.stats().node_disk_writes > 0,
        "node entries were written through: {}",
        first.stats().summary()
    );

    let second = StageCache::persistent(64, &dir).unwrap();
    let warm = run_flow(&edited, &target, &all_hw_options(&edited, 1), Some(&second)).unwrap();
    let hls = warm.trace.node_delta_of("hls").expect("hls node delta");
    assert_eq!(hls.computed_names, vec!["scale".to_string()]);
    assert_eq!(hls.reused, n - 1);
    // HLS node keys are name-independent, so the 7 identical adders of
    // the tree share ONE key: the first lookup is a disk hit (promoted
    // into memory), the other 6 are memory hits. 8 distinct bands + 1
    // shared adder key = 9 disk hits.
    assert_eq!(
        hls.reused_disk,
        9,
        "an empty memory tier serves every distinct key from disk:\n{}",
        warm.trace.to_table()
    );
    assert!(warm.trace.node_disk_reused() >= n - 1);
    let stats = second.stats();
    assert!(
        stats.node_disk_hits >= (n - 1) as u64,
        "{}",
        stats.summary()
    );
    assert_eq!(stats.node_evictions, 0, "{}", stats.summary());

    let fresh = run_flow(&edited, &target, &all_hw_options(&edited, 1), None).unwrap();
    assert_eq!(generated_bytes(&fresh), generated_bytes(&warm));
    let _ = fs::remove_dir_all(&dir);
}

/// Junk squatting on node-entry files must degrade to recomputes — never
/// a panic, never a changed byte — and the store heals by rewriting the
/// damaged entries.
#[test]
fn corrupt_node_entries_degrade_to_recompute() {
    let base = workloads::incremental(4, 19);
    let edited = workloads::incremental(4, 23);
    let target = big_board();
    let dir = temp_cache_dir("junk");

    let first = StageCache::persistent(64, &dir).unwrap();
    run_flow(&base, &target, &all_hw_options(&base, 1), Some(&first)).unwrap();

    // Truncate every *node* entry (payload kind byte 1 after the 36-byte
    // header); stage entries stay intact.
    let mut damaged = 0usize;
    for entry in fs::read_dir(&dir).unwrap().flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("cce") {
            continue;
        }
        let bytes = fs::read(&path).unwrap();
        if bytes.get(36) == Some(&1) {
            fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
            damaged += 1;
        }
    }
    assert!(damaged > 0, "the cold run must have written node entries");

    let second = StageCache::persistent(64, &dir).unwrap();
    let warm = run_flow(&edited, &target, &all_hw_options(&edited, 1), Some(&second)).unwrap();
    let hls = warm.trace.node_delta_of("hls").expect("hls node delta");
    assert_eq!(
        hls.reused,
        0,
        "damaged node entries must not be served:\n{}",
        warm.trace.to_table()
    );
    let fresh = run_flow(&edited, &target, &all_hw_options(&edited, 1), None).unwrap();
    assert_eq!(generated_bytes(&fresh), generated_bytes(&warm));

    // The recompute rewrote the entries: a third process reuses again.
    let third = StageCache::persistent(64, &dir).unwrap();
    let again = run_flow(&edited, &target, &all_hw_options(&edited, 1), Some(&third)).unwrap();
    // The whole edited graph was re-cached by the second process at both
    // tiers, so this run hits at stage level and touches no node.
    assert!(again.trace.disk_hits() > 0, "{}", again.trace.to_table());
    let _ = fs::remove_dir_all(&dir);
}
