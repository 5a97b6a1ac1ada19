//! Optimality reporting through the flow: a node-limit-truncated MILP
//! partition must be observably non-optimal — `PartitionResult` carries
//! `Optimality::LimitReached`, the engine attaches a trace warning (also
//! when the partition is restored from the stage cache), and the report
//! labels it — while completed solves stay warning-free. Plus the
//! `FlowOptions::jobs → MilpOptions::jobs` seam: the flow's artifacts
//! must be byte-identical whether the MILP branch & bound ran serial or
//! parallel.

mod support;

use support::run_flow;

use cool_core::{FlowOptions, Partitioner, StageCache};
use cool_ir::{Objective, Target};
use cool_partition::{MilpOptions, Optimality};
use cool_spec::workloads::{random_dag, RandomDagConfig};

/// An 8-node random DAG whose MILP root relaxation is fractional under a
/// low communication weight, so branch & bound genuinely branches: 23
/// nodes to optimality at `jobs = 1`, first incumbent by node 7 — which
/// makes `max_nodes = 12` a truncation point that reliably leaves an
/// incumbent behind.
fn branching_graph() -> cool_ir::PartitioningGraph {
    random_dag(RandomDagConfig {
        nodes: 8,
        seed: 7,
        ..Default::default()
    })
}

fn milp_flow(max_nodes: usize, jobs: usize) -> FlowOptions {
    FlowOptions {
        partitioner: Partitioner::Milp(MilpOptions {
            objective: Objective::blend(1.0, 0.1, 0.05),
            max_nodes,
            ..Default::default()
        }),
        jobs,
        ..FlowOptions::quick()
    }
}

#[test]
fn truncated_milp_partition_is_observably_non_optimal() {
    let g = branching_graph();
    let art = run_flow(&g, &Target::fuzzy_board(), &milp_flow(12, 1), None).unwrap();
    assert_eq!(art.partition.optimality, Optimality::LimitReached);
    assert_eq!(
        art.trace.warnings().len(),
        1,
        "engine must attach exactly one truncation warning"
    );
    assert!(
        art.trace.warnings()[0].contains("NOT proven optimal"),
        "{}",
        art.trace.warnings()[0]
    );
    assert!(
        art.trace.to_table().contains("warning:"),
        "`cool flow --trace` prints the trace table, so the warning must be in it:\n{}",
        art.trace.to_table()
    );
    assert!(
        art.report().contains("node-limit truncated"),
        "report must label the partition:\n{}",
        art.report()
    );
}

#[test]
fn completed_milp_partition_is_optimal_and_warning_free() {
    let g = branching_graph();
    let art = run_flow(&g, &Target::fuzzy_board(), &milp_flow(50_000, 1), None).unwrap();
    assert_eq!(art.partition.optimality, Optimality::Optimal);
    assert!(art.trace.warnings().is_empty());
    assert!(!art.trace.to_table().contains("warning:"));
    assert!(art.report().contains("optimal"));
}

#[test]
fn truncated_partition_is_never_cached_and_still_warns_warm() {
    // A node-limit-truncated partition is not a deterministic function
    // of its inputs under `jobs > 1` (and `jobs` is outside the cache
    // keys), so the engine must refuse to cache it: the warm run hits
    // the deterministic prefix but recomputes the partition — and still
    // warns.
    let g = branching_graph();
    let target = Target::fuzzy_board();
    let options = milp_flow(12, 1);
    let cache = StageCache::default();
    let cold = run_flow(&g, &target, &options, Some(&cache)).unwrap();
    assert_eq!(cold.partition.optimality, Optimality::LimitReached);
    let warm = run_flow(&g, &target, &options, Some(&cache)).unwrap();
    assert!(
        warm.trace.cache_hits() > 0,
        "the deterministic prefix must hit:\n{}",
        warm.trace.to_table()
    );
    assert!(
        warm.trace
            .records()
            .iter()
            .any(|r| r.name == "partition" && r.cache == cool_core::CacheOutcome::Miss),
        "a truncated partition must be recomputed, not restored:\n{}",
        warm.trace.to_table()
    );
    assert_eq!(
        warm.partition.optimality,
        Optimality::LimitReached,
        "optimality must survive the warm run"
    );
    assert_eq!(
        warm.trace.warnings(),
        cold.trace.warnings(),
        "a warm truncated run warns exactly like a cold one"
    );
}

#[test]
fn genetic_flow_reports_heuristic_without_warnings() {
    let g = cool_spec::workloads::equalizer(2);
    let art = run_flow(&g, &Target::fuzzy_board(), &FlowOptions::quick(), None).unwrap();
    assert_eq!(art.partition.optimality, Optimality::Heuristic);
    assert!(art.trace.warnings().is_empty());
}

#[test]
fn flow_jobs_thread_into_parallel_milp_byte_identically() {
    // `FlowOptions::jobs` reaches the MILP branch & bound; the
    // deterministic merge keeps every artifact byte-identical.
    let g = branching_graph();
    let target = Target::fuzzy_board();
    let serial = run_flow(&g, &target, &milp_flow(50_000, 1), None).unwrap();
    for jobs in [2usize, 4] {
        let par = run_flow(&g, &target, &milp_flow(50_000, jobs), None).unwrap();
        assert_eq!(
            par.partition.mapping, serial.partition.mapping,
            "jobs={jobs}"
        );
        assert_eq!(par.partition.makespan, serial.partition.makespan);
        assert_eq!(par.partition.optimality, serial.partition.optimality);
        assert_eq!(par.vhdl, serial.vhdl, "jobs={jobs}: VHDL must not change");
        let c_serial: Vec<&str> = serial
            .c_programs
            .iter()
            .map(|p| p.source.as_str())
            .collect();
        let c_par: Vec<&str> = par.c_programs.iter().map(|p| p.source.as_str()).collect();
        assert_eq!(c_par, c_serial, "jobs={jobs}: C must not change");
    }
}

#[test]
fn heuristic_partition_never_claims_optimal() {
    // A clustered solve forfeits node-level optimality even when the
    // reduced MILP completes: the claim must be Heuristic, not Optimal.
    let g = random_dag(RandomDagConfig {
        nodes: 40,
        seed: 3,
        ..Default::default()
    });
    let cost = cool_cost::CostModel::new(&g, &Target::fuzzy_board());
    let completed = cool_partition::heuristic::partition(
        &g,
        &cost,
        &cool_partition::HeuristicOptions {
            max_clusters: 8,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(completed.optimality, Optimality::Heuristic);

    // The truncated reduced solve keeps the stronger LimitReached claim:
    // drive the same branching instance the MILP tests use through the
    // heuristic's small-graph delegation path with a tiny node budget.
    let g = branching_graph();
    let cost = cool_cost::CostModel::new(&g, &Target::fuzzy_board());
    let truncated = cool_partition::heuristic::partition(
        &g,
        &cost,
        &cool_partition::HeuristicOptions {
            milp: MilpOptions {
                objective: Objective::blend(1.0, 0.1, 0.05),
                max_nodes: 12,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(truncated.optimality, Optimality::LimitReached);
    assert_eq!(truncated.algorithm, cool_partition::Algorithm::Heuristic);
}
