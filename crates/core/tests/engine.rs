//! Engine-level integration tests: stage ordering, timing-table
//! invariants, and the determinism of the parallel stages.

mod support;

use support::run_flow;

use cool_core::{Engine, FlowArtifacts, FlowContext, FlowOptions, Partitioner};
use cool_cost::CostModel;
use cool_ir::{Mapping, Resource, Target};
use cool_spec::workloads;

/// Greedily move the most hardware-profitable nodes onto the FPGAs until
/// the CLB budgets are exhausted (a deterministic mixed partition).
fn greedy_mixed_mapping(g: &cool_ir::PartitioningGraph, cost: &CostModel) -> Mapping {
    let target = cost.target();
    let mut mapping = Mapping::uniform(g.node_count(), Resource::Software(0));
    let mut gain: Vec<(i64, cool_ir::NodeId)> = g
        .function_nodes()
        .into_iter()
        .map(|n| {
            let sw = cost.exec_cycles(n, Resource::Software(0)) as i64;
            let hw = cost.exec_cycles(n, Resource::Hardware(0)) as i64;
            (sw - hw, n)
        })
        .collect();
    gain.sort_by_key(|&(g, _)| std::cmp::Reverse(g));
    let mut usage = vec![0u32; target.hw.len()];
    for (_, n) in gain {
        let area = cost.hw_area_clbs(n);
        if let Some(h) =
            (0..target.hw.len()).find(|&h| usage[h] + area <= target.hw[h].clb_capacity)
        {
            usage[h] += area;
            mapping.assign(n, Resource::Hardware(h));
        }
    }
    mapping
}

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

#[test]
fn standard_stage_order_is_the_paper_flow() {
    assert_eq!(
        Engine::standard().stage_names(),
        vec![
            "spec",
            "cost",
            "partition",
            "schedule",
            "stg",
            "hls",
            "rtl",
            "codegen",
            "sim-prep"
        ]
    );
}

#[test]
fn trace_records_every_stage_once_in_order() {
    let g = workloads::equalizer(2);
    let target = Target::fuzzy_board();
    let art = run_flow(&g, &target, &FlowOptions::quick(), None).unwrap();
    assert_eq!(art.trace.stage_names(), Engine::standard().stage_names());
    // The six-bucket summary is exactly the trace re-bucketed.
    assert_eq!(art.timings.total(), art.trace.total());
}

#[test]
fn engine_context_retains_artifacts_on_partial_runs() {
    // Running only a prefix of the standard flow leaves the produced
    // artifacts in the context (the seam future caching PRs build on).
    let g = workloads::equalizer(2);
    let target = Target::fuzzy_board();
    let options = FlowOptions::quick();
    let engine = Engine::standard();
    let mut cx = FlowContext::new(&g, &target, &options);
    engine.run(&mut cx).unwrap();
    assert!(cx.cost.is_some());
    assert!(cx.partition.is_some());
    assert!(cx.vhdl.is_some());
}

/// RES3 invariant on the serial baseline: with full synthesis effort and
/// partitioning taken out of the equation (fixed mapping), hardware
/// synthesis consumes > 90 % of the flow on equalizer(8) — the paper's
/// headline timing shape.
#[test]
fn hardware_fraction_dominates_equalizer8_serial() {
    let g = workloads::equalizer(8);
    let target = Target::fuzzy_board();
    let cost = CostModel::new(&g, &target);
    let mapping = greedy_mixed_mapping(&g, &cost);
    let options = FlowOptions {
        partitioner: Partitioner::Fixed(mapping),
        jobs: 1,
        ..FlowOptions::default()
    };
    let art = run_flow(&g, &target, &options, None).unwrap();
    assert!(
        art.partition.hardware_nodes(&g) >= 4,
        "mixed mapping expected, got {} hw nodes",
        art.partition.hardware_nodes(&g)
    );
    let f = art.timings.hardware_fraction();
    assert!(
        f > 0.9,
        "hardware fraction only {f:.3}:\n{}",
        art.timings.to_table()
    );
    // And the largest single stage of the trace is a hardware-synthesis
    // stage (hls or rtl), not partitioning/scheduling/codegen.
    let largest = art
        .trace
        .records()
        .iter()
        .max_by_key(|r| r.duration)
        .expect("trace is non-empty");
    assert!(
        matches!(largest.name, "hls" | "rtl"),
        "largest stage is {}, not hardware synthesis:\n{}",
        largest.name,
        art.trace.to_table()
    );
}

/// `jobs` must never change a generated byte: the full artifact text
/// (VHDL + C) is identical across job counts, as are the partition,
/// schedule and netlist.
#[test]
fn jobs_one_and_many_emit_byte_identical_artifacts() {
    let g = workloads::equalizer(8);
    let target = Target::fuzzy_board();
    let cost = CostModel::new(&g, &target);
    let mapping = greedy_mixed_mapping(&g, &cost);
    let base = FlowOptions {
        partitioner: Partitioner::Fixed(mapping),
        // Keep effort moderate so the test stays fast; determinism does
        // not depend on effort.
        hls: cool_hls::HlsOptions {
            effort: 8,
            ..Default::default()
        },
        encoding_effort: 16,
        placement_effort: 32,
        ..FlowOptions::quick()
    };
    let serial = run_flow(&g, &target, &base.clone().with_jobs(1), None).unwrap();
    assert!(serial.hls_designs.len() >= 4, "want real HLS fan-out");
    for jobs in [2usize, 4, 8, 0] {
        let par = run_flow(&g, &target, &base.clone().with_jobs(jobs), None).unwrap();
        assert_eq!(
            generated_bytes(&serial),
            generated_bytes(&par),
            "jobs={jobs} changed generated VHDL/C"
        );
        assert_eq!(
            serial.partition.mapping, par.partition.mapping,
            "jobs={jobs}"
        );
        assert_eq!(serial.hls_designs, par.hls_designs, "jobs={jobs}");
        assert_eq!(serial.minimize_stats, par.minimize_stats, "jobs={jobs}");
        assert_eq!(
            serial.netlist.components.len(),
            par.netlist.components.len(),
            "jobs={jobs}"
        );
        for ((r1, p1), (r2, p2)) in serial.placements.iter().zip(&par.placements) {
            assert_eq!(r1, r2, "jobs={jobs}");
            assert_eq!(p1.positions, p2.positions, "jobs={jobs}");
            assert_eq!(p1.wirelength, p2.wirelength, "jobs={jobs}");
        }
    }
}

/// The quick options flow stays functionally correct when parallel.
#[test]
fn parallel_flow_simulates_correctly() {
    let g = workloads::fuzzy_controller();
    let target = Target::fuzzy_board();
    let art = run_flow(&g, &target, &FlowOptions::quick().with_jobs(4), None).unwrap();
    let ins = cool_ir::eval::input_map([("err", 42), ("derr", -17)]);
    let r = art.simulate(&ins).unwrap();
    assert_eq!(r.outputs, cool_ir::eval::evaluate(&g, &ins).unwrap());
}
