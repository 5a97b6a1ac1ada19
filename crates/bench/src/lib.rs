//! Paper-artifact binaries and the helpers they share.
//!
//! The `fig*`, `res*` and `abl*` binaries in `src/bin/` regenerate every
//! figure and result of the paper; each binary names its figure or result.
//! Performance is measured by the separate `perfbench` package at the
//! repository root, which also builds on [`paper_board`] and
//! [`greedy_mixed_mapping`].

use cool_cost::CostModel;
use cool_ir::{Mapping, PartitioningGraph, Resource, Target};

/// A representative mixed mapping: greedily move the most
/// hardware-profitable nodes (largest software-vs-hardware cycle gap) to
/// the FPGAs until the area budgets are exhausted.
#[must_use]
pub fn greedy_mixed_mapping(g: &PartitioningGraph, cost: &CostModel) -> Mapping {
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
    for (profit, n) in gain {
        if profit <= 0 {
            break;
        }
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

/// The paper's board, re-exported for the binaries.
#[must_use]
pub fn paper_board() -> Target {
    Target::fuzzy_board()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_spec::workloads;

    #[test]
    fn greedy_mapping_is_area_feasible() {
        let g = workloads::fuzzy_controller();
        let target = paper_board();
        let cost = CostModel::new(&g, &target);
        let m = greedy_mixed_mapping(&g, &cost);
        let usage = cool_partition::area_usage(&g, &m, &cost);
        for (used, hw) in usage.iter().zip(&target.hw) {
            assert!(used <= &hw.clb_capacity);
        }
    }
}
