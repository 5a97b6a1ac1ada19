//! `exact_sweep`: `FlowSession::pareto` epsilon-constraint sweeps over a
//! CLB budget ladder with the exact MILP partitioner, on ~24-node
//! `random_dag` graphs, each sweep on a fresh memory cache. The work is
//! cost estimation plus partition/ILP; points stop at the partition slot,
//! so nothing downstream (rtl included) runs inside an op.

use std::collections::BTreeMap;

use cool_core::{FlowOptions, FlowSession, ParetoFront, Partitioner, StageCache};
use cool_ir::codec::to_bytes;
use cool_ir::rng::StdRng;
use cool_ir::{BudgetConstraint, ContentHasher, Objective, PartitioningGraph, Target};
use cool_partition::{MilpOptions, Optimality};
use cool_spec::workloads;

use crate::flow::{self, Quality};
use crate::runner::{Finish, Op, Workload};
use crate::trace::Probe;

/// Graphs in the family. Fixed, not drawn from the seed: whether the
/// solver puts any node in hardware flips from graph to graph, so a
/// seeded family would spread `hw_clbs` across seeds far beyond any
/// usable bound. The seed picks the order the family is swept in.
pub const FAMILY: u64 = 32;
/// Function nodes per graph.
pub const NODES: usize = 24;
/// Per-FPGA CLB budgets of the ladder.
pub const BUDGETS: [u32; 4] = [48, 96, 144, 196];

/// The swept objective: a blend whose light communication weight makes
/// branch & bound branch, unlike the makespan default (root-integral,
/// all-software fronts on these graphs).
#[must_use]
pub fn objective() -> Objective {
    Objective::blend(1.0, 0.5, 0.005)
}

fn budgets() -> Vec<BudgetConstraint> {
    BUDGETS.iter().map(|&b| BudgetConstraint::new(b)).collect()
}

/// A front must have one point per budget, each solved to optimality.
fn verify(name: &str, front: &ParetoFront) -> Result<(), String> {
    if front.len() != BUDGETS.len() {
        return Err(format!(
            "{name}: {} point(s) for {} budgets",
            front.len(),
            BUDGETS.len()
        ));
    }
    match front
        .points()
        .iter()
        .find(|p| p.partition.optimality != Optimality::Optimal)
    {
        Some(p) => Err(format!(
            "{name}{}: MILP solve not optimal ({})",
            p.budget,
            p.partition.optimality_label()
        )),
        None => Ok(()),
    }
}

pub struct ExactSweep {
    family: Vec<(PartitioningGraph, Vec<BTreeMap<String, i64>>)>,
    order: Vec<usize>,
    board: Target,
    options: FlowOptions,
    jobs: usize,
    /// First front per graph.
    fronts: Vec<Option<ParetoFront>>,
}

impl ExactSweep {
    pub fn setup(seed: u64, jobs: usize, probe: &mut Probe) -> Result<ExactSweep, String> {
        let mut family = Vec::new();
        for i in 1..=FAMILY {
            let g = workloads::random_dag(workloads::RandomDagConfig {
                nodes: NODES,
                seed: i,
                ..Default::default()
            });
            let graph = flow::via_spec(&g, probe)?;
            let vectors = flow::input_vectors(&graph, seed ^ i, crate::cold::VECTORS);
            family.push((graph, vectors));
        }
        // Seeded Fisher-Yates order over the family.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..family.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..i + 1));
        }
        let options = FlowOptions {
            partitioner: Partitioner::Milp(MilpOptions::default()),
            ..FlowOptions::default()
        }
        .with_jobs(jobs)
        .with_objective(objective());
        let n = family.len();
        Ok(ExactSweep {
            family,
            order,
            board: cool_bench::paper_board(),
            options,
            jobs,
            fronts: vec![None; n],
        })
    }

    fn sweep(&self, i: usize) -> Result<ParetoFront, String> {
        FlowSession::new(&self.family[i].0)
            .target(self.board.clone())
            .options(self.options.clone())
            .cache(StageCache::default())
            .pareto(budgets())
            .map_err(|e| format!("{}: sweep failed: {e}", self.family[i].0.name()))
    }

    /// Implement the front's fastest point (fewest CLBs on a tie) at
    /// quick effort and co-simulate it: the sweep's design-quality
    /// figures beyond makespan and CLBs.
    fn implement_fastest(
        &self,
        i: usize,
        front: &ParetoFront,
        probe: &mut Probe,
    ) -> Result<Quality, String> {
        let (graph, vectors) = &self.family[i];
        let best = front
            .points()
            .iter()
            .min_by_key(|p| (p.makespan(), p.total_clbs()))
            .ok_or_else(|| format!("{}: empty front", graph.name()))?;
        let (art, _) = probe.span("implement", |_| {
            FlowSession::new(graph)
                .target(best.budget.apply(&self.board))
                .options(FlowOptions::quick().with_jobs(self.jobs))
                .with_mapping(best.partition.mapping.clone())
                .run()
        });
        let art = art.map_err(|e| {
            format!(
                "{}: implementing the fastest point failed: {e}",
                graph.name()
            )
        })?;
        let cycles = flow::cosimulate(&art, vectors, probe, false)?;
        let mut q = Quality::of(&art, cycles);
        q.makespan_cycles = front.points().iter().map(|p| p.makespan() as f64).sum();
        q.hw_clbs = front
            .points()
            .iter()
            .map(|p| f64::from(p.total_clbs()))
            .sum();
        Ok(q)
    }
}

impl Workload for ExactSweep {
    type Out = ParetoFront;

    fn input(&self, k: usize) -> usize {
        self.order[k % self.order.len()]
    }

    /// One kind per graph. The family is fixed and swept two to six
    /// times a run, depending on the machine's speed. A pooled tail
    /// (the 90th percentile of all sweeps) would jump between the few
    /// slowest graphs as that count changed; per graph it stays put.
    fn kind(&self, k: usize) -> usize {
        self.input(k)
    }

    fn op(&mut self, k: usize) -> Result<ParetoFront, String> {
        self.sweep(self.input(k))
    }

    fn check(&mut self, op: &Op, front: &ParetoFront, probe: &mut Probe) -> Result<u128, String> {
        let i = self.input(op.k);
        let optimal = front
            .points()
            .iter()
            .filter(|p| p.partition.optimality == Optimality::Optimal)
            .count();
        probe.sample("partition.solves", front.len() as f64);
        probe.sample("partition.optimal", optimal as f64);
        verify(self.family[i].0.name(), front)?;
        let mut h = ContentHasher::new();
        let (mut nodes, mut solve_ms) = (0usize, 0.0);
        for p in front.points() {
            nodes += p.partition.work_units;
            solve_ms += flow::ms(p.trace().duration_of("partition"));
            h.write(&to_bytes(&p.partition.mapping));
            h.write_u64(p.makespan());
            h.write_u32(p.total_clbs());
            h.write_usize(p.partition.work_units);
        }
        // The estimation prefix runs first; the points then run side by
        // side on `jobs` workers, one trace lane per point.
        let est_ms =
            flow::stage_spans(front.estimation_trace(), op.start, op.span, 1, probe, false);
        let mut points_ms = 0.0;
        for (n, p) in front.points().iter().enumerate() {
            let at = op.start + std::time::Duration::from_secs_f64(est_ms / 1e3);
            points_ms += flow::stage_spans(p.trace(), at, op.span, 2 + n as u32, probe, false);
        }
        let width = self.jobs.clamp(1, front.len()) as f64;
        probe.sample(
            "engine.glue_ms",
            (op.ms - est_ms - points_ms / width).max(0.0),
        );
        let cost =
            flow::stage(front.estimation_trace(), "cost").map_or(0.0, |r| flow::ms(r.duration));
        probe.sample("cost.estimate_ms", cost);
        probe.sample("partition.solve_ms", solve_ms);
        probe.sample("ilp.bb_nodes", nodes as f64);
        if self.fronts[i].is_none() {
            self.fronts[i] = Some(front.clone());
        }
        Ok(h.finish())
    }

    /// Re-solve every point with `milp::partition` on the point's own
    /// retargeted cost model; colouring and B&B node count must match.
    fn probe(&mut self, op: &Op, front: &ParetoFront, probe: &mut Probe) -> Result<(), String> {
        let graph = &self.family[self.input(op.k)].0;
        let targets: Vec<Target> = front
            .points()
            .iter()
            .map(|p| p.budget.apply(&self.board))
            .collect();
        let (base, _) = probe.span("cost.estimate", |_| {
            cool_cost::CostModel::new(graph, &targets[0])
        });
        let milp = MilpOptions {
            objective: objective(),
            jobs: 1,
            ..MilpOptions::default()
        };
        for (p, target) in front.points().iter().zip(&targets) {
            let cost = base.retarget(target);
            let (solved, _) = probe.span("ilp.milp", |_| {
                cool_partition::milp::partition(graph, &cost, &milp)
            });
            let solved = solved
                .map_err(|e| format!("{}{}: re-solve failed: {e}", graph.name(), p.budget))?;
            if solved.mapping != p.partition.mapping || solved.work_units != p.partition.work_units
            {
                return Err(format!(
                    "{}{}: re-invoked milp::partition differs from the sweep",
                    graph.name(),
                    p.budget
                ));
            }
        }
        Ok(())
    }

    /// Sweep any graph the loop did not reach, then implement each
    /// front's fastest point for the quality figures.
    fn finish(&mut self, probe: &mut Probe) -> Finish {
        let mut fin = Finish::default();
        for i in 0..self.family.len() {
            fin.checks += 1;
            let front = match self.fronts[i].take() {
                Some(front) => Ok(front),
                None => self
                    .sweep(i)
                    .and_then(|f| verify(self.family[i].0.name(), &f).map(|()| f)),
            };
            match front.and_then(|f| self.implement_fastest(i, &f, probe)) {
                Ok(q) => fin.quality.add(q),
                Err(e) => fin.errors.push(e),
            }
        }
        fin
    }
}
