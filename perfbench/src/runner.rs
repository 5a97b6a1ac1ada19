//! The closed loop every workload runs in: one client issues the next
//! op only after the previous one finished and was checked.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::flow::Quality;
use crate::stats;
use crate::trace::Probe;

/// Timing of one op, handed to the workload's check.
pub struct Op {
    /// Sequence number of the op in this run.
    pub k: usize,
    /// When the timed call started.
    pub start: Instant,
    /// Its wall time.
    pub ms: f64,
    /// Span id of the timed call in a traced run.
    pub span: Option<u64>,
}

/// One benchmark workload. `op` is the only timed call; everything else
/// is the benchmark's own preparation and checking.
pub trait Workload {
    type Out;

    /// Which input op `k` runs on. Ops on the same input must produce
    /// the same fingerprint.
    fn input(&self, k: usize) -> usize;

    /// Which kind of op `k` is. Latency statistics are taken per kind
    /// and averaged over the kinds, so that kinds of very different cost
    /// (`cold_synth`'s two designs) each keep their own distribution.
    fn kind(&self, _k: usize) -> usize {
        0
    }

    /// Untimed preparation of op `k` (e.g. parsing an edited spec).
    fn prepare(&mut self, _k: usize, _probe: &mut Probe) -> Result<(), String> {
        Ok(())
    }

    /// The timed operation.
    fn op(&mut self, k: usize) -> Result<Self::Out, String>;

    /// Check one op's output for correctness; returns its fingerprint
    /// (the counts and digests that must repeat exactly on its input).
    fn check(&mut self, op: &Op, out: &Self::Out, probe: &mut Probe) -> Result<u128, String>;

    /// Traced runs only: re-invoke layer functions on the op's own
    /// inputs, asserting their results equal the op's.
    fn probe(&mut self, op: &Op, out: &Self::Out, probe: &mut Probe) -> Result<(), String>;

    /// End-of-run checks (each one counts as an attempted op) and the
    /// run's design quality.
    fn finish(&mut self, probe: &mut Probe) -> Finish;
}

/// What [`Workload::finish`] reports.
#[derive(Default)]
pub struct Finish {
    /// Checks made.
    pub checks: usize,
    /// The ones that failed, with the reason.
    pub errors: Vec<String>,
    /// Design quality of the workload's inputs.
    pub quality: Quality,
}

/// Ops an untraced run makes at the least, so that even a workload of
/// slow ops has a handful of samples per kind for its median and tail.
pub const MIN_OPS: usize = 10;

/// A run never measures longer than this, whatever `MIN_OPS` asks.
const HARD_CAP: Duration = Duration::from_secs(120);

/// The outcome of one measured loop.
pub struct Loop {
    /// Latency of every op that succeeded, in ms.
    pub op_ms: Vec<f64>,
    /// The kind of each of those ops.
    pub kinds: Vec<usize>,
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
}

impl Loop {
    /// Latencies grouped by op kind.
    fn by_kind(&self) -> Vec<Vec<f64>> {
        let mut groups: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (&kind, &ms) in self.kinds.iter().zip(&self.op_ms) {
            groups.entry(kind).or_default().push(ms);
        }
        groups.into_values().collect()
    }

    /// `stat` of each kind's latencies, averaged over the kinds.
    fn per_kind(&self, stat: impl Fn(&[f64]) -> f64) -> f64 {
        let groups = self.by_kind();
        if groups.is_empty() {
            return 0.0;
        }
        groups.iter().map(|g| stat(g)).sum::<f64>() / groups.len() as f64
    }

    /// Median op latency (per kind, averaged over the kinds).
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.per_kind(stats::median)
    }

    /// Tail op latency: per kind, [`stats::tail`], averaged over the
    /// kinds.
    #[must_use]
    pub fn tail(&self) -> f64 {
        self.per_kind(|g| stats::tail(g).0)
    }

    /// `(percentile, samples)` of each kind's tail, for the summary.
    #[must_use]
    pub fn tail_points(&self) -> Vec<(f64, usize)> {
        self.by_kind()
            .iter()
            .map(|g| (stats::tail(g).1, g.len()))
            .collect()
    }
}

/// Run ops until `seconds` have passed and at least `min_ops` ran,
/// starting at sequence number `first`. Fingerprints are compared per
/// input across the whole run through `seen`. `between` is called after
/// every op with the seconds since the loop started; its time counts
/// towards `seconds` but not towards any op.
pub fn run_loop<W: Workload>(
    w: &mut W,
    first: usize,
    seconds: f64,
    min_ops: usize,
    probe: &mut Probe,
    seen: &mut BTreeMap<usize, u128>,
    between: &mut dyn FnMut(f64),
) -> Loop {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut out = Loop {
        op_ms: Vec::new(),
        kinds: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let mut k = first;
    while (started.elapsed() < budget || out.attempted < min_ops) && started.elapsed() < HARD_CAP {
        out.attempted += 1;
        let result = one_op(w, k, probe, seen, true);
        match result {
            Ok(ms) => {
                out.op_ms.push(ms);
                out.kinds.push(w.kind(k));
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(e);
            }
        }
        k += 1;
        between(started.elapsed().as_secs_f64());
    }
    out
}

/// Prepare, time, check (and in a traced run, probe) op `k`.
pub fn one_op<W: Workload>(
    w: &mut W,
    k: usize,
    probe: &mut Probe,
    seen: &mut BTreeMap<usize, u128>,
    timed: bool,
) -> Result<f64, String> {
    probe.set_op(k as u64);
    let name = if timed { "iteration" } else { "recheck" };
    let (result, _) = probe.span(name, |probe| {
        w.prepare(k, probe)?;
        let start = Instant::now();
        let (out, ms) = probe.span("op", |_| w.op(k));
        let op = Op {
            k,
            start,
            ms,
            span: probe.last_span(),
        };
        let out = out?;
        let fingerprint = w.check(&op, &out, probe)?;
        let input = w.input(k);
        match seen.get(&input) {
            Some(&f) if f != fingerprint => {
                return Err(format!(
                    "op {k}: counts or digests drifted from the first op on input {input}"
                ))
            }
            Some(_) => {}
            None => {
                seen.insert(input, fingerprint);
            }
        }
        if probe.traced() {
            w.probe(&op, &out, probe)?;
        }
        Ok(op.ms)
    });
    result
}
