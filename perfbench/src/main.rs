//! One benchmark for the COOL flow: four closed-loop workloads, each
//! driven by one client thread.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_synth --seed 1 --seconds 36 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that gives the per-layer
//! metrics and writes `.perfbench/trace-<workload>-seed<seed>.json`
//! (Chrome Trace Event format). The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. See
//! `perfbench/README.md` for the workloads and metrics.

mod cold;
mod edit;
mod fleet;
mod flow;
mod runner;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use flow::Quality;
use runner::{Finish, Loop, Workload};
use trace::{json_string, Probe};

/// Where runs keep their scratch state and traces, relative to the
/// directory the benchmark runs in.
const OUT_DIR: &str = ".perfbench";

const WORKLOADS: [&str; 4] = ["cold_synth", "exact_sweep", "edit_loop", "fleet_warm"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(args)
}

/// Everything one run measured.
struct Run {
    setup_s: Vec<f64>,
    /// Untraced op latencies (all of them in an untraced run; the first
    /// third of a traced run).
    plain: Loop,
    /// Traced op latencies (traced runs only).
    traced: Option<Loop>,
    /// Extra ops and end-of-run checks.
    checks: usize,
    errors: Vec<String>,
    quality: Quality,
    measured_s: f64,
}

/// Share of an untraced run's measured window spent on more set-up
/// repetitions, spread between its ops.
///
/// The shared machine changes speed in phases of one to a few seconds,
/// and a short set-up runs up to 1.7x slower in a slow phase than in a
/// fast one. The median of set-ups made back to back in the first second
/// of a run therefore lands in whichever phase that second fell, and the
/// median of ten runs flipped between the two (0.55 ms against 0.70 ms
/// on `cold_synth` for two sets of the same code). Spread over the whole
/// run, the set-ups see the same mix of phases as the ops.
const SETUP_SHARE: f64 = 0.04;

/// Set the workload up `reps` times back to back, then run the measured
/// loop(s), the determinism re-check and the end-of-run checks on the
/// last set-up. An untraced run sets up again between its ops, for
/// [`SETUP_SHARE`] of its time, dropping each of those at once; the
/// set-up time is the median of all repetitions. `setup` gets the
/// repetition's number, so that a set-up with a directory gives each
/// repetition its own and none touches the live workload's state.
fn measure<W: Workload>(
    args: &Args,
    reps: usize,
    probe: &mut Probe,
    mut setup: impl FnMut(usize, &mut Probe) -> Result<W, String>,
) -> Result<Run, String> {
    let mut setup_s = Vec::new();
    let mut w = None;
    while setup_s.len() < reps.max(1) {
        drop(w.take());
        let start = Instant::now();
        let fresh = setup(setup_s.len(), probe)?;
        setup_s.push(start.elapsed().as_secs_f64());
        w = Some(fresh);
    }
    let mut w = w.ok_or("no set-up ran")?;
    let mut seen = BTreeMap::new();
    let mut checks = 0;
    let mut errors = Vec::new();
    let measured = Instant::now();
    let (plain, traced) = if args.trace {
        // A third of the time untraced, for the tracing overhead; no
        // tail is reported, so two ops per phase are enough.
        let plain = runner::run_loop(
            &mut w,
            0,
            args.seconds / 3.0,
            2,
            &mut Probe::new(false),
            &mut seen,
            &mut |_| {},
        );
        let traced = runner::run_loop(
            &mut w,
            plain.attempted,
            args.seconds * 2.0 / 3.0,
            2,
            probe,
            &mut seen,
            &mut |_| {},
        );
        (plain, Some(traced))
    } else {
        let mut spread_s = 0.0;
        let mut again = |elapsed: f64| {
            while spread_s < SETUP_SHARE * elapsed {
                let start = Instant::now();
                let fresh = setup(setup_s.len(), &mut Probe::new(false));
                let took = start.elapsed().as_secs_f64();
                if let Err(e) = fresh {
                    checks += 1;
                    errors.push(format!("set-up {}: {e}", setup_s.len()));
                }
                setup_s.push(took);
                spread_s += took;
            }
        };
        let ops = runner::run_loop(
            &mut w,
            0,
            args.seconds,
            runner::MIN_OPS,
            probe,
            &mut seen,
            &mut again,
        );
        (ops, None)
    };
    let measured_s = measured.elapsed().as_secs_f64();
    let ran = plain.attempted + traced.as_ref().map_or(0, |l| l.attempted);

    // Determinism: when no input ran twice, run op 0's input once more.
    let mut next = ran;
    if !(1..ran).any(|k| w.input(k) == w.input(0)) {
        if let Some(k) = (ran..ran + 4096).find(|&k| w.input(k) == w.input(0)) {
            checks += 1;
            if let Err(e) = runner::one_op(&mut w, k, probe, &mut seen, false) {
                errors.push(e);
            }
            next = k + 1;
        }
    }
    // The end-of-run checks get an op id of their own in the trace.
    probe.set_op(next as u64);
    let Finish {
        checks: finish_checks,
        errors: finish_errors,
        quality,
    } = w.finish(probe);
    checks += finish_checks;
    errors.extend(finish_errors);
    Ok(Run {
        setup_s,
        plain,
        traced,
        checks,
        errors,
        quality,
        measured_s,
    })
}

/// Peak resident set size of this process image, in MiB: `VmHWM` from
/// `/proc/self/status`. (`getrusage` would not do: its peak survives
/// `exec`, so under `cargo run` it reports Cargo's own footprint.)
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(name, unit, value)` rows of the end-to-end metrics.
fn end_to_end(run: &Run, ops: &Loop) -> Vec<(&'static str, &'static str, f64)> {
    let attempted = ops.attempted + run.checks;
    let failed = ops.failed + run.errors.len();
    let busy_s: f64 = ops.op_ms.iter().sum::<f64>() / 1e3;
    let q = run.quality;
    vec![
        ("setup_s", "s", stats::median(&run.setup_s)),
        ("op_p50_ms", "ms", ops.p50()),
        ("op_tail_ms", "ms", ops.tail()),
        (
            "ops_per_s",
            "1/s",
            if busy_s > 0.0 {
                ops.op_ms.len() as f64 / busy_s
            } else {
                0.0
            },
        ),
        (
            "ok_ratio",
            "ratio",
            (attempted - failed) as f64 / attempted.max(1) as f64,
        ),
        ("peak_rss_mb", "MiB", peak_rss_mb()),
        ("makespan_cycles", "cycles", q.makespan_cycles),
        ("hw_clbs", "CLBs", q.hw_clbs),
        ("sim_cycles", "cycles", q.sim_cycles),
        ("encoding_cost", "bits", q.encoding_cost),
        ("wirelength_hpwl", "CLB-pitch", q.wirelength_hpwl),
    ]
}

/// Per-layer metrics: `(name, unit, how)`.
enum Agg {
    /// Median of the per-op samples of the metric itself.
    Median,
    /// Sum of one sample series over the sum of another.
    Ratio(&'static str, &'static str),
}

const PER_LAYER: &[(&str, &str, Agg)] = &[
    ("spec.parse_ms", "ms", Agg::Median),
    ("cost.estimate_ms", "ms", Agg::Median),
    ("partition.solve_ms", "ms", Agg::Median),
    ("partition.solves", "count", Agg::Median),
    (
        "partition.optimal_ratio",
        "ratio",
        Agg::Ratio("partition.optimal", "partition.solves"),
    ),
    ("ilp.bb_nodes", "count", Agg::Median),
    (
        "ilp.ms_per_node",
        "ms",
        Agg::Ratio("partition.solve_ms", "ilp.bb_nodes"),
    ),
    ("schedule.ms", "ms", Agg::Median),
    ("stg.ms", "ms", Agg::Median),
    ("stg.states_before", "count", Agg::Median),
    ("stg.states_after", "count", Agg::Median),
    ("codegen.ms", "ms", Agg::Median),
    ("hls.ms", "ms", Agg::Median),
    ("hls.nodes_synthesized", "count", Agg::Median),
    ("rtl.encoding_ms", "ms", Agg::Median),
    ("rtl.encoding_candidates", "count", Agg::Median),
    ("rtl.netlist_ms", "ms", Agg::Median),
    ("rtl.vhdl_ms", "ms", Agg::Median),
    ("rtl.place_ms", "ms", Agg::Median),
    ("rtl.place_moves", "count", Agg::Median),
    ("rtl.jobs1_ms", "ms", Agg::Median),
    ("par.speedup", "x", Agg::Median),
    ("par.cores", "count", Agg::Median),
    ("sim.ms", "ms", Agg::Median),
    ("sim.cycles", "cycles", Agg::Median),
    ("cache.stage_hits", "count", Agg::Median),
    ("cache.stage_misses", "count", Agg::Median),
    ("cache.node_hits", "count", Agg::Median),
    ("cache.node_misses", "count", Agg::Median),
    (
        "cache.node_hit_ratio",
        "ratio",
        Agg::Ratio("cache.node_hits", "cache.node_lookups"),
    ),
    ("cache.restore_ms", "ms", Agg::Median),
    ("disk.writes", "count", Agg::Median),
    ("disk.hits", "count", Agg::Median),
    ("disk.bytes", "bytes", Agg::Median),
    ("remote.get_p50_ms", "ms", Agg::Median),
    ("remote.get_tail_ms", "ms", Agg::Median),
    ("remote.put_p50_ms", "ms", Agg::Median),
    ("remote.put_tail_ms", "ms", Agg::Median),
    ("remote.hits", "count", Agg::Median),
    ("remote.misses", "count", Agg::Median),
    ("remote.puts", "count", Agg::Median),
    ("remote.errors", "count", Agg::Median),
    ("remote.roundtrip_ms_per_op", "ms", Agg::Median),
    ("server.ping_p50_ms", "ms", Agg::Median),
    ("engine.glue_ms", "ms", Agg::Median),
    ("trace.overhead_ratio", "ratio", Agg::Median),
];

fn per_layer(run: &Run, probe: &mut Probe) -> Vec<(&'static str, &'static str, f64)> {
    let plain = run.plain.p50();
    if let (Some(traced), true) = (&run.traced, plain > 0.0) {
        probe.sample("trace.overhead_ratio", traced.p50() / plain);
    }
    probe.sample("par.cores", cores() as f64);
    let lookups: Vec<f64> = probe
        .samples("cache.node_hits")
        .iter()
        .zip(probe.samples("cache.node_misses"))
        .map(|(h, m)| h + m)
        .collect();
    for l in lookups {
        probe.sample("cache.node_lookups", l);
    }
    PER_LAYER
        .iter()
        .map(|(name, unit, agg)| {
            let value = match agg {
                Agg::Median => stats::median(probe.samples(name)),
                Agg::Ratio(num, den) => {
                    let den = probe.total(den);
                    if den > 0.0 {
                        probe.total(num) / den
                    } else {
                        0.0
                    }
                }
            };
            (*name, *unit, value)
        })
        .collect()
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn run_workload(args: &Args, scratch: &Path, probe: &mut Probe) -> Result<Run, String> {
    let (seed, jobs) = (args.seed, cores());
    match args.workload.as_str() {
        "cold_synth" => measure(args, 25, probe, |_, p| {
            cold::ColdSynth::setup(seed, jobs, p)
        }),
        "exact_sweep" => measure(args, 15, probe, |_, p| {
            sweep::ExactSweep::setup(seed, jobs, p)
        }),
        "edit_loop" => measure(args, 5, probe, |rep, p| {
            edit::EditLoop::setup(seed, jobs, scratch.join(format!("edit-cache-{rep}")), p)
        }),
        "fleet_warm" => {
            // The cold flows the daemon is seeded with run once; each
            // set-up repetition is a fresh daemon plus the puts.
            let produced = fleet::Produced::new(seed, jobs, &scratch.join("fleet-cold"), probe)?;
            measure(args, 3, probe, |rep, _| {
                fleet::FleetWarm::setup(&produced, scratch.join(format!("fleet-{rep}")))
            })
        }
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let scratch = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    let mut probe = Probe::new(args.trace);
    let run = run_workload(&args, &scratch, &mut probe);
    let _ = std::fs::remove_dir_all(&scratch);
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let ops = run.traced.as_ref().unwrap_or(&run.plain);
    for e in run
        .plain
        .errors
        .iter()
        .chain(run.traced.iter().flat_map(|l| &l.errors))
        .chain(&run.errors)
        .take(10)
    {
        eprintln!("perfbench: check failed: {e}");
    }
    let attempted =
        run.plain.attempted + run.traced.as_ref().map_or(0, |l| l.attempted) + run.checks;
    let failed = run.plain.failed + run.traced.as_ref().map_or(0, |l| l.failed) + run.errors.len();
    let points: Vec<String> = ops
        .tail_points()
        .iter()
        .map(|(pct, n)| format!("p{pct:.1} of {n}"))
        .collect();
    println!(
        "{} seed {}: {} op(s) in {:.1} s on {} core(s), p50 {:.3} ms, tail {:.3} ms ({} per op kind), \
         {failed} of {attempted} failed",
        args.workload,
        args.seed,
        ops.op_ms.len(),
        run.measured_s,
        cores(),
        ops.p50(),
        ops.tail(),
        points.join(", "),
    );
    let metrics = if args.trace {
        let metrics = per_layer(&run, &mut probe);
        let path =
            PathBuf::from(OUT_DIR).join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(OUT_DIR).and_then(|()| probe.write_chrome(&path)) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        metrics
    } else {
        end_to_end(&run, ops)
    };
    let mut json = Vec::new();
    for (name, unit, value) in &metrics {
        println!("  {name:<28} {value:>14.4} {unit}");
        let value = if value.is_finite() { *value } else { 0.0 };
        json.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_string(name),
            json_string(unit)
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        json.join(",")
    );
    ExitCode::SUCCESS
}
