//! Spans and per-layer samples recorded from the benchmark's own code.
//!
//! The benchmark cannot see inside the flow, so a span is either a call
//! the benchmark makes into a layer's public function (timed here), or
//! an engine stage interval read back from the flow's own `FlowTrace`.
//! Spans stay in memory and are written once, at the end of a traced
//! run, in the Chrome Trace Event format (`ph: "X"` complete events),
//! which Perfetto and `chrome://tracing` open as they are.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

struct Span {
    id: u64,
    parent: Option<u64>,
    op: u64,
    lane: u32,
    name: String,
    start: Duration,
    dur: Duration,
}

/// Span recorder plus per-op layer samples. Timing always happens;
/// recording only in a traced run.
pub struct Probe {
    traced: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u64>,
    next_id: u64,
    last: Option<u64>,
    op: u64,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Probe {
    #[must_use]
    pub fn new(traced: bool) -> Probe {
        Probe {
            traced,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_id: 1,
            last: None,
            op: 0,
            samples: BTreeMap::new(),
        }
    }

    #[must_use]
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Later spans belong to operation `op` (the shared id Perfetto
    /// shows in each event's args).
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f`, returning its result and wall time in ms; in a traced run
    /// the call is recorded as a span under the innermost open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Probe) -> T) -> (T, f64) {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied();
        self.open.push(id);
        let start = Instant::now();
        let out = f(self);
        let dur = start.elapsed();
        self.open.pop();
        if self.traced {
            self.spans.push(Span {
                id,
                parent,
                op: self.op,
                lane: 1,
                name: name.to_string(),
                start: start - self.epoch,
                dur,
            });
            self.last = Some(id);
        }
        (out, dur.as_secs_f64() * 1e3)
    }

    /// Id of the span closed last (traced runs only).
    #[must_use]
    pub fn last_span(&self) -> Option<u64> {
        self.last
    }

    /// Record an interval measured elsewhere (an engine stage record) as
    /// a child of `parent` (default: the innermost open span), drawn on
    /// thread lane `lane` so that concurrent intervals do not overlap.
    pub fn record(
        &mut self,
        parent: Option<u64>,
        lane: u32,
        name: &str,
        start: Instant,
        dur: Duration,
    ) {
        if !self.traced {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent: parent.or_else(|| self.open.last().copied()),
            op: self.op,
            lane,
            name: name.to_string(),
            start: start.saturating_duration_since(self.epoch),
            dur,
        });
    }

    /// One per-op sample of a layer metric (kept in traced runs only).
    pub fn sample(&mut self, metric: &'static str, value: f64) {
        if self.traced {
            self.samples.entry(metric).or_default().push(value);
        }
    }

    /// Every sample of `metric`, in recording order.
    #[must_use]
    pub fn samples(&self, metric: &str) -> &[f64] {
        self.samples.get(metric).map_or(&[], Vec::as_slice)
    }

    /// Sum of the samples of `metric`.
    #[must_use]
    pub fn total(&self, metric: &str) -> f64 {
        self.samples(metric).iter().sum()
    }

    /// Write the recorded spans as Chrome Trace Event JSON.
    ///
    /// # Errors
    ///
    /// Propagates the write error.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"span\":{},\"parent\":{}}}}}",
                json_string(&s.name),
                s.name.split('.').next().unwrap_or("op"),
                s.lane,
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
                s.op,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

/// `s` as a JSON string literal.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut p = Probe::new(true);
        p.set_op(7);
        let ((), _) = p.span("op", |p| {
            let ((), _) = p.span("rtl.encoding", |_| {});
        });
        assert_eq!(p.spans.len(), 2);
        let child = &p.spans[0];
        let parent = &p.spans[1];
        assert_eq!(child.parent, Some(parent.id));
        assert_eq!((child.op, parent.op), (7, 7));
        assert_eq!(parent.parent, None);
    }

    #[test]
    fn untraced_probe_times_but_keeps_nothing() {
        let mut p = Probe::new(false);
        let (v, ms) = p.span("op", |_| 3);
        p.sample("sim.ms", 1.0);
        assert_eq!(v, 3);
        assert!(ms >= 0.0);
        assert!(p.spans.is_empty() && p.samples("sim.ms").is_empty());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
