//! Spans recorded in memory around each call into a layer, and the
//! statistics the report is built from.
//!
//! Only the benchmark's own code reads a clock: every span wraps one public
//! call into the library (or one HTTP round trip to the daemon). A disabled
//! [`Recorder`] records nothing, so the untraced run that produces the
//! end-to-end metrics pays one branch per span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval of one op. `parent` indexes the enclosing span in the
/// same [`Recorder`]; a span without a parent is an op root.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans of one thread of one phase of a run. Phases (`phases`) are
/// client-observed intervals that are not calls — they are reported like
/// spans but never subtracted from a parent's self time.
pub struct Recorder {
    epoch: Instant,
    on: bool,
    pub spans: Vec<Span>,
    pub phases: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant, on: bool) -> Self {
        Self {
            epoch,
            on,
            spans: Vec::new(),
            phases: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span at `at`; it nests under the innermost open span.
    pub fn begin(&mut self, op: u64, name: &'static str, at: Instant) {
        if !self.on {
            return;
        }
        let start_ns = self.ns(at);
        self.spans.push(Span {
            op,
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span at `at`.
    pub fn end(&mut self, at: Instant) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("end() without a matching begin()");
        self.spans[i].end_ns = self.ns(at);
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(&mut self, op: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        self.begin(op, name, Instant::now());
        let out = f();
        self.end(Instant::now());
        out
    }

    /// Record a client-observed phase `[from, to)`.
    pub fn phase(&mut self, op: u64, name: &'static str, from: Instant, to: Instant) {
        if self.on {
            self.phases.push(Span {
                op,
                name,
                parent: None,
                start_ns: self.ns(from),
                end_ns: self.ns(to),
            });
        }
    }

    /// Append another recorder's spans (same epoch), re-basing parents.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        self.phases.extend(other.phases);
    }

    /// Spans plus phases recorded.
    pub fn len(&self) -> usize {
        self.spans.len() + self.phases.len()
    }

    /// JSON lines `{group, id, op, name, parent, start_ns, end_ns, phase}`;
    /// `id`/`parent` are indices within the group.
    pub fn write_jsonl(&self, group: &str, out: &mut String) {
        let line = |out: &mut String, id: usize, s: &Span, phase: bool| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"group":"{group}","id":{id},"op":{},"name":"{}","parent":{parent},"start_ns":{},"end_ns":{},"phase":{phase}}}"#,
                s.op, s.name, s.start_ns, s.end_ns
            );
        };
        for (id, s) in self.spans.iter().enumerate() {
            line(out, id, s, false);
        }
        for (id, s) in self.phases.iter().enumerate() {
            line(out, self.spans.len() + id, s, true);
        }
    }
}

/// Per-name statistics of one recorder.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerStats {
    pub count: u64,
    pub p50_ms: f64,
    pub total_s: f64,
    /// Self time (duration minus the time covered by child spans) as a
    /// share of the summed root-span latency of the same recorder.
    pub share: f64,
}

/// Layer statistics of `rec`, keyed by span name (roots included).
pub fn summarize(rec: &Recorder) -> BTreeMap<&'static str, LayerStats> {
    let mut child_ns = vec![0u64; rec.spans.len()];
    for s in &rec.spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let root_ns: u64 = rec
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum();
    let mut durs: BTreeMap<&'static str, (Vec<f64>, u64)> = BTreeMap::new();
    let self_times = rec
        .spans
        .iter()
        .zip(&child_ns)
        .map(|(s, &c)| (s, s.dur_ns().saturating_sub(c)));
    let phase_times = rec.phases.iter().map(|s| (s, s.dur_ns()));
    for (s, self_ns) in self_times.chain(phase_times) {
        let e = durs.entry(s.name).or_default();
        e.0.push(s.dur_ns() as f64 / 1e6);
        e.1 += self_ns;
    }
    durs.into_iter()
        .map(|(name, (mut ms, self_ns))| {
            let stats = LayerStats {
                count: ms.len() as u64,
                p50_ms: percentile(&mut ms, 0.5),
                total_s: ms.iter().sum::<f64>() / 1e3,
                share: if root_ns == 0 {
                    0.0
                } else {
                    self_ns as f64 / root_ns as f64
                },
            };
            (name, stats)
        })
        .collect()
}

/// The `q`-quantile of `xs` by linear interpolation between closest ranks
/// (0 for an empty slice). Sorts `xs` in place.
pub fn percentile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Quartiles `(q1, median, q3)` by the "exclusive" method — what Python's
/// `statistics.quantiles(values, n=4)` returns, so spreads printed here
/// match that definition. Needs at least two values; one value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut xs = values.to_vec();
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n < 2 {
        let v = xs.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let q = |i: usize| {
        let m = (n + 1) * i;
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 / 4.0 - j as f64;
        xs[j - 1] + (xs[j] - xs[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let mut rec = Recorder::new(t0, true);
        rec.begin(0, "op", at(0));
        rec.begin(0, "a", at(1));
        rec.end(at(4));
        rec.begin(0, "b", at(4));
        rec.end(at(9));
        rec.end(at(10));
        let layers = summarize(&rec);
        assert!((layers["op"].total_s - 0.010).abs() < 1e-9);
        assert!((layers["op"].share - 0.2).abs() < 1e-9);
        assert!((layers["a"].share - 0.3).abs() < 1e-9);
        assert!((layers["b"].p50_ms - 5.0).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // ...and extrapolates for tiny samples: [1, 3] -> [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
    }
}
