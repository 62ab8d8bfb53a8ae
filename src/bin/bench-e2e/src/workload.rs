//! Running one workload: set-up, the timed closed-loop load phase, output
//! checks, and (traced runs) the per-layer breakdown.

use crate::daemon::{submit_and_wait, DaemonProc};
use crate::gen::{self, streams, Rng};
use crate::inproc::{self, Replay};
use crate::trace::{self, percentile, LayerStats, Recorder};
use overlap_core::ScenarioSpec;
use overlap_daemon::{CacheStats, RunRecord};
use overlap_sim::RunStats;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Set-up is repeated this many times per run and its median reported; the
/// last set-up's state (daemon, warm caches) serves the load phase.
const SETUP_REPEATS: usize = 5;
/// Untimed in-process ops per set-up.
const INPROC_WARM_OPS: u64 = 20;
/// Untimed distinct submissions per `daemon_cold` set-up.
const COLD_WARM_OPS: u64 = 4;
/// Ops of each workload at `--smoke` size (load phase = prefix).
const SMOKE_OPS: u64 = 8;
/// Sampled ops re-run in-process after a daemon workload.
const CROSS_CHECK_SAMPLES: usize = 50;
/// Sampled ops replayed in-process by a traced daemon workload.
const REPLAY_SAMPLES: usize = 100;
/// Warm-up ops are drawn from this index range, disjoint from load ops.
const WARM_BASE: u64 = 1 << 40;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    InprocCold,
    DaemonHit,
    DaemonCold,
    DaemonMixedRw,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::InprocCold,
        Workload::DaemonHit,
        Workload::DaemonCold,
        Workload::DaemonMixedRw,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::InprocCold => "inproc_cold",
            Workload::DaemonHit => "daemon_hit",
            Workload::DaemonCold => "daemon_cold",
            Workload::DaemonMixedRw => "daemon_mixed_rw",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops in the fixed-work prefix. The load phase always completes these
    /// (even past its time box); peak RSS is read when they are done, and
    /// the mean slowdown, the simulation counters and the stats digest are
    /// taken over them, so none of these depends on how many more ops fit
    /// in the time box. Sized to take about half the default run on a
    /// 2-core host.
    fn prefix_ops(self, smoke: bool) -> u64 {
        if smoke {
            return SMOKE_OPS;
        }
        match self {
            Workload::InprocCold => 300,
            Workload::DaemonHit => 600,
            Workload::DaemonCold => 300,
            Workload::DaemonMixedRw => 250,
        }
    }

    /// Closed-loop clients submitting scenario ops (`daemon_mixed_rw` adds
    /// one reader). `daemon_cold` has one: every op adds an entry to the
    /// daemon's unbounded plan cache, and one client keeps a run's daemon
    /// under about 0.5 GB on a 2-core host.
    fn clients(self) -> usize {
        match self {
            Workload::DaemonHit => 2,
            _ => 1,
        }
    }

    /// Load op `index`.
    fn spec(self, seed: u64, index: u64, smoke: bool) -> ScenarioSpec {
        match self {
            Workload::InprocCold => gen::inproc_cold(seed, index, smoke),
            Workload::DaemonHit | Workload::DaemonMixedRw => gen::hit_variant(seed, index, smoke),
            Workload::DaemonCold => gen::daemon_cold(seed, index, smoke),
        }
    }

    /// Untimed set-up submissions: one per base plan on the hit workloads,
    /// a few distinct scenarios otherwise.
    fn warm_specs(self, seed: u64, smoke: bool) -> Vec<ScenarioSpec> {
        let smoke_cap = if smoke { 2 } else { u64::MAX };
        match self {
            Workload::DaemonHit | Workload::DaemonMixedRw => (0..gen::HIT_BASES)
                .map(|b| gen::hit_base(seed, b, smoke))
                .collect(),
            Workload::DaemonCold => (0..COLD_WARM_OPS.min(smoke_cap))
                .map(|j| gen::daemon_cold(seed, WARM_BASE + j, smoke))
                .collect(),
            Workload::InprocCold => (0..INPROC_WARM_OPS.min(smoke_cap))
                .map(|j| gen::inproc_cold(seed, WARM_BASE + j, smoke))
                .collect(),
        }
    }
}

/// End-to-end metrics, reported by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_ops_s", "ops/s"),
    ("sim_events_per_s", "events/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Layers with a span (or a client-observed phase) in traced runs.
pub const SPANS: [&str; 15] = [
    "core.decode",
    "core.plan_key",
    "core.build",
    "sim.lower",
    "model.reference",
    "sim.delta",
    "sim.engine",
    "sim.validate",
    "daemon.submit",
    "daemon.poll",
    "daemon.queue_wait",
    "daemon.exec",
    "daemon.read.runs",
    "daemon.read.status",
    "daemon.read.cache",
];

/// Counters of traced runs besides the span statistics: `(name, unit)`.
pub const COUNTERS: [(&str, &str); 18] = [
    ("sim.slowdown_mean", "ticks/step"),
    ("sim.engine.events", "events"),
    ("sim.engine.peak_queue_depth", "count"),
    ("sim.faults.retries", "count"),
    ("daemon.polls_per_op", "polls/op"),
    ("daemon.store.bytes", "bytes"),
    ("daemon.cache.hits", "count"),
    ("daemon.cache.misses", "count"),
    ("daemon.cache.hit_ratio", "ratio"),
    ("daemon.cache.entries", "count"),
    ("daemon.overhead_ms_p50", "ms"),
    ("read_latency_p50_ms", "ms"),
    ("read_latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("failed_frac", "ratio"),
    ("op.unattributed_share", "ratio"),
    ("trace.latency_p50_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer metrics, reported by traced runs: `(name, unit)`.
#[cfg(test)]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for span in SPANS {
        for (stat, unit) in [
            ("count", "count"),
            ("p50_ms", "ms"),
            ("total_s", "s"),
            ("share", "ratio"),
        ] {
            out.push((format!("{span}.{stat}"), unit));
        }
    }
    out.extend(COUNTERS.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Directory the traced run writes its spans into.
    pub spans_dir: Option<PathBuf>,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in definition order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// FNV-1a over the JSON of every prefix op's `RunStats`, in op order.
    pub digest: u64,
    /// The first few failure and mismatch messages.
    pub errors: Vec<String>,
    /// Some daemon result differed from (or could not be reproduced by)
    /// an in-process run of the same scenario.
    pub mismatched: bool,
    /// Per-layer table rows of a traced run.
    pub layers: BTreeMap<&'static str, LayerStats>,
}

/// One completed, validated op. Times are seconds since the load phase
/// began; `gen_s` is what the client spent generating the op's input just
/// before `start_s`.
struct OpRecord {
    index: u64,
    gen_s: f64,
    start_s: f64,
    end_s: f64,
    stats: RunStats,
}

impl OpRecord {
    fn latency_ms(&self) -> f64 {
        (self.end_s - self.start_s) * 1e3
    }
}

/// What one client saw during the load phase.
#[derive(Default)]
struct Tally {
    ops: Vec<OpRecord>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    polls: u64,
}

impl Tally {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.ops.extend(other.ops);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors.into_iter().take(5));
        self.polls += other.polls;
    }
}

/// The load phase's time box and fixed-work prefix, shared by its clients.
struct LoadCtl {
    start: Instant,
    seconds: f64,
    prefix: u64,
    max_ops: u64,
    next: AtomicU64,
    finished: AtomicU64,
    /// Process whose peak RSS is read at the checkpoint (`None`: this one).
    rss_pid: Option<u32>,
    rss_mb: Mutex<Option<f64>>,
}

impl LoadCtl {
    fn new(args: &RunArgs, rss_pid: Option<u32>) -> Self {
        let prefix = args.workload.prefix_ops(args.smoke);
        Self {
            start: Instant::now(),
            seconds: args.seconds,
            prefix,
            max_ops: if args.smoke { prefix } else { u64::MAX },
            next: AtomicU64::new(0),
            finished: AtomicU64::new(0),
            rss_pid,
            rss_mb: Mutex::new(None),
        }
    }

    /// The next op index, or `None` once the time box is spent and the
    /// prefix is claimed. A system too slow to finish the prefix within
    /// ten time boxes (at least a minute) is cut off there, so a run always
    /// ends.
    fn claim(&self) -> Option<u64> {
        let i = self.next.fetch_add(1, Ordering::SeqCst);
        let elapsed = self.start.elapsed().as_secs_f64();
        let in_time = elapsed < self.seconds;
        let prefix_open = i < self.prefix && elapsed < (10.0 * self.seconds).max(60.0);
        (i < self.max_ops && (prefix_open || in_time)).then_some(i)
    }

    fn finished_one(&self) {
        if self.finished.fetch_add(1, Ordering::SeqCst) + 1 == self.prefix {
            *self.rss_mb.lock().expect("rss lock poisoned") = Some(vm_hwm_mb(self.rss_pid));
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        let at_checkpoint = *self.rss_mb.lock().expect("rss lock poisoned");
        at_checkpoint.unwrap_or_else(|| vm_hwm_mb(self.rss_pid))
    }

    /// The record of op `index`, generated from `g0`, timed from `t0` to
    /// `end`.
    fn op(&self, index: u64, g0: Instant, t0: Instant, end: Instant, stats: RunStats) -> OpRecord {
        let s = |t: Instant| t.saturating_duration_since(self.start).as_secs_f64();
        OpRecord {
            index,
            gen_s: s(t0) - s(g0),
            start_s: s(t0),
            end_s: s(end),
            stats,
        }
    }
}

/// Peak resident set (`VmHWM`) of `pid` (`None`: this process), in MB.
fn vm_hwm_mb(pid: Option<u32>) -> f64 {
    let path = pid.map_or("/proc/self/status".to_string(), |p| {
        format!("/proc/{p}/status")
    });
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

fn to_json(spec: &ScenarioSpec) -> String {
    serde_json::to_string(spec).expect("a ScenarioSpec always serializes")
}

/// Run one workload to completion. `Err` means the run could not be set
/// up at all (no result is reported).
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    match args.workload {
        Workload::InprocCold => run_inproc(args),
        _ => run_daemon(args),
    }
}

fn run_inproc(args: &RunArgs) -> Result<RunResult, String> {
    let epoch = Instant::now();
    let warm = args.workload.warm_specs(args.seed, args.smoke);
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let mut off = Recorder::new(epoch, false);
        for spec in &warm {
            inproc::cold_op(&to_json(spec), &mut off, 0).map_err(|e| format!("warm-up: {e}"))?;
        }
        setups.push(t0.elapsed().as_secs_f64());
    }

    let ctl = LoadCtl::new(args, None);
    let mut rec = Recorder::new(epoch, args.trace);
    let mut tally = Tally::default();
    while let Some(i) = ctl.claim() {
        let g0 = Instant::now();
        let json = to_json(&args.workload.spec(args.seed, i, args.smoke));
        let t0 = Instant::now();
        tally.attempted += 1;
        rec.begin(i, "op", t0);
        match inproc::cold_op(&json, &mut rec, i) {
            Ok(done) => tally.ops.push(ctl.op(i, g0, t0, done.end, done.stats)),
            Err(e) => tally.fail(format!("op {i}: {e}")),
        }
        ctl.finished_one();
    }
    let peak_rss = ctl.peak_rss_mb();

    let mut report = Report::new(args, tally, peak_rss, setups, &ctl);
    if args.trace {
        report.groups.push(("load", rec));
    }
    Ok(report.finish())
}

/// A temporary directory next to the executable (inside the build tree),
/// removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Result<Self, String> {
        let dir = exe_dir().join(format!("bench-e2e-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_daemon(args: &RunArgs) -> Result<RunResult, String> {
    let epoch = Instant::now();
    let tmp = TempDir::new()?;
    let mixed = args.workload == Workload::DaemonMixedRw;
    let warm_specs = args.workload.warm_specs(args.seed, args.smoke);

    let mut setups = Vec::new();
    let mut daemon: Option<DaemonProc> = None;
    let mut warm: Vec<RunRecord> = Vec::new();
    let mut store = None;
    for rep in 0..SETUP_REPEATS {
        if let Some(d) = daemon.take() {
            d.shutdown()?;
        }
        store = mixed.then(|| tmp.0.join(format!("runs-{rep}.jsonl")));
        let t0 = Instant::now();
        let d = DaemonProc::spawn(store.as_deref())?;
        let mut off = Recorder::new(epoch, false);
        warm.clear();
        for spec in &warm_specs {
            off.begin(0, "op", Instant::now());
            let (record, ..) = submit_and_wait(&d.client, spec, &mut off, 0)
                .map_err(|e| format!("warm-up: {e}"))?;
            if !record.validated {
                return Err("warm-up run failed validation".into());
            }
            warm.push(record);
        }
        setups.push(t0.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");
    let cache_before = daemon.client.cache().map_err(|e| format!("cache: {e}"))?;

    let ctl = LoadCtl::new(args, Some(daemon.pid()));
    let latest = AtomicU64::new(warm.last().map_or(0, |r| r.session));
    // Set when a client's load is over; the reader stops then.
    let load_done = AtomicBool::new(false);
    let hashes: Vec<u64> = warm.iter().map(|r| r.plan_hash).collect();
    let client_count = args.workload.clients();
    let client = |rec: &mut Recorder| -> Tally {
        let mut t = Tally::default();
        while let Some(i) = ctl.claim() {
            let g0 = Instant::now();
            let spec = args.workload.spec(args.seed, i, args.smoke);
            let t0 = Instant::now();
            t.attempted += 1;
            rec.begin(i, "op", t0);
            match submit_and_wait(&daemon.client, &spec, rec, i) {
                Ok((record, end, polls)) if record.validated && record.mismatches == 0 => {
                    latest.store(record.session, Ordering::SeqCst);
                    t.polls += polls;
                    t.ops.push(ctl.op(i, g0, t0, end, record.stats));
                }
                Ok((record, ..)) => t.fail(format!(
                    "op {i}: {} copies failed validation",
                    record.mismatches
                )),
                Err(e) => t.fail(format!("op {i}: {e}")),
            }
            ctl.finished_one();
        }
        t
    };
    let (tally, rec, reads) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..client_count)
            .map(|_| {
                s.spawn(|| {
                    let mut rec = Recorder::new(epoch, args.trace);
                    let t = client(&mut rec);
                    load_done.store(true, Ordering::SeqCst);
                    (t, rec)
                })
            })
            .collect();
        let reads = mixed.then(|| reader(&daemon, &hashes, &latest, &load_done, epoch, args.trace));
        let mut tally = Tally::default();
        let mut rec = Recorder::new(epoch, args.trace);
        for h in handles {
            let (t, r) = h.join().expect("client thread panicked");
            tally.absorb(t);
            rec.absorb(r);
        }
        (tally, rec, reads)
    });
    let peak_rss = ctl.peak_rss_mb();
    let cache_after = daemon.client.cache().map_err(|e| format!("cache: {e}"))?;
    let store_bytes = store
        .as_ref()
        .and_then(|p| std::fs::metadata(p).ok())
        .map_or(0, |m| m.len());
    daemon.shutdown()?;

    let mut report = Report::new(args, tally, peak_rss, setups, &ctl);
    report.cache = Some((cache_before, cache_after));
    report.store_bytes = store_bytes;
    if let Some((t, r, latencies)) = reads {
        report.read_latencies = latencies;
        report.tally.attempted += t.attempted;
        report.tally.failed += t.failed;
        report.tally.errors.extend(t.errors);
        if args.trace {
            report.groups.push(("read", r));
        }
    }

    // Byte-identity contract: the daemon's stats must equal a fresh
    // in-process run of the same scenario.
    let daemon_stats: BTreeMap<u64, (RunStats, f64)> = report
        .tally
        .ops
        .iter()
        .map(|o| (o.index, (o.stats, o.latency_ms())))
        .collect();
    let mut checks: Vec<(String, ScenarioSpec, RunStats)> = warm_specs
        .iter()
        .zip(&warm)
        .enumerate()
        .map(|(j, (spec, r))| (format!("warm-up {j}"), spec.clone(), r.stats))
        .collect();
    let prefix_done: Vec<u64> = daemon_stats
        .keys()
        .copied()
        .filter(|&i| i < ctl.prefix)
        .collect();
    let mut pick = Rng::stream(args.seed, streams::SAMPLE, 0);
    for k in pick.sample(prefix_done.len() as u64, CROSS_CHECK_SAMPLES) {
        let i = prefix_done[k as usize];
        checks.push((
            format!("op {i}"),
            args.workload.spec(args.seed, i, args.smoke),
            daemon_stats[&i].0,
        ));
    }
    for (label, spec, stats) in &checks {
        match inproc::fresh_stats(spec) {
            Ok(fresh) if fresh == *stats => {}
            Ok(_) => report.mismatches.push(format!(
                "{label}: daemon stats differ from an in-process run"
            )),
            Err(e) => report
                .mismatches
                .push(format!("{label}: in-process re-run failed: {e}")),
        }
    }

    if args.trace {
        // The server's work on the same inputs, replayed in-process: every
        // warm-up submission first (they fill the plan cache on hit
        // workloads), then a seeded sample of load ops.
        let mut replay = Replay::default();
        let mut rrec = Recorder::new(epoch, true);
        for (j, (spec, r)) in warm_specs.iter().zip(&warm).enumerate() {
            let op = WARM_BASE + j as u64;
            rrec.begin(op, "op", Instant::now());
            match replay.op(&to_json(spec), &mut rrec, op) {
                Ok(done) if done.stats == r.stats => {}
                Ok(_) => report.mismatches.push(format!(
                    "warm-up {j}: replayed stats differ from the daemon's"
                )),
                Err(e) => report
                    .mismatches
                    .push(format!("warm-up {j}: replay failed: {e}")),
            }
        }
        let mut pick = Rng::stream(args.seed, streams::REPLAY, 0);
        let (mut daemon_ms, mut replay_ms) = (Vec::new(), Vec::new());
        for k in pick.sample(prefix_done.len() as u64, REPLAY_SAMPLES) {
            let i = prefix_done[k as usize];
            let json = to_json(&args.workload.spec(args.seed, i, args.smoke));
            let t0 = Instant::now();
            rrec.begin(i, "op", t0);
            match replay.op(&json, &mut rrec, i) {
                Ok(done) if done.stats == daemon_stats[&i].0 => {
                    daemon_ms.push(daemon_stats[&i].1);
                    replay_ms.push(ms(t0, done.end));
                }
                Ok(_) => report
                    .mismatches
                    .push(format!("op {i}: replayed stats differ from the daemon's")),
                Err(e) => report
                    .mismatches
                    .push(format!("op {i}: replay failed: {e}")),
            }
        }
        report.overhead_ms_p50 = percentile(&mut daemon_ms, 0.5) - percentile(&mut replay_ms, 0.5);
        report.groups.push(("replay", rrec));
        report.groups.push(("load", rec));
    }
    Ok(report.finish())
}

/// The `daemon_mixed_rw` reader: until the writer finishes, cycle through
/// run-history queries by plan hash, status of the latest session, and
/// cache counters in a 2:1:1 ratio, checking every answer.
fn reader(
    daemon: &DaemonProc,
    hashes: &[u64],
    latest: &AtomicU64,
    load_done: &AtomicBool,
    epoch: Instant,
    trace: bool,
) -> (Tally, Recorder, Vec<f64>) {
    const KINDS: [&str; 4] = [
        "daemon.read.runs",
        "daemon.read.runs",
        "daemon.read.status",
        "daemon.read.cache",
    ];
    let client = &daemon.client;
    let mut rec = Recorder::new(epoch, trace);
    let mut tally = Tally::default();
    let mut latencies = Vec::new();
    let mut r = 0u64;
    while !load_done.load(Ordering::SeqCst) {
        let kind = KINDS[(r % 4) as usize];
        let hash = hashes[((r / 4) % hashes.len() as u64) as usize];
        let session = latest.load(Ordering::SeqCst);
        let t0 = Instant::now();
        rec.begin(r, kind, t0);
        let answer = match r % 4 {
            0 | 1 => client.runs(Some(hash)).map(|runs| {
                runs.iter()
                    .all(|run| run.plan_hash == hash && run.validated)
                    .then_some(())
                    .ok_or("a queried run has another plan hash or is unvalidated")
            }),
            2 => client
                .status(session)
                .map(|view| (view.id == session).then_some(()).ok_or("wrong session")),
            _ => client.cache().map(|_| Ok(())),
        };
        let end = Instant::now();
        rec.end(end);
        tally.attempted += 1;
        let checked = answer
            .map_err(|e| e.to_string())
            .and_then(|ok| ok.map_err(String::from));
        match checked {
            Ok(()) => latencies.push(ms(t0, end)),
            Err(e) => tally.fail(format!("read {r} ({kind}): {e}")),
        }
        r += 1;
    }
    (tally, rec, latencies)
}

/// Collects a run's measurements and turns them into its metrics.
struct Report<'a> {
    args: &'a RunArgs,
    tally: Tally,
    peak_rss_mb: f64,
    setups: Vec<f64>,
    prefix: u64,
    cache: Option<(CacheStats, CacheStats)>,
    store_bytes: u64,
    read_latencies: Vec<f64>,
    overhead_ms_p50: f64,
    mismatches: Vec<String>,
    groups: Vec<(&'static str, Recorder)>,
}

impl<'a> Report<'a> {
    fn new(
        args: &'a RunArgs,
        mut tally: Tally,
        peak_rss_mb: f64,
        setups: Vec<f64>,
        ctl: &LoadCtl,
    ) -> Self {
        tally.ops.sort_by_key(|o| o.index);
        Self {
            args,
            tally,
            peak_rss_mb,
            setups,
            prefix: ctl.prefix,
            cache: None,
            store_bytes: 0,
            read_latencies: Vec::new(),
            overhead_ms_p50: 0.0,
            mismatches: Vec::new(),
            groups: Vec::new(),
        }
    }

    fn finish(mut self) -> RunResult {
        let workload = self.args.workload;
        let prefix: Vec<&OpRecord> = self
            .tally
            .ops
            .iter()
            .filter(|o| o.index < self.prefix)
            .collect();
        let mut digest = Fnv::new();
        for o in &prefix {
            digest.write(
                serde_json::to_string(&o.stats)
                    .expect("RunStats serializes")
                    .as_bytes(),
            );
        }
        let ops = &self.tally.ops;
        let mut latencies: Vec<f64> = ops.iter().map(OpRecord::latency_ms).collect();
        let latency_p50 = percentile(&mut latencies, 0.5);
        // Rates are over the load phase less the time the clients spent
        // generating inputs: that time is the benchmark's, not the system's.
        let span_s = ops.iter().map(|o| o.end_s).fold(0.0, f64::max);
        let gen_s: f64 = ops.iter().map(|o| o.gen_s).sum();
        let busy_s = (span_s - gen_s / workload.clients() as f64).max(1e-9);
        let events: u64 = ops.iter().map(|o| o.stats.events_processed).sum();
        let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
        if !self.args.trace {
            let values = [
                latency_p50,
                percentile(&mut latencies, 0.9),
                ops.len() as f64 / busy_s,
                events as f64 / busy_s,
                self.peak_rss_mb,
                percentile(&mut self.setups, 0.5),
            ];
            for ((name, unit), v) in END_TO_END.iter().zip(values) {
                metrics.push((name.to_string(), v, unit));
            }
        }
        let mut layers = BTreeMap::new();
        if self.args.trace {
            let mut spans_out = String::new();
            let mut recorded = 0usize;
            let mut unattributed = 0.0;
            for (group, rec) in &self.groups {
                let stats = trace::summarize(rec);
                if *group == "load" {
                    recorded = rec.len();
                    unattributed = stats.get("op").map_or(0.0, |s| s.share);
                }
                layers.extend(stats.into_iter().filter(|(name, _)| *name != "op"));
                rec.write_jsonl(group, &mut spans_out);
            }
            if let Some(dir) = &self.args.spans_dir {
                let path = dir.join(format!(
                    "{}-seed{}.spans.jsonl",
                    workload.name(),
                    self.args.seed
                ));
                if let Err(e) =
                    std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, spans_out))
                {
                    eprintln!("could not write {}: {e}", path.display());
                }
            }
            for span in SPANS {
                let s = layers.get(span).cloned().unwrap_or_default();
                for (stat, v, unit) in [
                    ("count", s.count as f64, "count"),
                    ("p50_ms", s.p50_ms, "ms"),
                    ("total_s", s.total_s, "s"),
                    ("share", s.share, "ratio"),
                ] {
                    metrics.push((format!("{span}.{stat}"), v, unit));
                }
            }
            let (hits, misses, entries) = self.cache.map_or((0, 0, 0), |(before, after)| {
                (
                    after.hits - before.hits,
                    after.misses - before.misses,
                    after.entries,
                )
            });
            let sum_latency_s = latencies.iter().sum::<f64>() / 1e3;
            let done = ops.len().max(1) as f64;
            let counters = [
                prefix.iter().map(|o| o.stats.slowdown).sum::<f64>() / prefix.len().max(1) as f64,
                prefix.iter().map(|o| o.stats.events_processed).sum::<u64>() as f64,
                prefix
                    .iter()
                    .map(|o| o.stats.peak_queue_depth)
                    .max()
                    .unwrap_or(0) as f64,
                prefix.iter().map(|o| o.stats.faults.retries).sum::<u64>() as f64,
                self.tally.polls as f64 / done,
                self.store_bytes as f64,
                hits as f64,
                misses as f64,
                hits as f64 / (hits + misses).max(1) as f64,
                entries as f64,
                self.overhead_ms_p50,
                percentile(&mut self.read_latencies, 0.5),
                percentile(&mut self.read_latencies, 0.9),
                percentile(&mut latencies, 0.99),
                self.tally.failed as f64 / self.tally.attempted.max(1) as f64,
                unattributed,
                latency_p50,
                100.0 * span_cost_s() * recorded as f64 / sum_latency_s.max(1e-9),
            ];
            for ((name, unit), v) in COUNTERS.iter().zip(counters) {
                metrics.push((name.to_string(), v, unit));
            }
        }
        let mut errors = self.tally.errors;
        errors.extend(self.mismatches.iter().cloned());
        RunResult {
            correct: self.tally.failed == 0 && self.mismatches.is_empty(),
            attempted: self.tally.attempted,
            failed: self.tally.failed,
            metrics,
            digest: digest.0,
            mismatched: !self.mismatches.is_empty(),
            errors,
            layers,
        }
    }
}

/// Measured cost of recording one span (two clock reads and a push).
fn span_cost_s() -> f64 {
    const N: u64 = 100_000;
    let mut rec = Recorder::new(Instant::now(), true);
    let t0 = Instant::now();
    for i in 0..N {
        rec.time(i, "x", || std::hint::black_box(i));
    }
    t0.elapsed().as_secs_f64() / N as f64
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The directory of this executable (`target/<profile>`), where default
/// outputs go.
pub fn exe_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
}
