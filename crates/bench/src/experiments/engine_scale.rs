//! Engine-scale benchmark: events/sec of the calendar-queue event engine
//! across growing scenario sizes.
//!
//! Before timing, each tier's timed event run is asserted equal to the
//! stepped oracle's run on the whole outcome, so every tier — the gate's
//! included — keeps a check by a second implementation. [`run`] returns
//! the markdown table and `BENCH_engine.json`: per scale, the event
//! engine's events/sec, the makespan, and the peak event-queue depth,
//! plus the host's core count.
//!
//! [`gate`] is the CI perf gate (`exp_all --gate`). It fails when:
//! - one of the first [`GATE_TIERS`] tiers of the checked-in
//!   `BENCH_engine.json` (16×64×64 to 512×8192×64, 1.13M events) no
//!   longer reproduces the events, makespan or peak queue depth that
//!   file publishes;
//! - the 64×256×32 grid tier or the task-graph tier (a non-uniform DAG
//!   guest through the dynamic-table event path) moves a counter pinned
//!   in `BENCH_engine_floor.json`, or its event throughput drops more
//!   than 30% below the floor there;
//! - the plan-reuse or delta-sweep speedup falls below
//!   `BENCH_plan_floor.json`;
//! - the quick task-graph grid fails validation or exceeds the makespan
//!   ceiling in `BENCH_taskgraph_floor.json`;
//! - one of four micro workloads (Fact 3 embedding, OVERLAP planning, the
//!   Theorem 4 pipeline, Theorem 7/8 mesh emulation) drops more than 30%
//!   below its floor in `BENCH_micro_floor.json`.
//!
//! Every throughput verdict prints its timed samples and the host's core
//! count, on a pass and on a failure alike.

use super::{time_samples, Output};
use crate::{Scale, Table};
use overlap_model::{GuestSpec, ProgramKind, TaskGraph};
use overlap_net::topology::linear_array;
use overlap_net::DelayModel;
use overlap_sim::engine::{Engine, EngineConfig, RunOutcome};
use overlap_sim::{run_stepped, Assignment, ExecPlan};

/// One measured scale.
pub struct ScaleResult {
    /// Host processors.
    pub procs: u32,
    /// Guest cells.
    pub cells: u32,
    /// Guest steps.
    pub steps: u32,
    /// Events dispatched per run.
    pub events: u64,
    /// Simulated makespan in ticks.
    pub makespan: u64,
    /// Peak pending events (memory-footprint proxy).
    pub peak_queue_depth: u64,
    /// Calendar-queue engine throughput, events per second: the best of
    /// [`samples`](Self::samples).
    pub events_per_sec: f64,
    /// Throughput of each timed run, events per second.
    pub samples: Vec<f64>,
}

fn scenario(procs: u32, cells: u32, steps: u32) -> (GuestSpec, overlap_net::HostGraph, Assignment) {
    let guest = GuestSpec::array(cells, ProgramKind::Relaxation, 3, steps);
    let host = linear_array(procs, DelayModel::uniform(1, 7), 5);
    let assign = Assignment::blocked(procs, cells);
    (guest, host, assign)
}

/// Run the sweep and return per-scale results.
pub fn measure(scale: Scale) -> Vec<ScaleResult> {
    let scales: &[(u32, u32, u32)] = match scale {
        Scale::Quick => &[(16, 64, 32), (32, 128, 32), (64, 256, 32)],
        Scale::Full => &[
            (16, 64, 64),
            (64, 256, 128),
            (128, 1024, 128),
            (256, 2048, 128),
            (512, 8192, 64),
            // The million-cell tier: ~8.4M events per run.
            (1024, 1 << 20, 8),
        ],
    };
    let reps = scale.pick(3, 5);
    scales
        .iter()
        .map(|&(procs, cells, steps)| measure_tier(procs, cells, steps, reps))
        .collect()
}

/// Lower one tier, assert its timed event run equal to the stepped
/// oracle's, then time `reps` plain runs (`reps = 0` only checks).
fn measure_tier(procs: u32, cells: u32, steps: u32, reps: u32) -> ScaleResult {
    let (guest, host, assign) = scenario(procs, cells, steps);
    let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).expect("lower");
    let out = Engine::from_plan(&plan).run_timed().expect("run");
    assert_eq!(
        out,
        run_stepped(&plan).expect("stepped run"),
        "engines diverge at {procs}x{cells}x{steps}"
    );
    let events = out.stats.events_processed;
    // Keep the giant tiers affordable: above a million events per run the
    // best-of window shrinks to 2.
    let reps = if events > 1_000_000 {
        reps.min(2)
    } else {
        reps
    };
    let samples = per_sec(
        events as f64,
        &time_samples(reps, || -> RunOutcome {
            Engine::from_plan(&plan).run().expect("run")
        }),
    );
    ScaleResult {
        procs,
        cells,
        steps,
        events,
        makespan: out.stats.makespan,
        peak_queue_depth: out.stats.peak_queue_depth,
        events_per_sec: samples.iter().copied().fold(0.0, f64::max),
        samples,
    }
}

/// Work per second of each timed sample, for `work` units per sample.
fn per_sec(work: f64, secs: &[f64]) -> Vec<f64> {
    secs.iter().map(|t| work / t).collect()
}

/// Physical parallelism of the machine the numbers were taken on.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Render the results as `BENCH_engine.json` (hand-rolled; the bench crate
/// carries no JSON dependency).
pub fn to_json(results: &[ScaleResult]) -> String {
    let mut out = format!(
        "{{\n  \"benchmark\": \"engine_scale\",\n  \"host_cores\": {},\n  \"scales\": [\n",
        host_cores()
    );
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"procs\": {}, \"cells\": {}, \"steps\": {}, \"events\": {}, \"makespan\": {}, \"peak_queue_depth\": {}, \"events_per_sec\": {:.0}}}{}\n",
            r.procs,
            r.cells,
            r.steps,
            r.events,
            r.makespan,
            r.peak_queue_depth,
            r.events_per_sec,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The experiment: measure, and return the table and `BENCH_engine.json`.
pub fn run(scale: Scale) -> Output {
    let results = measure(scale);

    let mut t = Table::new(
        "ENGINE · calendar-queue engine throughput",
        &["procs", "cells", "events", "peak queue", "events/s (event)"],
    );
    for r in &results {
        t.row(vec![
            r.procs.to_string(),
            r.cells.to_string(),
            r.events.to_string(),
            r.peak_queue_depth.to_string(),
            format!("{:.0}", r.events_per_sec),
        ]);
    }
    t.note(format!(
        "each timed event run is asserted equal to the stepped oracle's before timing, \
         peak_queue_depth included; events/s is the event engine's, measured on a \
         {}-core host.",
        host_cores()
    ));
    Output {
        table: t,
        bench: Some(("BENCH_engine.json", to_json(&results))),
    }
}

/// Extract `"key": <number>` from hand-rolled JSON: the first match.
fn json_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// How many of `BENCH_engine.json`'s tiers the gate re-runs: all but the
/// million-cell tier, whose 8.4M events only full runs afford.
pub const GATE_TIERS: usize = 5;

/// The counters a tier pins, in [`counters`] order.
const COUNTERS: [&str; 3] = ["events", "makespan", "peak_queue_depth"];

fn counters(r: &ScaleResult) -> [u64; 3] {
    [r.events, r.makespan, r.peak_queue_depth]
}

/// The numbers under the keys `{prefix}{name}` in `json`.
fn fields<const N: usize>(json: &str, prefix: &str, names: [&str; N]) -> Result<[f64; N], String> {
    let mut out = [0.0; N];
    for (slot, name) in out.iter_mut().zip(names) {
        *slot = json_number(json, &format!("{prefix}{name}"))
            .ok_or(format!("missing {prefix}{name}"))?;
    }
    Ok(out)
}

/// A tier of `BENCH_engine.json`: its `[procs, cells, steps]` and its
/// pinned counters.
type Tier = ([u32; 3], [f64; 3]);

/// The tiers of a `BENCH_engine.json`, in file order.
fn published_tiers(json: &str) -> Result<Vec<Tier>, String> {
    json.split("{\"procs\"")
        .skip(1)
        .map(|rest| {
            let tier = format!("{{\"procs\"{rest}");
            let dims = fields(&tier, "", ["procs", "cells", "steps"])?;
            Ok((dims.map(|d| d as u32), fields(&tier, "", COUNTERS)?))
        })
        .collect()
}

/// A pin verdict: every counter of `tier` must equal its pin.
fn pin_verdict(tier: &str, got: [u64; 3], pins: [f64; 3]) -> (bool, String) {
    let pins = pins.map(|p| p as u64);
    let line = format!("{tier}: {} {got:?}, pinned {pins:?}", COUNTERS.join("/"));
    (got == pins, line)
}

/// The gate's task-graph tier: a non-uniform layered-random DAG guest,
/// which forces the event engine down the dynamic per-(cell,step) table
/// path instead of the static uniform tables the grid tier exercises.
/// Returns the run's [`COUNTERS`] and the events/sec of each timed run.
fn measure_taskgraph_tier(reps: u32) -> ([u64; 3], Vec<f64>) {
    let guest = GuestSpec::dag(
        TaskGraph::layered_random(256, 32, 2, 3, 7),
        ProgramKind::KvWorkload,
        3,
    );
    let host = linear_array(64, DelayModel::uniform(1, 7), 5);
    let assign = Assignment::blocked(64, guest.topology.num_cells());
    let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).expect("lower");
    let run = || -> RunOutcome { Engine::from_plan(&plan).run().expect("run") };
    let s = run().stats;
    let samples = per_sec(s.events_processed as f64, &time_samples(reps, run));
    (
        [s.events_processed, s.makespan, s.peak_queue_depth],
        samples,
    )
}

/// The gate's micro workloads, one per hot path below the engine:
/// embedding, overlap planning, and the Theorem 4 and mesh pipelines.
/// Returns each workload's operations per second, per timed sample.
fn measure_micro(reps: u32) -> Vec<(&'static str, Vec<f64>)> {
    use overlap_core::overlap::plan_overlap;
    use overlap_core::pipeline::Strategy;
    use overlap_core::Simulation;
    use overlap_model::ReferenceRun;
    use overlap_net::embed::embed_linear_array;
    use overlap_net::topology::mesh2d;

    let mut out = Vec::new();
    // Fact 3 embedding on the 32x32 mesh host. Fast per call, so batch
    // enough iterations for a stable sample.
    let embed_host = mesh2d(32, 32, DelayModel::uniform(1, 9), 1);
    let iters = 64u32;
    let t = time_samples(reps, || {
        for _ in 0..iters {
            std::hint::black_box(embed_linear_array(&embed_host));
        }
    });
    out.push(("embed_mesh32x32", per_sec(iters as f64, &t)));
    // Interval-tree kill/label + recursive database assignment over 4096
    // heavy-tail delays.
    let overlap_host = linear_array(
        4096,
        DelayModel::HeavyTail {
            min: 1,
            alpha: 0.8,
            cap: 1 << 20,
        },
        7,
    );
    let delays: Vec<u64> = overlap_host.links().iter().map(|l| l.delay).collect();
    let iters = 8u32;
    let t = time_samples(reps, || {
        for _ in 0..iters {
            std::hint::black_box(plan_overlap(&delays, 4.0, 1).expect("plan"));
        }
    });
    out.push(("overlap_plan_4096", per_sec(iters as f64, &t)));
    // The Theorem 4 halo-1 scenario (n=16, d=64), builder included — this
    // is the whole user-facing pipeline.
    let d = 64u64;
    let n = 16u32;
    let r = (d as f64).sqrt() as u32;
    let t4_guest = GuestSpec::array(n * r, ProgramKind::Relaxation, 9, 4 * r);
    let t4_trace = ReferenceRun::execute(&t4_guest);
    let t4_host = linear_array(n, DelayModel::constant(d), 0);
    let t = time_samples(reps, || {
        Simulation::of(&t4_guest)
            .on(&t4_host)
            .strategy(Strategy::Halo { halo: 1 })
            .build()
            .and_then(|sim| sim.run_with_trace(&t4_trace))
            .expect("theorem4 run")
    });
    out.push(("theorem4_halo1", per_sec(1.0, &t)));
    // Theorem 7/8 emulation of an 8x8 guest mesh on the 8-processor
    // linear host.
    let mesh_guest = GuestSpec::mesh(8, 8, ProgramKind::Relaxation, 3, 12);
    let mesh_trace = ReferenceRun::execute(&mesh_guest);
    let mesh_host = linear_array(8, DelayModel::uniform(1, 5), 3);
    let t = time_samples(reps, || {
        Simulation::of(&mesh_guest)
            .on(&mesh_host)
            .build()
            .and_then(|sim| sim.run_with_trace(&mesh_trace))
            .expect("mesh run")
    });
    out.push(("mesh_trace_8x8", per_sec(1.0, &t)));
    out
}

/// Read a checked-in file at the workspace root.
fn read_root(file: &str) -> Result<String, String> {
    let path = crate::workspace_root().join(file);
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Read one numeric field of a checked-in floor file.
fn floor_field(file: &str, key: &str) -> Result<f64, String> {
    json_number(&read_root(file)?, key).ok_or_else(|| format!("{file} missing {key}"))
}

/// A throughput verdict: the best of `samples` must reach 70% of `floor`.
fn throughput_verdict(name: &str, unit: &str, samples: &[f64], floor: f64) -> (bool, String) {
    let best = samples.iter().copied().fold(0.0, f64::max);
    let shown: Vec<String> = samples.iter().map(|s| format!("{s:.0}")).collect();
    let line = format!(
        "{name}: best {best:.0} {unit}/s of samples [{}] on {} cores; floor {floor:.0}, \
         fails below {:.0}",
        shown.join(", "),
        host_cores(),
        floor * 0.70,
    );
    (best >= floor * 0.70, line)
}

/// The CI perf gate (see the module docs for what it checks). Returns
/// one line per verdict, each marked `ok` or `FAILED`: all of them on a
/// pass and on a failure alike.
pub fn gate() -> Result<String, String> {
    let mut verdicts = Vec::new();

    // The grid and task-graph tiers, timed first in a fresh process as
    // before: pinned counters and throughput floors.
    let floor = read_root("BENCH_engine_floor.json")?;
    let grid = measure_tier(64, 256, 32, 3);
    let (tg, tg_samples) = measure_taskgraph_tier(3);
    for (tier, got, samples) in [
        ("grid", counters(&grid), &grid.samples),
        ("taskgraph", tg, &tg_samples),
    ] {
        let pins = fields(&floor, &format!("{tier}_"), COUNTERS)
            .map_err(|e| format!("BENCH_engine_floor.json: {e}"))?;
        verdicts.push(pin_verdict(&format!("{tier} tier"), got, pins));
        let key = if tier == "grid" { "event" } else { tier };
        let f = floor_field("BENCH_engine_floor.json", &format!("{key}_events_per_sec"))?;
        verdicts.push(throughput_verdict(
            &format!("{tier} tier"),
            "events",
            samples,
            f,
        ));
    }

    // The published tiers: deterministic counters, no tolerance. Each run
    // is first asserted equal to the stepped oracle's.
    let tiers = published_tiers(&read_root("BENCH_engine.json")?)
        .map_err(|e| format!("BENCH_engine.json: {e}"))?;
    for &([procs, cells, steps], pins) in tiers.iter().take(GATE_TIERS) {
        let r = measure_tier(procs, cells, steps, 0);
        let tier = format!("BENCH_engine.json tier {procs}x{cells}x{steps}");
        verdicts.push(pin_verdict(&tier, counters(&r), pins));
    }

    // Plan-reuse / delta-sweep ratio floors: both arms of each ratio are
    // timed in the same process, so the speedups are machine-independent
    // and checked without tolerance.
    let f_reuse = floor_field("BENCH_plan_floor.json", "reuse_min_speedup")?;
    let f_delta = floor_field("BENCH_plan_floor.json", "delta_min_speedup")?;
    let reuse = super::plan_reuse::measure(Scale::Quick);
    let reuse = reuse.iter().map(|p| p.speedup()).fold(0.0, f64::max);
    let delta = super::plan_reuse::measure_delta(Scale::Quick).speedup();
    verdicts.push((
        reuse >= f_reuse,
        format!("plan reuse: best speedup {reuse:.2}x, floor {f_reuse:.2}x"),
    ));
    verdicts.push((
        delta >= f_delta,
        format!("delta sweep: speedup {delta:.2}x, floor {f_delta:.2}x"),
    ));

    // Task-graph makespan ceilings: the quick grid is deterministic, so
    // the checked-in totals must be reproduced exactly (improvements —
    // lower makespans — pass).
    let f_cases = floor_field("BENCH_taskgraph_floor.json", "cases")? as usize;
    let f_span = floor_field("BENCH_taskgraph_floor.json", "total_makespan_ceiling")? as u64;
    let cases = super::task_graphs::measure(Scale::Quick);
    let invalid: Vec<String> = cases
        .iter()
        .filter(|c| !c.validated)
        .map(|c| format!("{}/{}/{}/{}", c.graph, c.regime, c.budget, c.strategy))
        .collect();
    let span: u64 = cases.iter().map(|c| c.makespan).sum();
    verdicts.push((
        cases.len() == f_cases && invalid.is_empty() && span <= f_span,
        format!(
            "task-graph grid: {} cases (expects {f_cases}), failing validation {invalid:?}, \
             total makespan {span} (ceiling {f_span})",
            cases.len()
        ),
    ));

    // Micro workloads: same 30% tolerance as the engine tiers, floors in
    // BENCH_micro_floor.json keyed `<name>_ops_per_sec`.
    for (name, samples) in measure_micro(3) {
        let f = floor_field("BENCH_micro_floor.json", &format!("{name}_ops_per_sec"))?;
        verdicts.push(throughput_verdict(
            &format!("micro {name}"),
            "ops",
            &samples,
            f,
        ));
    }

    let passed = verdicts.iter().all(|(pass, _)| *pass);
    let report: Vec<String> = verdicts
        .into_iter()
        .map(|(pass, line)| format!("{} {line}", if pass { "ok    " } else { "FAILED" }))
        .collect();
    if passed {
        Ok(report.join("\n"))
    } else {
        Err(report.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_and_engines_agree() {
        let results = measure(Scale::Quick);
        assert!(results.len() >= 3);
        let json = to_json(&results);
        assert!(json.contains("\"events_per_sec\""));
        assert!(json.contains("\"host_cores\""));
        assert_eq!(json.matches("{\"procs\"").count(), results.len());
        for r in &results {
            assert!(r.events > 0 && r.events_per_sec > 0.0);
            assert_eq!(r.samples.len(), 3);
        }
        let tiers = published_tiers(&json).expect("own JSON parses");
        for (r, (dims, want)) in results.iter().zip(&tiers) {
            assert_eq!(*dims, [r.procs, r.cells, r.steps]);
            assert!(pin_verdict("t", counters(r), *want).0);
        }
    }

    #[test]
    fn micro_smoke_measures_each_hot_path() {
        let micro = measure_micro(1);
        let names: Vec<&str> = micro.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "embed_mesh32x32",
                "overlap_plan_4096",
                "theorem4_halo1",
                "mesh_trace_8x8"
            ]
        );
        for (name, samples) in &micro {
            assert!(samples[0] > 0.0, "{name} measured no throughput");
        }
    }

    /// Moving any counter of any gated tier by ±1 in the checked-in
    /// `BENCH_engine.json` fails its verdict; the file as it stands passes.
    #[test]
    fn every_gated_pin_catches_an_off_by_one() {
        let json = read_root("BENCH_engine.json").expect("BENCH_engine.json");
        let tiers = published_tiers(&json).expect("parses");
        assert!(tiers.len() > GATE_TIERS);
        let lines: Vec<&str> = json.lines().collect();
        let tier_lines: Vec<usize> = (0..lines.len())
            .filter(|&n| lines[n].contains("{\"procs\""))
            .collect();
        for (i, &(_, pins)) in tiers.iter().take(GATE_TIERS).enumerate() {
            let measured = pins.map(|v| v as u64);
            assert!(pin_verdict("t", measured, pins).0);
            for (name, want) in COUNTERS.into_iter().zip(measured) {
                for moved in [want + 1, want - 1] {
                    let mut edited: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
                    edited[tier_lines[i]] = lines[tier_lines[i]].replace(
                        &format!("\"{name}\": {want},"),
                        &format!("\"{name}\": {moved},"),
                    );
                    assert_ne!(edited[tier_lines[i]], lines[tier_lines[i]]);
                    let pins = published_tiers(&edited.join("\n")).expect("parses")[i].1;
                    let (pass, _) = pin_verdict("t", measured, pins);
                    assert!(!pass, "tier {i}: {name} {want} -> {moved} went unnoticed");
                }
            }
        }
    }

    #[test]
    fn json_number_parses_hand_rolled_floor() {
        let j = "{\"event_events_per_sec\": 123456, \"taskgraph_events_per_sec\": 7.5}";
        assert_eq!(json_number(j, "event_events_per_sec"), Some(123456.0));
        assert_eq!(json_number(j, "taskgraph_events_per_sec"), Some(7.5));
        assert_eq!(json_number(j, "missing"), None);
    }
}
