//! Fault tolerance: OVERLAP's graceful degradation vs the single-copy
//! baseline, as a function of link downtime.
//!
//! Seeded random link outages (via [`FaultPlan::with_random_outages`]) are
//! injected at growing downtime fractions. OVERLAP's replicated databases
//! mean a downed route only costs retries — the run completes and still
//! validates bit-exactly against the unit-delay reference. The blocked
//! single-copy placement has no redundancy: the same outage schedule
//! stalls it far longer (every lost transfer blocks the only holder of
//! the destination column), and a processor crash loses its columns
//! outright — the run aborts with `ColumnLost`, while OVERLAP reroutes
//! the orphaned subscriptions to surviving copies and finishes.
//!
//! Results land in the markdown table **and** in `BENCH_faults.json` at
//! the workspace root: per downtime fraction, slowdown inflation, retry
//! and stall counts for both placements, plus the crash scenario.

use super::Output;
use crate::{Scale, Table};
use overlap_core::pipeline::Strategy;
use overlap_core::{Error, Simulation};
use overlap_model::{GuestSpec, ProgramKind, ReferenceRun};
use overlap_net::topology::linear_array;
use overlap_net::{DelayModel, HostGraph};
use overlap_sim::engine::RunError;
use overlap_sim::{FaultPlan, FaultStats};

/// One placement's behaviour under one fault schedule.
pub struct Arm {
    /// `makespan / guest_steps`, or `None` if the run aborted.
    pub slowdown: Option<f64>,
    /// Slowdown relative to the same placement's fault-free run.
    pub inflation: Option<f64>,
    /// Engine fault counters (zeroed on abort).
    pub faults: FaultStats,
    /// Did every surviving copy validate against the reference?
    pub validated: bool,
    /// The abort error, when the run did not complete.
    pub abort: Option<String>,
}

/// One downtime fraction: OVERLAP vs the single-copy blocked baseline.
pub struct FaultRow {
    /// Per-link downtime fraction, percent.
    pub downtime_pct: u32,
    /// OVERLAP (redundant copies).
    pub overlap: Arm,
    /// Blocked (exactly one copy per database).
    pub baseline: Arm,
}

fn run_arm(
    guest: &GuestSpec,
    host: &HostGraph,
    strategy: Strategy,
    faults: Option<FaultPlan>,
    clean_slowdown: f64,
    trace: &overlap_model::ReferenceTrace,
) -> Arm {
    let mut builder = Simulation::of(guest).on(host).strategy(strategy);
    if let Some(plan) = faults {
        builder = builder.faults(plan);
    }
    match builder.build().and_then(|sim| sim.run_with_trace(trace)) {
        Ok(r) => Arm {
            slowdown: Some(r.stats.slowdown),
            inflation: Some(r.stats.slowdown / clean_slowdown),
            faults: r.stats.faults,
            validated: r.validated,
            abort: None,
        },
        Err(Error::Run(e)) => Arm {
            slowdown: None,
            inflation: None,
            faults: FaultStats::default(),
            validated: false,
            abort: Some(match e {
                RunError::ColumnLost { cell, tick } => {
                    format!("ColumnLost{{cell {cell}, tick {tick}}}")
                }
                other => other.to_string(),
            }),
        },
        Err(e) => panic!("planning failed: {e}"),
    }
}

/// The measured sweep: downtime fractions plus the crash scenario
/// (encoded as the final row, `downtime_pct == CRASH_ROW`).
pub const CRASH_ROW: u32 = u32::MAX;

/// Run the sweep and return one row per downtime fraction, then the
/// crash row.
pub fn measure(scale: Scale) -> Vec<FaultRow> {
    let (procs, cells, steps) = scale.pick((12, 48, 40), (16, 96, 64));
    // A NOW: mostly fast local links, a few slow wide-area hops — the
    // regime where the paper's redundant placements replicate databases
    // across the slow boundaries.
    let dm = DelayModel::Bimodal {
        lo: 1,
        hi: scale.pick(120, 200),
        p_hi: 0.2,
    };
    let host = linear_array(procs, dm, 9);
    let guest = GuestSpec::array(cells, ProgramKind::KvWorkload, 7, steps);
    let trace = ReferenceRun::execute(&guest);

    let clean = |strategy: Strategy| -> f64 {
        Simulation::of(&guest)
            .on(&host)
            .strategy(strategy)
            .build()
            .and_then(|s| s.run_with_trace(&trace))
            .expect("clean run")
            .stats
            .slowdown
    };
    // Theorem 5's combined strategy is the OVERLAP composition that
    // actually replicates at lab scale (pure OVERLAP's interval overlap
    // vanishes at a dozen processors).
    let overlap_strat = Strategy::Combined {
        c: 4.0,
        expansion: 2,
    };
    let clean_overlap = clean(overlap_strat);
    let clean_blocked = clean(Strategy::Blocked);
    // Outages must actually intersect the *redundant* run — scale the
    // horizon to its fault-free makespan (with slack for degradation).
    // The baseline runs longer still, so it sees at least this exposure.
    let horizon = (clean_overlap * steps as f64 * 6.0) as u64;
    let mean_outage = (horizon / 24).max(8);

    let mut rows: Vec<FaultRow> = [0u32, 5, 10, 20, 30]
        .iter()
        .map(|&pct| {
            let plan = (pct > 0).then(|| {
                FaultPlan::new().with_random_outages(
                    &host,
                    77,
                    pct as f64 / 100.0,
                    mean_outage,
                    horizon,
                )
            });
            FaultRow {
                downtime_pct: pct,
                overlap: run_arm(
                    &guest,
                    &host,
                    overlap_strat,
                    plan.clone(),
                    clean_overlap,
                    &trace,
                ),
                baseline: run_arm(
                    &guest,
                    &host,
                    Strategy::Blocked,
                    plan,
                    clean_blocked,
                    &trace,
                ),
            }
        })
        .collect();

    // Crash scenario: kill one processor a third of the way into the
    // clean makespan. The victim must be a processor whose every column
    // has a surviving copy, so the redundant placement can recover; the
    // single-copy baseline loses the columns no matter whom we kill.
    // OVERLAP's interval overlap only replicates boundary columns, so if
    // no processor is fully covered we fall back to the block-wide halo
    // placement, which doubly covers everything.
    let find_victim = |assign: &overlap_sim::Assignment| {
        (0..procs).find(|&p| {
            !assign.cells_of(p).is_empty()
                && assign
                    .cells_of(p)
                    .iter()
                    .all(|&c| assign.holders(c).len() >= 2)
        })
    };
    let planned = Simulation::of(&guest)
        .on(&host)
        .strategy(overlap_strat)
        .build()
        .expect("plan");
    let (crash_strat, victim) = match find_victim(planned.assignment()) {
        Some(v) => (overlap_strat, v),
        None => {
            let halo = Strategy::Halo {
                halo: cells.div_ceil(procs),
            };
            let p = Simulation::of(&guest)
                .on(&host)
                .strategy(halo)
                .build()
                .expect("plan halo");
            let v = find_victim(p.assignment())
                .expect("a block-wide halo doubly covers every processor");
            (halo, v)
        }
    };
    let clean_crash = if crash_strat == overlap_strat {
        clean_overlap
    } else {
        clean(crash_strat)
    };
    // The crash must land while *both* placements are still running.
    let crash_at = (clean_crash.min(clean_blocked) * steps as f64 / 3.0).max(2.0) as u64;
    let plan = FaultPlan::new().crash(victim, crash_at);
    rows.push(FaultRow {
        downtime_pct: CRASH_ROW,
        overlap: run_arm(
            &guest,
            &host,
            crash_strat,
            Some(plan.clone()),
            clean_crash,
            &trace,
        ),
        baseline: run_arm(
            &guest,
            &host,
            Strategy::Blocked,
            Some(plan),
            clean_blocked,
            &trace,
        ),
    });
    rows
}

fn json_arm(a: &Arm) -> String {
    match (&a.abort, a.slowdown) {
        (Some(err), _) => format!(
            "{{\"completed\": false, \"abort\": \"{err}\", \"validated\": false}}"
        ),
        (None, Some(s)) => format!(
            "{{\"completed\": true, \"slowdown\": {:.2}, \"inflation\": {:.2}, \"retries\": {}, \"rerouted_subscriptions\": {}, \"fault_stall_ticks\": {}, \"crashed_procs\": {}, \"lost_copies\": {}, \"validated\": {}}}",
            s,
            a.inflation.unwrap_or(1.0),
            a.faults.retries,
            a.faults.rerouted_subscriptions,
            a.faults.fault_stall_ticks,
            a.faults.crashed_procs,
            a.faults.lost_copies,
            a.validated
        ),
        _ => unreachable!("completed runs carry a slowdown"),
    }
}

/// Render the sweep as `BENCH_faults.json`.
pub fn to_json(rows: &[FaultRow]) -> String {
    let mut out = String::from(
        "{\n  \"benchmark\": \"fault_tolerance\",\n  \"baseline\": \"blocked single-copy placement, same fault schedule\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        let scenario = if r.downtime_pct == CRASH_ROW {
            "\"crash\"".to_string()
        } else {
            format!("{}", r.downtime_pct)
        };
        out.push_str(&format!(
            "    {{\"downtime_pct\": {}, \"overlap\": {}, \"single_copy\": {}}}{}\n",
            scenario,
            json_arm(&r.overlap),
            json_arm(&r.baseline),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn fmt_arm(a: &Arm) -> (String, String) {
    match (&a.abort, a.slowdown) {
        (Some(err), _) => ("ABORT".into(), err.clone()),
        (None, Some(s)) => (
            format!("{s:.2} ({:.2}x)", a.inflation.unwrap_or(1.0)),
            format!(
                "{} retries, {} rerouted, {} stall",
                a.faults.retries, a.faults.rerouted_subscriptions, a.faults.fault_stall_ticks
            ),
        ),
        _ => unreachable!(),
    }
}

/// The experiment: measure, and return the table and `BENCH_faults.json`.
pub fn run(scale: Scale) -> Output {
    let rows = measure(scale);

    let mut t = Table::new(
        "FAULTS · OVERLAP graceful degradation vs single-copy baseline",
        &[
            "scenario",
            "overlap slowdown",
            "overlap recovery",
            "overlap ok",
            "1-copy slowdown",
            "1-copy recovery",
        ],
    );
    for r in &rows {
        let (os, orec) = fmt_arm(&r.overlap);
        let (bs, brec) = fmt_arm(&r.baseline);
        let scenario = if r.downtime_pct == CRASH_ROW {
            "proc crash".into()
        } else {
            format!("{}% downtime", r.downtime_pct)
        };
        t.row(vec![
            scenario,
            os,
            orec,
            format!("{}", r.overlap.validated),
            bs,
            brec,
        ]);
    }
    t.note(
        "seeded random link outages (identical schedule for both placements); slowdown \
         inflation is vs the same placement's fault-free run. OVERLAP's redundant copies \
         turn outages into retries and a crash into re-subscription to surviving holders; \
         the single-copy baseline stalls on every outage and aborts (ColumnLost) on the \
         crash.",
    );
    Output {
        table: t,
        bench: Some(("BENCH_faults.json", to_json(&rows))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_survives_what_kills_the_single_copy_baseline() {
        let rows = measure(Scale::Quick);
        assert_eq!(rows.len(), 6);
        // Every OVERLAP arm completes and validates, outages included.
        for r in &rows {
            assert!(r.overlap.validated, "scenario {}", r.downtime_pct);
            assert!(r.overlap.abort.is_none());
        }
        // ≥10% downtime: OVERLAP still validates while paying retries.
        let ten = rows.iter().find(|r| r.downtime_pct == 10).unwrap();
        assert!(ten.overlap.faults.retries > 0);
        // The crash aborts the single-copy baseline but not OVERLAP.
        let crash = rows.last().unwrap();
        assert_eq!(crash.downtime_pct, CRASH_ROW);
        assert!(crash
            .baseline
            .abort
            .as_deref()
            .unwrap_or("")
            .contains("ColumnLost"));
        assert!(crash.overlap.faults.rerouted_subscriptions > 0);
        let json = to_json(&rows);
        assert!(json.contains("\"crash\""));
        assert!(json.contains("ColumnLost"));
    }
}
