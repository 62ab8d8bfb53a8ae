//! In-process paths through the library's public API, each call timed as
//! one layer span.

use crate::trace::Recorder;
use overlap_core::ScenarioSpec;
use overlap_model::{ReferenceRun, ReferenceTrace};
use overlap_sim::validate::validate_run;
use overlap_sim::{Engine, ExecPlan, PlanDelta, RunStats};
use std::collections::HashMap;
use std::time::Instant;

/// What one op hands back: the engine statistics of a validated run, and
/// the instant the validated result was in hand (the op's end; dropping
/// the op's state afterwards is not timed).
pub struct Done {
    pub stats: RunStats,
    pub end: Instant,
}

/// The library user's path: decode the scenario JSON, plan it, lower it,
/// compute the unit-delay reference, run the engine and validate. The root
/// span `op` must already be open on `rec`; it is closed here.
pub fn cold_op(json: &str, rec: &mut Recorder, op: u64) -> Result<Done, String> {
    let spec: ScenarioSpec = rec
        .time(op, "core.decode", || serde_json::from_str(json))
        .map_err(|e| format!("decode: {e}"))?;
    let ready = rec
        .time(op, "core.build", || spec.ready())
        .map_err(|e| format!("build: {e}"))?;
    let plan = rec
        .time(op, "sim.lower", || ready.build_plan())
        .map_err(|e| format!("lower: {e}"))?;
    let reference = rec.time(op, "model.reference", || ReferenceRun::execute(&spec.guest));
    let outcome = rec
        .time(op, "sim.engine", || ready.run_plan(&plan))
        .map_err(|e| format!("engine: {e}"))?;
    let mismatches = rec
        .time(op, "sim.validate", || validate_run(&reference, &outcome))
        .len();
    let end = Instant::now();
    rec.end(end);
    if mismatches > 0 {
        return Err(format!("{mismatches} database copies failed validation"));
    }
    Ok(Done {
        stats: outcome.stats,
        end,
    })
}

/// Stats of a fresh, fully in-process run of `spec` (its own lowering,
/// faults and costs compiled in) — the reference the daemon's results are
/// checked against.
pub fn fresh_stats(spec: &ScenarioSpec) -> Result<RunStats, String> {
    let report = spec
        .ready()
        .and_then(|r| r.run())
        .map_err(|e| e.to_string())?;
    if !report.validated {
        return Err(format!(
            "{} database copies failed validation",
            report.mismatches
        ));
    }
    Ok(report.stats)
}

/// The daemon's work on one submission, replayed in-process with the same
/// public calls and the same plan-cache policy: admission keys the spec, a
/// miss plans, lowers and computes the reference, a hit applies the
/// fault / cost variant to the cached base plan as a delta, then the
/// engine runs, the result is validated and the delta is undone.
#[derive(Default)]
pub struct Replay {
    cache: HashMap<String, (ExecPlan<'static>, ReferenceTrace)>,
}

impl Replay {
    /// Replay one submission. The root span must already be open on `rec`;
    /// it is closed here.
    pub fn op(&mut self, json: &str, rec: &mut Recorder, op: u64) -> Result<Done, String> {
        let spec: ScenarioSpec = rec
            .time(op, "core.decode", || serde_json::from_str(json))
            .map_err(|e| format!("decode: {e}"))?;
        let key = rec
            .time(op, "core.plan_key", || spec.plan_key())
            .map_err(|e| format!("admission: {e}"))?;
        if !self.cache.contains_key(&key) {
            let ready = rec
                .time(op, "core.build", || spec.ready())
                .map_err(|e| format!("build: {e}"))?;
            let plan = rec
                .time(op, "sim.lower", || {
                    ExecPlan::build_owned(
                        spec.guest.clone(),
                        spec.host.clone(),
                        ready.assignment().clone(),
                        spec.config,
                    )
                })
                .map_err(|e| format!("lower: {e}"))?;
            let reference = rec.time(op, "model.reference", || ReferenceRun::execute(&spec.guest));
            self.cache.insert(key.clone(), (plan, reference));
        }
        let (plan, reference) = self.cache.get_mut(&key).expect("inserted above");
        let mut deltas = Vec::new();
        if let Some(f) = &spec.faults {
            deltas.push(PlanDelta::Faults(Some(f.clone())));
        }
        if let Some(c) = &spec.compute_costs {
            deltas.push(PlanDelta::ComputeCosts(Some(c.clone())));
        }
        let inverses = rec
            .time(op, "sim.delta", || {
                deltas
                    .into_iter()
                    .map(|d| plan.apply_delta(d).map(|applied| applied.inverse))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| format!("delta: {e}"))?;
        let outcome = rec.time(op, "sim.engine", || Engine::from_plan(plan).run());
        let mismatches = outcome
            .as_ref()
            .map(|o| {
                rec.time(op, "sim.validate", || validate_run(reference, o))
                    .len()
            })
            .map_err(|e| format!("engine: {e}"));
        rec.time(op, "sim.delta", || {
            for inverse in inverses.into_iter().rev() {
                plan.apply_delta(inverse)
                    .expect("an inverse delta re-applies");
            }
        });
        let end = Instant::now();
        rec.end(end);
        match mismatches? {
            0 => Ok(Done {
                stats: outcome.expect("the engine run succeeded").stats,
                end,
            }),
            n => Err(format!("{n} database copies failed validation")),
        }
    }
}
