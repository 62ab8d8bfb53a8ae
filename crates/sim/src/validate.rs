//! Full-run validation against the unit-delay reference.
//!
//! A simulation is only a simulation if "H performs the same step-by-step
//! computations as G" (§2). We check, for **every database copy**:
//!
//! * the order-sensitive fold of all computed pebble values equals the
//!   reference fold for that column (so every redundant copy computed the
//!   exact pebble sequence);
//! * the final database digest equals the reference's;
//! * the applied update log digest equals the reference's.

use crate::engine::RunOutcome;
use overlap_model::{fold64, PebbleId, ReferenceTrace};

/// A validation failure for one copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    /// The guest column.
    pub cell: u32,
    /// The holder processor.
    pub proc: u32,
    /// What mismatched.
    pub what: &'static str,
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} mismatch for column {} on processor {}",
            self.what, self.cell, self.proc
        )
    }
}

/// Validate a run against the reference trace. Returns all mismatches
/// (empty = valid).
pub fn validate_run(trace: &ReferenceTrace, out: &RunOutcome) -> Vec<ValidationError> {
    let steps = trace.spec.steps;
    // Precompute per-column reference value folds once.
    let cells = trace.spec.num_cells();
    let mut ref_fold = vec![0xF01Du64; cells as usize];
    for c in 0..cells {
        let mut f = 0xF01Du64;
        for t in 1..=steps {
            f = fold64(f, trace.grid.get(PebbleId::new(c, t)));
        }
        ref_fold[c as usize] = f;
    }
    let mut errors = Vec::new();
    for copy in &out.copies {
        if copy.value_fold != ref_fold[copy.cell as usize] {
            errors.push(ValidationError {
                cell: copy.cell,
                proc: copy.proc,
                what: "pebble values",
            });
        }
        if copy.db_digest != trace.final_db_digest[copy.cell as usize] {
            errors.push(ValidationError {
                cell: copy.cell,
                proc: copy.proc,
                what: "final database",
            });
        }
        if copy.update_fold != trace.update_log_digest[copy.cell as usize] {
            errors.push(ValidationError {
                cell: copy.cell,
                proc: copy.proc,
                what: "update log",
            });
        }
    }
    errors
}

/// Audit the causal structure of a timed run (`Engine::run_timed` or
/// `Engine::run_traced`): within every copy, steps complete strictly in
/// order, and globally, guest row `t` cannot complete anywhere before
/// some copy completed row `t−1` (values cannot exist before their
/// dependencies).
pub fn audit_causality(out: &RunOutcome) -> Vec<String> {
    let mut problems = Vec::new();
    let Some(timing) = out.timing.as_ref() else {
        return vec!["run has no timing trace (run it with Engine::run_timed)".into()];
    };
    let steps = out.stats.guest_steps as usize;
    // Per-copy monotonicity.
    for (i, ticks) in timing.ticks.iter().enumerate() {
        if ticks.len() != steps {
            problems.push(format!(
                "copy {i} recorded {} ticks, expected {steps}",
                ticks.len()
            ));
            continue;
        }
        for w in ticks.windows(2) {
            if w[1] <= w[0] {
                problems.push(format!(
                    "copy {i}: steps out of order ({} ≤ {})",
                    w[1], w[0]
                ));
                break;
            }
        }
    }
    // Global row ordering: the earliest completion of row t must come
    // strictly after the earliest completion of row t−1 (its dependency).
    let mut earliest = vec![u64::MAX; steps + 1];
    for ticks in &timing.ticks {
        for (t, &tick) in ticks.iter().enumerate() {
            let e = &mut earliest[t + 1];
            *e = (*e).min(tick);
        }
    }
    for t in 2..=steps {
        if earliest[t] <= earliest[t - 1] {
            problems.push(format!(
                "row {t} first completed at {} before row {} at {}",
                earliest[t],
                t - 1,
                earliest[t - 1]
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::Assignment;
    use crate::engine::{Engine, EngineConfig};
    use overlap_model::{GuestSpec, ProgramKind, ReferenceRun};
    use overlap_net::topology::linear_array;
    use overlap_net::DelayModel;

    #[test]
    fn valid_run_has_no_errors() {
        let guest = GuestSpec::array(10, ProgramKind::KvWorkload, 4, 8);
        let host = linear_array(3, DelayModel::uniform(1, 4), 2);
        let assign = Assignment::blocked(3, 10);
        let out = Engine::new(&guest, &host, &assign, EngineConfig::default())
            .run()
            .unwrap();
        let trace = ReferenceRun::execute(&guest);
        assert!(validate_run(&trace, &out).is_empty());
    }

    #[test]
    fn causality_audit_passes_for_real_runs_and_catches_corruption() {
        let guest = GuestSpec::array(8, ProgramKind::KvWorkload, 4, 10);
        let host = linear_array(3, DelayModel::uniform(1, 8), 2);
        let assign = Assignment::blocked(3, 8);
        let mut out = Engine::new(&guest, &host, &assign, EngineConfig::default())
            .run_timed()
            .unwrap();
        assert!(audit_causality(&out).is_empty());
        // Corrupt one copy's timing: step order violation must be caught.
        out.timing.as_mut().unwrap().ticks[0][3] = 0;
        assert!(!audit_causality(&out).is_empty());
    }

    #[test]
    fn causality_audit_requires_timing() {
        let guest = GuestSpec::array(4, ProgramKind::StencilSum, 0, 2);
        let host = linear_array(2, DelayModel::constant(1), 0);
        let assign = Assignment::blocked(2, 4);
        let out = crate::engine::Engine::new(&guest, &host, &assign, Default::default())
            .run()
            .unwrap();
        let problems = audit_causality(&out);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("no timing trace"));
    }

    #[test]
    fn corrupted_copy_is_detected() {
        let guest = GuestSpec::array(6, ProgramKind::Relaxation, 4, 5);
        let host = linear_array(2, DelayModel::constant(1), 0);
        let assign = Assignment::blocked(2, 6);
        let mut out = Engine::new(&guest, &host, &assign, EngineConfig::default())
            .run()
            .unwrap();
        out.copies[0].value_fold ^= 1;
        out.copies[2].db_digest ^= 1;
        let trace = ReferenceRun::execute(&guest);
        let errs = validate_run(&trace, &out);
        assert_eq!(errs.len(), 2);
        assert_eq!(errs[0].what, "pebble values");
        assert_eq!(errs[1].what, "final database");
    }

    #[test]
    fn wrong_seed_reference_rejects_everything() {
        let guest = GuestSpec::array(6, ProgramKind::KvWorkload, 4, 5);
        let host = linear_array(2, DelayModel::constant(1), 0);
        let assign = Assignment::blocked(2, 6);
        let out = Engine::new(&guest, &host, &assign, EngineConfig::default())
            .run()
            .unwrap();
        let mut other = guest.clone();
        other.seed = 5;
        let trace = ReferenceRun::execute(&other);
        let errs = validate_run(&trace, &out);
        assert!(!errs.is_empty());
    }
}
