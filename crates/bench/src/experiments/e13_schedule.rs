//! E13 — Theorem 1 checked against the clock.
//!
//! Theorem 1's proof exhibits deadlines `s_t^{(k)}`: by time `s_t^{(0)}`
//! *every copy* of every pebble in guest row `t` has been computed. We
//! build the deadline table for the host's actual parameters (verifying
//! the paper's definitional identities), run OVERLAP's exact load-1
//! assignment timed (`Engine::run_timed` records every pebble's
//! completion tick), and compare the measured row-completion times
//! against the deadlines, row by row.

use crate::scale::Scale;
use crate::table::{f2, Table};
use overlap_core::overlap::plan_overlap;
use overlap_core::schedule::ScheduleTable;
use overlap_model::{GuestSpec, ProgramKind, ReferenceRun};
use overlap_net::topology::linear_array;
use overlap_net::DelayModel;
use overlap_sim::engine::{Engine, EngineConfig};
use overlap_sim::validate::validate_run;
use overlap_sim::Assignment;

/// Run the Theorem 1 deadline check.
pub fn run(scale: Scale) -> Table {
    let n = scale.pick(128u32, 512);
    let d = scale.pick(4u64, 8);
    let host = linear_array(n, DelayModel::constant(d), 0);
    let delays: Vec<u64> = host.links().iter().map(|l| l.delay).collect();
    let c = 4.0;
    let plan = plan_overlap(&delays, c, 1).expect("plan");
    let table = ScheduleTable::build(n, plan.kill.d_ave, c, 1.0);
    let violations = table.verify();

    // Execute the exact plan (guest = the plan's own slot count).
    let m0 = table.m[0].ceil() as u32;
    let steps = 2 * m0; // two rounds of the box B_0
    let guest = GuestSpec::array(plan.guest_cells, ProgramKind::Relaxation, 3, steps);
    let assignment = Assignment::from_cells_of(n, plan.guest_cells, plan.cells_of_position.clone());
    let out = Engine::new(&guest, &host, &assignment, EngineConfig::default())
        .run_timed()
        .expect("overlap run");
    let trace = ReferenceRun::execute(&guest);
    let valid = validate_run(&trace, &out).is_empty();
    let timing = out.timing.as_ref().expect("timing");

    let mut t = Table::new(
        format!("E13 · Theorem 1 deadlines vs measured (n = {n}, uniform d = {d})"),
        &[
            "guest row t",
            "measured completion",
            "deadline s_t⁰",
            "measured/deadline",
        ],
    );
    let sample_rows: Vec<u32> = [1u32, m0 / 4, m0 / 2, m0, m0 + m0 / 2, 2 * m0]
        .into_iter()
        .filter(|&r| r >= 1 && r <= steps)
        .collect();
    let mut worst = 0f64;
    for &row in &sample_rows {
        // Deadline: within a round, s_row; later rounds repeat the table.
        let round = (row - 1) / m0;
        let within = (row - 1) % m0 + 1;
        let deadline = table.box_deadline(0) * round as f64
            + table.rows[0][(within as usize - 1).min(table.rows[0].len() - 1)];
        let measured = timing.row_completion(row).expect("row within trace") as f64;
        worst = worst.max(measured / deadline);
        t.row(vec![
            row.to_string(),
            f2(measured),
            f2(deadline),
            format!("{:.2e}", measured / deadline),
        ]);
    }
    t.note(format!(
        "schedule identities verified: {} violations; every measured row completion is \
         within {worst:.2}× of the Theorem 1 deadline (≤ 1 means the greedy execution \
         beats the paper's schedule, as expected — the deadlines carry the proof's 2·D_k \
         slack per level); run validated: {valid}",
        violations.len()
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_times_respect_theorem_1_deadlines() {
        let t = run(Scale::Quick);
        let ratios = t.column_f64("measured/deadline");
        for r in &ratios {
            assert!(
                *r <= 1.0 + 1e-9,
                "a measured completion exceeded its Theorem 1 deadline: {ratios:?}"
            );
        }
        assert!(t.notes[0].contains("0 violations"));
        assert!(t.notes[0].contains("validated: true"));
    }
}
