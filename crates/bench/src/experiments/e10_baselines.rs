//! E10 — the §1 baseline comparison: who wins, by what factor, in the
//! regime `d_max ≫ √d_ave·log³n` where the paper says its slowdown "is
//! particularly impressive".
//!
//! Hosts: spike-delay lines with `d_ave` pinned ≈ 2 and `d_max` swept.
//! Strategies: lockstep (the closed form `load + d_max` per step, read
//! off the blocked run's report), blocked, complementary slackness,
//! OVERLAP and combined.

use super::simulate_line_with_trace;
use crate::scale::Scale;
use crate::table::{f2, Table};
use overlap_core::pipeline::Strategy;
use overlap_model::{GuestSpec, ProgramKind, ReferenceRun};
use overlap_net::topology::linear_array;
use overlap_net::DelayModel;

/// Run the baseline-comparison table.
pub fn run(scale: Scale) -> Table {
    let n = scale.pick(128u32, 256);
    let steps = scale.pick(64u32, 128);
    let spikes: Vec<u64> = match scale {
        Scale::Quick => vec![16, 256],
        Scale::Full => vec![16, 64, 256, 1024, 4096],
    };
    // The work-efficient regime: the guest is several times larger than
    // the host, so redundancy buffers have real width (Theorem 3's
    // sizing; without it, no strategy can amortize anything).
    let guest = GuestSpec::array(8 * n, ProgramKind::Relaxation, 21, steps);
    let trace = ReferenceRun::execute(&guest);

    let mut t = Table::new(
        format!("E10 · §1 baselines vs OVERLAP (n = {n} spike hosts, guest 8n)"),
        &[
            "d_max",
            "lockstep",
            "blocked",
            "slackness",
            "overlap",
            "combined",
            "best baseline / overlap",
            "valid",
        ],
    );
    let rows: Vec<_> = spikes
        .iter()
        .map(|&spike| {
            // Cap the period so spikes exist at every size: at most n/4 links
            // between spikes keeps several spikes in the array.
            let host = linear_array(
                n,
                DelayModel::Spike {
                    base: 1,
                    spike,
                    period: spike.clamp(2, n as u64 / 4),
                },
                0,
            );
            let b = simulate_line_with_trace(&guest, &host, Strategy::Blocked, &trace).unwrap();
            let s = simulate_line_with_trace(&guest, &host, Strategy::Slackness, &trace).unwrap();
            let o = simulate_line_with_trace(&guest, &host, Strategy::Overlap { c: 4.0 }, &trace)
                .unwrap();
            let c = simulate_line_with_trace(
                &guest,
                &host,
                Strategy::Combined {
                    c: 4.0,
                    expansion: 2,
                },
                &trace,
            )
            .unwrap();
            let lockstep = b.lockstep_makespan.unwrap() as f64 / steps as f64;
            (spike, lockstep, b, s, o, c)
        })
        .collect();
    for (spike, lockstep, b, s, o, c) in rows {
        let best_baseline = lockstep.min(b.stats.slowdown).min(s.stats.slowdown);
        let ours = o.stats.slowdown.min(c.stats.slowdown);
        t.row(vec![
            spike.to_string(),
            f2(lockstep),
            f2(b.stats.slowdown),
            f2(s.stats.slowdown),
            f2(o.stats.slowdown),
            f2(c.stats.slowdown),
            f2(best_baseline / ours.max(1e-9)),
            (b.validated && s.validated && o.validated && c.validated).to_string(),
        ]);
    }
    t.note(
        "all baselines pay Θ(d_max) per step; OVERLAP pays O(d_ave·log³n) — the win \
         factor must grow linearly with d_max once d_max ≫ √d_ave·log³n.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_wins_and_gap_widens_with_dmax() {
        let t = run(Scale::Quick);
        for r in &t.rows {
            assert_eq!(r[7], "true");
        }
        let gap = t.column_f64("best baseline / overlap");
        assert!(
            gap.last().unwrap() > &1.5,
            "overlap must win at large d_max: {gap:?}"
        );
        assert!(gap.last().unwrap() > &gap[0], "gap must widen: {gap:?}");
    }

    #[test]
    fn baselines_track_dmax() {
        let t = run(Scale::Quick);
        let blocked = t.column_f64("blocked");
        let dmax = t.column_f64("d_max");
        // Blocked places 8 cells on every processor at both scales, and
        // a spike line's slowest route is one d_max link: each lockstep
        // round costs exactly load + d_max.
        for (lockstep, d) in t.column_f64("lockstep").iter().zip(&dmax) {
            assert_eq!(*lockstep, 8.0 + d, "lockstep at d_max {d}");
        }
        let growth = blocked.last().unwrap() / blocked[0];
        let dgrowth = dmax.last().unwrap() / dmax[0];
        assert!(
            growth > 0.3 * dgrowth,
            "blocked should track d_max: {growth} vs {dgrowth}"
        );
    }
}
