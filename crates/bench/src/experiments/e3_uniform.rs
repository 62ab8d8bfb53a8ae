//! E3 — Theorem 4: `O(√d)` slowdown on the uniform-delay host.
//!
//! Sweep the link delay `d`; the guest is `n·√d` cells (the paper's
//! work-preserving size). Three strategies:
//!
//! * `halo(1)` — the paper's 3-block regions (Theorem 4): expected `Θ(√d)`;
//! * `blocked` — no redundancy: the adjacent-block dependency cycle pays
//!   `Θ(d)`;
//! * predicted `5√d`.
//!
//! The log-log exponents are the headline: ≈ 0.5 vs ≈ 1.0.

use super::simulate_line_with_trace;
use crate::scale::Scale;
use crate::table::{f2, Table};
use overlap_core::pipeline::Strategy;
use overlap_core::theory;
use overlap_model::{GuestSpec, ProgramKind, ReferenceRun};
use overlap_net::topology::linear_array;
use overlap_net::DelayModel;

/// Run the Theorem 4 sweep.
pub fn run(scale: Scale) -> Table {
    let n = scale.pick(8u32, 16);
    let ds: Vec<u64> = match scale {
        Scale::Quick => vec![16, 64, 256],
        Scale::Full => vec![4, 16, 64, 256, 1024, 4096],
    };

    let mut t = Table::new(
        format!("E3 · Theorem 4 — uniform-delay host, n = {n} processors"),
        &[
            "d",
            "guest cells",
            "halo slowdown",
            "blocked slowdown",
            "predicted 5√d",
            "halo redundancy",
            "valid",
        ],
    );
    let rows: Vec<_> = ds
        .iter()
        .map(|&d| {
            let r = (d as f64).sqrt().floor() as u32;
            let m = n * r;
            // enough steps to reach steady state: several exchange rounds
            let steps = (4 * r).max(32);
            let guest = GuestSpec::array(m, ProgramKind::Relaxation, 9, steps);
            let trace = ReferenceRun::execute(&guest);
            let host = linear_array(n, DelayModel::constant(d), 0);
            let halo = simulate_line_with_trace(&guest, &host, Strategy::Halo { halo: 1 }, &trace)
                .expect("halo");
            let blocked = simulate_line_with_trace(&guest, &host, Strategy::Blocked, &trace)
                .expect("blocked");
            (d, m, halo, blocked)
        })
        .collect();
    let mut halo_pts = Vec::new();
    let mut blocked_pts = Vec::new();
    for (d, m, halo, blocked) in rows {
        halo_pts.push((d as f64, halo.stats.slowdown));
        blocked_pts.push((d as f64, blocked.stats.slowdown));
        t.row(vec![
            d.to_string(),
            m.to_string(),
            f2(halo.stats.slowdown),
            f2(blocked.stats.slowdown),
            f2(theory::t4_predicted(d as f64)),
            f2(halo.stats.redundancy),
            (halo.validated && blocked.validated).to_string(),
        ]);
    }
    t.note(format!(
        "log-log exponents: halo {:.2} (paper: 0.5), blocked {:.2} (paper: 1.0)",
        theory::loglog_slope(&halo_pts),
        theory::loglog_slope(&blocked_pts)
    ));
    t.note(
        "the [2] lower bound is Ω(√d): the halo strategy is within a constant of optimal, \
         and redundancy ≈ 3 is the price (the three-block regions of Figure 4)",
    );
    t.block(crate::plot::ascii_loglog(
        "slowdown vs d (log-log)",
        &[
            ("halo (√d)", 'o', &halo_pts),
            ("blocked (d)", 'x', &blocked_pts),
        ],
        64,
        18,
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sqrt_vs_linear_shape() {
        let t = run(Scale::Quick);
        for r in &t.rows {
            assert_eq!(r[6], "true");
        }
        let halo = t.column_f64("halo slowdown");
        let blocked = t.column_f64("blocked slowdown");
        // At the largest d, halo must be far ahead.
        assert!(
            halo.last().unwrap() * 2.0 < *blocked.last().unwrap(),
            "halo {halo:?} vs blocked {blocked:?}"
        );
        // Halo growth from d=16 to d=256 (16×) should be ≈ 4× (√), surely < 8×.
        let growth = halo.last().unwrap() / halo[0];
        assert!(growth < 8.0, "halo growth {growth}");
        // Blocked growth should be ≈ 16× (linear), surely > 6×.
        let bgrowth = blocked.last().unwrap() / blocked[0];
        assert!(bgrowth > 6.0, "blocked growth {bgrowth}");
    }
}
