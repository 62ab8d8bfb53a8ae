//! E11 — §7 open question: G and H both 2-D arrays.
//!
//! The paper says this case is "very intriguing but currently beyond our
//! abilities" (to analyze). We measure it: a `(W·g)×(H·g)` guest mesh on a
//! `W×H` host mesh with uniform link delay `d`, under 2-D halo regions of
//! width ω. Prediction from the area-vs-length halo cost:
//! `slowdown ≈ (g+2ω)² + 2d/ω`, optimal `ω ≈ (d/4)^{1/3}` — a `d^{1/3}`
//! advantage over no redundancy, *weaker* than the 1-D √d because 2-D
//! halos cost area.

use crate::scale::Scale;
use crate::table::{f2, Table};
use overlap_core::direct2d::{halo2d_assignment, optimal_omega, predicted_2d};
use overlap_core::{theory, Simulation};
use overlap_model::{GuestSpec, ProgramKind, ReferenceRun};
use overlap_net::topology::mesh2d;
use overlap_net::DelayModel;

/// Run the mesh-on-mesh sweep.
pub fn run(scale: Scale) -> Table {
    let (w, h, g) = (6u32, 6u32, 4u32);
    let steps = scale.pick(24u32, 48);
    let ds: Vec<u64> = match scale {
        Scale::Quick => vec![64, 1024],
        Scale::Full => vec![16, 64, 256, 1024, 4096],
    };

    let mut t = Table::new(
        format!(
            "E11 · §7 open question — {w}×{h} host mesh simulating a {}×{} guest mesh",
            w * g,
            h * g
        ),
        &[
            "d",
            "ω*",
            "blocked slowdown",
            "best halo slowdown",
            "best ω",
            "predicted (g+2ω)²+2d/ω",
            "blocked/halo",
            "valid",
        ],
    );
    let mut halo_pts = Vec::new();
    let mut blocked_pts = Vec::new();
    for &d in &ds {
        let guest = GuestSpec::mesh(w * g, h * g, ProgramKind::Relaxation, 5, steps);
        let trace = ReferenceRun::execute(&guest);
        let host = mesh2d(w, h, DelayModel::constant(d), 0);
        // Host node (X, Y) holds its g × g block plus an ω-cell halo.
        let run = |omega| {
            Simulation::of(&guest)
                .on(&host)
                .assignment(halo2d_assignment(w, h, g, omega))
                .build()
                .and_then(|sim| sim.run_with_trace(&trace))
                .expect("mesh on mesh")
        };
        let blocked = run(0);
        let omegas: Vec<u32> = vec![1, 2, optimal_omega(d), 2 * optimal_omega(d)]
            .into_iter()
            .filter(|&o| o >= 1 && o <= 2 * g)
            .collect();
        let (best_omega, best) = omegas
            .iter()
            .map(|&om| (om, run(om)))
            .min_by(|a, b| a.1.stats.slowdown.total_cmp(&b.1.stats.slowdown))
            .expect("non-empty");
        halo_pts.push((d as f64, best.stats.slowdown));
        blocked_pts.push((d as f64, blocked.stats.slowdown));
        t.row(vec![
            d.to_string(),
            optimal_omega(d).to_string(),
            f2(blocked.stats.slowdown),
            f2(best.stats.slowdown),
            best_omega.to_string(),
            f2(predicted_2d(g, best_omega, d)),
            f2(blocked.stats.slowdown / best.stats.slowdown.max(1e-9)),
            (blocked.validated && best.validated).to_string(),
        ]);
    }
    t.note(format!(
        "log-log exponents vs d: halo {:.2} (area-cost model predicts 2/3 once d ≫ g²), \
         blocked {:.2} (predicts 1)",
        theory::loglog_slope(&halo_pts),
        theory::loglog_slope(&blocked_pts)
    ));
    t.note(
        "the 2-D analogue of Theorem 4 hides latency by d^{1/3}, not √d: redundant halos \
         cost area (4ωg + 4ω²) while their benefit is still one exchange per ω steps — a \
         concrete data point on the paper's open question.",
    );
    t.block(crate::plot::ascii_loglog(
        "2-D slowdown vs d (log-log)",
        &[
            ("best halo", 'o', &halo_pts),
            ("blocked", 'x', &blocked_pts),
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
    fn redundancy_wins_and_gap_grows_with_d() {
        let t = run(Scale::Quick);
        for r in &t.rows {
            assert_eq!(r[7], "true");
        }
        let gap = t.column_f64("blocked/halo");
        assert!(
            gap.last().unwrap() > &1.5,
            "2-D halo must win at d = 1024: {gap:?}"
        );
        assert!(
            gap.last().unwrap() >= &gap[0],
            "gap must not shrink: {gap:?}"
        );
    }
}
