//! E2 — Theorem 3: the work-efficient OVERLAP.
//!
//! With a guest of `≈ d_ave·n·log³n` cells (lab-scaled), the simulation
//! must keep load `O(d_ave·log³n)` per processor, slowdown of the same
//! order, and *work efficiency* `Ω(1/polylog)`: guest work per host
//! processor-tick must not collapse as the guest grows.

use super::simulate_line_with_trace;
use crate::scale::Scale;
use crate::table::{f2, f3, Table};
use overlap_core::pipeline::Strategy;
use overlap_model::{GuestSpec, ProgramKind, ReferenceRun};
use overlap_net::topology::linear_array;
use overlap_net::DelayModel;

/// Sweep guest size multipliers at fixed host.
pub fn run(scale: Scale) -> Table {
    let n = scale.pick(64u32, 256);
    let steps = scale.pick(32u32, 96);
    let d_ave = 4u64;
    let multipliers: Vec<u32> = match scale {
        Scale::Quick => vec![1, 4, 8],
        Scale::Full => vec![1, 2, 4, 8, 16, 32],
    };
    let host = linear_array(n, DelayModel::uniform(1, 2 * d_ave - 1), 3);

    let mut t = Table::new(
        format!("E2 · Theorem 3 — work-efficient OVERLAP (n = {n}, d_ave ≈ {d_ave})"),
        &[
            "guest cells",
            "guest/host ratio",
            "slowdown",
            "load",
            "efficiency",
            "work overhead",
            "valid",
        ],
    );
    let rows: Vec<_> = multipliers
        .iter()
        .map(|&k| {
            let guest = GuestSpec::array(n * k, ProgramKind::Relaxation, 5, steps);
            let trace = ReferenceRun::execute(&guest);
            simulate_line_with_trace(&guest, &host, Strategy::Overlap { c: 4.0 }, &trace)
                .expect("run")
        })
        .collect();
    for (k, r) in multipliers.iter().zip(rows) {
        t.row(vec![
            (n * k).to_string(),
            k.to_string(),
            f2(r.stats.slowdown),
            r.stats.load.to_string(),
            f3(r.stats.efficiency()),
            f2(r.stats.work_overhead()),
            r.validated.to_string(),
        ]);
    }
    t.note(
        "Theorem 3: with guest size Θ(d_ave·n·log³n) the simulation is work efficient — \
         efficiency must grow toward Ω(1/polylog) as the guest/host ratio rises, and the \
         redundant-work overhead stays O(1).",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_improves_with_guest_size() {
        let t = run(Scale::Quick);
        let eff = t.column_f64("efficiency");
        assert!(
            eff.last().unwrap() > &(eff[0] * 1.5),
            "bigger guests must amortize latency: {eff:?}"
        );
        let over = t.column_f64("work overhead");
        assert!(
            over.iter().all(|&o| o < 4.0),
            "redundancy stays O(1): {over:?}"
        );
        for r in &t.rows {
            assert_eq!(r[6], "true");
        }
    }

    #[test]
    fn load_scales_with_guest() {
        let t = run(Scale::Quick);
        let loads = t.column_f64("load");
        assert!(loads.last().unwrap() > &loads[0]);
    }
}
