//! E14 — beyond the paper: heterogeneous workstation speeds.
//!
//! The paper's motivation (§1) is NOWs whose *links* vary wildly; real
//! NOWs also mix workstation generations, which the unit-speed model
//! ignores. We add per-processor compute costs to the engine and measure:
//!
//! * naive blocked partitions collapse to the slowest machine's pace;
//! * the speed-weighted partition (cells ∝ 1/cost) restores near-uniform
//!   throughput — the compute-side analogue of delay-aware OVERLAP.

use crate::scale::Scale;
use crate::table::{f2, Table};
use overlap_core::baseline::weighted_blocked;
use overlap_model::{GuestSpec, ProgramKind, ReferenceRun};
use overlap_net::topology::linear_array;
use overlap_net::DelayModel;
use overlap_sim::engine::{Engine, EngineConfig};
use overlap_sim::validate::validate_run;
use overlap_sim::{Assignment, ExecPlan};

/// Run the heterogeneous-speed table.
pub fn run(scale: Scale) -> Table {
    let n = scale.pick(32u32, 64);
    let steps = scale.pick(32u32, 64);
    let cells = 4 * n;
    let guest = GuestSpec::array(cells, ProgramKind::Relaxation, 3, steps);
    let trace = ReferenceRun::execute(&guest);
    let host = linear_array(n, DelayModel::constant(2), 0);

    // Speed profiles: every 8th workstation is `slow_factor`× slower.
    let profiles: Vec<(String, Vec<u32>)> = [1u32, 4, 16]
        .iter()
        .map(|&f| {
            let costs: Vec<u32> = (0..n).map(|p| if p % 8 == 7 { f } else { 1 }).collect();
            (format!("every 8th ×{f}"), costs)
        })
        .collect();

    let mut t = Table::new(
        format!("E14 · heterogeneous speeds (n = {n}, guest {cells} cells; beyond the paper)"),
        &[
            "profile",
            "blocked slowdown",
            "weighted slowdown",
            "blocked/weighted",
            "ideal (work-balance)",
            "valid",
        ],
    );
    for (name, costs) in profiles {
        let blocked = Assignment::blocked(n, cells);
        let weighted = weighted_blocked(&costs, cells);
        let run = |a: &Assignment| {
            let plan = ExecPlan::build(&guest, &host, a, EngineConfig::default())
                .expect("plan")
                .with_compute_costs(costs.clone());
            let out = Engine::from_plan(&plan).run().expect("run");
            let ok = validate_run(&trace, &out).is_empty();
            (out.stats.slowdown, ok)
        };
        let (b, b_ok) = run(&blocked);
        let (w, w_ok) = run(&weighted);
        // Ideal: total work / total speed, per guest step.
        let total_speed: f64 = costs.iter().map(|&c| 1.0 / c as f64).sum();
        let ideal = cells as f64 / total_speed;
        t.row(vec![
            name,
            f2(b),
            f2(w),
            f2(b / w.max(1e-9)),
            f2(ideal),
            (b_ok && w_ok).to_string(),
        ]);
    }
    t.note(
        "blocked pays load × slow-cost per step (the slowest machine gates everything); \
         the speed-weighted partition tracks the work-balance ideal cells/Σ(1/cost) — \
         the compute-side analogue of the paper's delay-aware database placement.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_partition_beats_blocked_under_heterogeneity() {
        let t = run(Scale::Quick);
        for r in &t.rows {
            assert_eq!(r[5], "true");
        }
        // Homogeneous row: ratio ≈ 1.
        let first: f64 = t.rows[0][3].parse().unwrap();
        assert!((0.8..=1.3).contains(&first), "homogeneous ratio {first}");
        // ×16 row: weighted must win by ≥ 2×.
        let last: f64 = t.rows.last().unwrap()[3].parse().unwrap();
        assert!(last > 2.0, "expected ≥2× win at ×16 heterogeneity: {last}");
    }

    #[test]
    fn weighted_tracks_the_ideal_within_constant() {
        let t = run(Scale::Quick);
        for r in &t.rows {
            let w: f64 = r[2].parse().unwrap();
            let ideal: f64 = r[4].parse().unwrap();
            assert!(w <= 3.0 * ideal, "{}: weighted {w} vs ideal {ideal}", r[0]);
        }
    }
}
