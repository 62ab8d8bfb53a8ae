//! E16 — adaptivity: what happens when a link degrades after planning
//! (beyond the paper, which plans once for fixed delays).
//!
//! We plan OVERLAP on a uniform host, then degrade one off-dyadic link.
//! Two findings:
//!
//! 1. **Re-running OVERLAP is a no-op for a single dominant spike.** Its
//!    overlaps live only at dyadic boundaries, and the stage-1 killing
//!    zone around the spike scales with `d_ave` — which the spike itself
//!    inflates — so the surviving interval stays below the integer-overlap
//!    threshold. Stale and fresh plans measure identically.
//! 2. **Switching strategy is the real adaptation**: `Auto` re-resolved on
//!    the new delay statistics picks wide halo regions, which bridge a
//!    spike anywhere, and wins by an order of magnitude.

use crate::scale::Scale;
use crate::table::{f2, Table};
use overlap_core::pipeline::plan_placement;
use overlap_core::pipeline::Strategy;
use overlap_model::{GuestSpec, ProgramKind, ReferenceRun};
use overlap_net::topology::linear_array;
use overlap_net::{DelayModel, HostGraph};
use overlap_sim::engine::{Engine, EngineConfig};
use overlap_sim::validate::validate_run;

/// Run the replanning table.
pub fn run(scale: Scale) -> Table {
    let n = scale.pick(256u32, 512);
    let steps = scale.pick(48u32, 96);
    let guest = GuestSpec::array(4 * n, ProgramKind::Relaxation, 7, steps);
    let trace = ReferenceRun::execute(&guest);
    let original = linear_array(n, DelayModel::constant(1), 0);
    let stale =
        plan_placement(&guest, &original, Strategy::Overlap { c: 4.0 }).expect("original plan");

    let factors: Vec<u64> = match scale {
        Scale::Quick => vec![1, 256, 4096],
        Scale::Full => vec![1, 64, 256, 1024, 4096],
    };
    // Degrade a link away from every wide dyadic boundary.
    let spike_at = n / 3 + 1;
    let degraded_host = |f: u64| {
        let mut g = HostGraph::new(format!("degraded(@{spike_at},{f})"), n);
        for i in 0..n - 1 {
            g.add_link(i, i + 1, if i == spike_at { f } else { 1 });
        }
        g
    };
    let mut t = Table::new(
        format!("E16 · adaptation after an off-dyadic link degrades (n = {n})"),
        &[
            "degraded delay",
            "stale overlap",
            "re-planned overlap",
            "auto re-resolved",
            "stale/auto",
            "valid",
        ],
    );
    for &f in &factors {
        let degraded = degraded_host(f);
        let run_with = |placement: &overlap_core::pipeline::Placement| {
            Engine::new(
                &guest,
                &degraded,
                &placement.assignment,
                EngineConfig::default(),
            )
            .run()
            .expect("run")
        };
        let stale_run = run_with(&stale);
        let fresh =
            plan_placement(&guest, &degraded, Strategy::Overlap { c: 4.0 }).expect("fresh plan");
        let fresh_run = run_with(&fresh);
        let auto = plan_placement(&guest, &degraded, Strategy::Auto).expect("auto plan");
        let auto_run = run_with(&auto);
        let ok = validate_run(&trace, &stale_run).is_empty()
            && validate_run(&trace, &fresh_run).is_empty()
            && validate_run(&trace, &auto_run).is_empty();
        t.row(vec![
            f.to_string(),
            f2(stale_run.stats.slowdown),
            f2(fresh_run.stats.slowdown),
            f2(auto_run.stats.slowdown),
            f2(stale_run.stats.slowdown / auto_run.stats.slowdown.max(1e-9)),
            ok.to_string(),
        ]);
    }
    t.note(
        "correctness is placement-independent (every run validates), but performance is \
         not. Re-planned OVERLAP ties the stale plan — its killing zone around the spike \
         scales with d_ave, which the spike itself inflates, so no integer overlap ever \
         bridges an off-dyadic spike. Re-resolving the *strategy* from the new delay \
         statistics (Auto → wide halo) is what actually adapts.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replanned_overlap_ties_but_auto_wins() {
        let t = run(Scale::Quick);
        for r in &t.rows {
            assert_eq!(r[5], "true");
        }
        // Finding 1: re-planned OVERLAP ≈ stale OVERLAP at every level.
        let stale = t.column_f64("stale overlap");
        let fresh = t.column_f64("re-planned overlap");
        for (s, f) in stale.iter().zip(&fresh) {
            let ratio = (s / f).max(f / s);
            assert!(
                ratio < 1.25,
                "overlap replanning should be a no-op: {s} vs {f}"
            );
        }
        // Finding 2: auto adaptation wins by ≥ 3× at the largest spike.
        let gain = t.column_f64("stale/auto");
        assert!(
            gain.last().unwrap() > &3.0,
            "auto should win big at extreme degradation: {gain:?}"
        );
    }
}
