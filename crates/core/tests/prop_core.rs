//! Property-based tests for the OVERLAP algorithms.

use overlap_core::assign::{assign_slots, expand_blocks};
use overlap_core::killing::verify_lemmas;
use overlap_core::killing::{kill_and_label, KillParams};
use overlap_core::lower::zigzag_path;
use overlap_core::overlap::plan_overlap;
use overlap_core::uniform::{halo_assignment, region_census};
use overlap_core::Simulation;
use overlap_model::{GuestSpec, ProgramKind, ReferenceRun};
use overlap_net::topology::linear_array;
use overlap_net::DelayModel;
use proptest::prelude::*;

fn delay_model_strategy() -> impl Strategy<Value = DelayModel> {
    prop_oneof![
        (1u64..50).prop_map(DelayModel::Constant),
        (1u64..4, 4u64..300).prop_map(|(lo, hi)| DelayModel::Uniform { lo, hi }),
        (2u64..100_000, 2u64..32).prop_map(|(spike, period)| DelayModel::Spike {
            base: 1,
            spike,
            period
        }),
        (1u64..3, 0.4f64..3.0, 1u64..(1 << 24))
            .prop_map(|(min, alpha, cap)| { DelayModel::HeavyTail { min, alpha, cap } }),
    ]
}

fn delays(n: u32, dm: DelayModel, seed: u64) -> Vec<u64> {
    linear_array(n, dm, seed)
        .links()
        .iter()
        .map(|l| l.delay)
        .collect()
}

proptest! {
    #[test]
    fn killing_respects_lemma_1(
        n in 8u32..400,
        dm in delay_model_strategy(),
        seed in any::<u64>(),
        c in 3.0f64..8.0,
    ) {
        let d = delays(n, dm, seed);
        let out = kill_and_label(&d, &KillParams { c });
        // Lemma 1: at most n/c killed in stage 1 (+1 for integer slack).
        prop_assert!(
            out.stage1_killed as f64 <= n as f64 / c + 1.0,
            "{} killed of {n} (c = {c})",
            out.stage1_killed
        );
    }

    #[test]
    fn assignment_always_covers_all_slots(
        n in 4u32..300,
        dm in delay_model_strategy(),
        seed in any::<u64>(),
    ) {
        let d = delays(n, dm, seed);
        let out = kill_and_label(&d, &KillParams::default());
        prop_assume!(!out.removed[0] && out.root_label() >= 1);
        let a = assign_slots(&out);
        let mut holders = vec![0u32; a.num_slots as usize];
        for (pos, slots) in a.slots_of_position.iter().enumerate() {
            if !out.alive[pos] {
                prop_assert!(slots.is_empty());
            }
            for &s in slots {
                prop_assert!(s < a.num_slots);
                holders[s as usize] += 1;
            }
        }
        prop_assert!(holders.iter().all(|&h| h >= 1));
        prop_assert_eq!(a.load(), 1);
    }

    #[test]
    fn block_expansion_preserves_coverage(
        n in 4u32..120,
        block in 1u32..10,
        seed in any::<u64>(),
    ) {
        let d = delays(n, DelayModel::uniform(1, 30), seed);
        let plan = plan_overlap(&d, 4.0, block).expect("plan");
        let mut covered = vec![false; plan.guest_cells as usize];
        for cells in &plan.cells_of_position {
            for &c in cells {
                covered[c as usize] = true;
            }
        }
        prop_assert!(covered.iter().all(|&b| b));
        prop_assert_eq!(plan.load(), block as usize);
        // the same result via expand_blocks
        let manual = expand_blocks(&plan.slots, block);
        prop_assert_eq!(&manual, &plan.cells_of_position);
    }

    #[test]
    fn halo_assignment_coverage_and_copies(
        n in 1u32..40,
        r in 1u32..16,
        halo in 0u32..4,
    ) {
        let cells = halo_assignment(n, r, halo);
        let total = n * r;
        let mut count = vec![0u32; total as usize];
        for cs in &cells {
            for &c in cs {
                count[c as usize] += 1;
            }
        }
        prop_assert!(count.iter().all(|&h| h >= 1));
        // every cell has at most 2·halo+1 copies
        prop_assert!(count.iter().all(|&h| h <= 2 * halo + 1));
        // interior cells have exactly 2·halo+1
        if n > 2 * (halo + 1) {
            let c = (total / 2) as usize;
            prop_assert_eq!(count[c], 2 * halo + 1);
        }
    }

    #[test]
    fn region_census_is_conserved(r in 1u32..2000) {
        let c = region_census(r);
        prop_assert_eq!(c.region, c.trapezium + c.left_triangle + c.right_triangle);
        prop_assert_eq!(c.region, 3 * (r as u64) * (r as u64));
    }

    #[test]
    fn zigzag_path_always_dependency_consistent(
        i in -100i64..100,
        j_half in 1i64..40,
        t in 200i64..400,
    ) {
        let j = 2 * j_half;
        let path = zigzag_path(i, j, t);
        prop_assert_eq!(path.len() as i64, 4 * j);
        for w in path.windows(2) {
            prop_assert_eq!(w[0].step - w[1].step, 1);
            prop_assert!((w[0].col - w[1].col).abs() <= 1);
        }
        // First pebble is (i+1, t-1); last is on column i or i+1.
        prop_assert_eq!(path[0].col, i + 1);
        prop_assert_eq!(path[0].step, t - 1);
        let last = path.last().unwrap();
        prop_assert!(last.col == i || last.col == i + 1);
    }

    #[test]
    fn lemmas_hold_for_random_hosts(
        n in 8u32..300,
        dm in delay_model_strategy(),
        seed in any::<u64>(),
        c in 2.1f64..12.0,
    ) {
        let d = delays(n, dm, seed);
        let out = kill_and_label(&d, &KillParams { c });
        let v = verify_lemmas(&out);
        prop_assert!(v.is_empty(), "{:?}", v);
    }

    #[test]
    fn grid_guests_validate_through_the_pipeline(
        w in 2u32..7,
        h in 2u32..6,
        steps in 1u32..6,
        hosts in 2u32..6,
        seed in any::<u64>(),
    ) {
        let host = linear_array(hosts, DelayModel::uniform(1, 10), seed);
        for guest in [
            GuestSpec::mesh(w, h, ProgramKind::Relaxation, seed, steps),
            GuestSpec::torus(w.max(2), h.max(2), ProgramKind::Relaxation, seed, steps),
        ] {
            let trace = ReferenceRun::execute(&guest);
            let r = Simulation::of(&guest)
                .on(&host)
                .build()
                .and_then(|sim| sim.run_with_trace(&trace))
                .expect("grid pipeline");
            prop_assert!(r.validated);
        }
    }

    #[test]
    fn tree_guests_validate_for_both_placements(
        levels in 2u32..7,
        hosts in 2u32..6,
        steps in 1u32..6,
        seed in any::<u64>(),
    ) {
        let host = linear_array(hosts, DelayModel::uniform(1, 10), seed);
        let guest = GuestSpec::tree(levels, ProgramKind::KvWorkload, seed, steps);
        let trace = ReferenceRun::execute(&guest);
        // Auto places subtree blocks, Blocked heap-order blocks.
        for strategy in [overlap_core::Strategy::Auto, overlap_core::Strategy::Blocked] {
            let r = Simulation::of(&guest)
                .on(&host)
                .strategy(strategy)
                .build()
                .and_then(|sim| sim.run_with_trace(&trace))
                .expect("tree run");
            prop_assert!(r.validated, "{}", strategy.label());
        }
    }

    #[test]
    fn predicted_slowdown_is_monotone(
        n_pow in 3u32..14,
        d1 in 1.0f64..100.0,
        factor in 1.0f64..8.0,
    ) {
        let n = 1u32 << n_pow;
        let a = overlap_core::overlap::predicted_slowdown(n, d1, 4.0, 1);
        let b = overlap_core::overlap::predicted_slowdown(n, d1 * factor, 4.0, 1);
        prop_assert!(b >= a);
    }
}
