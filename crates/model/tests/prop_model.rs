//! Property-based tests for the guest model.

use overlap_model::{
    line_slots, mesh_columns, ring_fold, Db, DbKind, DbUpdate, GuestSpec, GuestTopology,
    PebbleValue, ProgramKind, ReferenceRun,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// Every pebble of `spec`'s reference run, keyed `(cell, step)`.
fn pebbles(spec: &GuestSpec) -> HashMap<(u32, u32), PebbleValue> {
    let mut out = HashMap::new();
    ReferenceRun::execute_with(spec, |c, t, v| {
        out.insert((c, t), v);
    });
    out
}

fn db_kind_strategy() -> impl Strategy<Value = DbKind> {
    prop_oneof![
        Just(DbKind::Counter),
        (1u32..64).prop_map(|size| DbKind::Vec { size }),
        Just(DbKind::Kv),
    ]
}

fn update_strategy() -> impl Strategy<Value = DbUpdate> {
    prop_oneof![
        Just(DbUpdate::None),
        (any::<u64>(), any::<u64>()).prop_map(|(key, delta)| DbUpdate::Add { key, delta }),
        (any::<u64>(), any::<u64>()).prop_map(|(key, value)| DbUpdate::Set { key, value }),
        any::<u64>().prop_map(|key| DbUpdate::Remove { key }),
    ]
}

proptest! {
    #[test]
    fn replaying_the_same_update_log_yields_identical_databases(
        kind in db_kind_strategy(),
        cell in 0u32..100,
        seed in any::<u64>(),
        updates in proptest::collection::vec(update_strategy(), 0..60),
    ) {
        let mut a = kind.instantiate(cell, seed);
        let mut b = kind.instantiate(cell, seed);
        for u in &updates {
            a.apply(u);
        }
        for u in &updates {
            b.apply(u);
        }
        prop_assert_eq!(a.digest(), b.digest());
        prop_assert_eq!(a.consult(cell, 1), b.consult(cell, 1));
    }

    #[test]
    fn databases_never_panic_on_any_update(
        kind in db_kind_strategy(),
        updates in proptest::collection::vec(update_strategy(), 0..100),
    ) {
        let mut db: Db = kind.instantiate(0, 0);
        for u in &updates {
            db.apply(u);
        }
        let _ = db.digest();
        let _ = db.words();
    }

    #[test]
    fn ring_fold_is_always_valid(m in 2u32..200) {
        let fold = ring_fold(m);
        let topo = GuestTopology::Ring { m };
        prop_assert!(fold.is_valid_for(&topo));
        prop_assert!(fold.width() <= 2);
        prop_assert_eq!(fold.len() as u32, m.div_ceil(2));
    }

    #[test]
    fn mesh_columns_are_always_valid(w in 1u32..20, h in 1u32..20) {
        let map = mesh_columns(w, h);
        let topo = GuestTopology::Mesh2D { w, h };
        prop_assert!(map.is_valid_for(&topo));
        prop_assert_eq!(map.width() as u32, h);
    }

    #[test]
    fn line_slots_are_always_valid(m in 1u32..200) {
        let map = line_slots(m);
        let topo = GuestTopology::Line { m };
        prop_assert!(map.is_valid_for(&topo));
    }

    #[test]
    fn information_travels_at_most_one_cell_per_step(
        m in 6u32..24,
        steps in 1u32..8,
        seed in any::<u64>(),
    ) {
        // A line and a ring of the same size differ only at the wraparound
        // edge; interior pebbles further than `t` cells from both ends
        // cannot have seen the difference by step t.
        prop_assume!(steps + 2 < m / 2);
        let line = pebbles(&GuestSpec::array(m, ProgramKind::KvWorkload, seed, steps));
        let ring = pebbles(&GuestSpec::ring(m, ProgramKind::KvWorkload, seed, steps));
        for t in 1..=steps {
            for c in 0..m {
                let edge_dist = c.min(m - 1 - c);
                if edge_dist >= t {
                    prop_assert_eq!(
                        line[&(c, t)],
                        ring[&(c, t)],
                        "cell {} step {} should be unaffected by the boundary", c, t
                    );
                }
            }
        }
    }

    #[test]
    fn guest_deps_are_within_distance_one(
        m in 2u32..50,
        cell_frac in 0.0f64..1.0,
    ) {
        for topo in [GuestTopology::Line { m }, GuestTopology::Ring { m }] {
            let cell = ((cell_frac * m as f64) as u32).min(m - 1);
            for nb in topo.neighbours(cell) {
                let direct = cell.abs_diff(nb);
                let wrapped = m - direct;
                prop_assert!(direct.min(wrapped) == 1);
            }
        }
    }

    #[test]
    fn mesh_deps_are_grid_neighbours(w in 1u32..12, h in 1u32..12, cell_frac in 0.0f64..1.0) {
        let topo = GuestTopology::Mesh2D { w, h };
        let n = w * h;
        let cell = ((cell_frac * n as f64) as u32).min(n - 1);
        let (x, y) = (cell / h, cell % h);
        for nb in topo.neighbours(cell) {
            let (nx, ny) = (nb / h, nb % h);
            prop_assert_eq!(x.abs_diff(nx) + y.abs_diff(ny), 1);
        }
    }

    #[test]
    fn reference_work_is_exact(
        m in 1u32..30,
        steps in 0u32..20,
        seed in any::<u64>(),
    ) {
        let mut work = 0u64;
        let trace = ReferenceRun::execute_with(
            &GuestSpec::array(m, ProgramKind::Relaxation, seed, steps),
            |_, _, _| work += 1,
        );
        prop_assert_eq!(work, m as u64 * steps as u64);
        for table in [&trace.value_fold, &trace.final_db_digest, &trace.update_log_digest] {
            prop_assert_eq!(table.len() as u32, m);
        }
    }
}
