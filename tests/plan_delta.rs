//! Incremental-plan contracts: a delta-applied [`ExecPlan`] must be
//! **bit-identical** to a from-scratch lowering of the changed inputs, on
//! every engine — and the delta's inverse must restore the base plan
//! exactly. Covers link-delay edits (both the patch-in-place fast path
//! and the re-lowering slow path), fault-plan swaps, and compute-cost
//! overrides, over grid guests, non-uniform task-graph guests, and
//! memory-budgeted configurations.

use overlap::model::TaskGraph;
use overlap::sim::engine::MemBudget;
use overlap::sim::{run_lockstep, run_stepped};
use overlap::{
    topology, Assignment, DelayModel, Engine, EngineConfig, ExecPlan, FaultPlan, GuestSpec,
    HostGraph, PlanDelta, ProgramKind, RunOutcome,
};
use proptest::prelude::*;

/// Outcomes of every engine the plan is legal for, in a comparable bundle
/// (the event run timed, so completion ticks are compared too).
fn run_all(plan: &ExecPlan) -> Vec<(&'static str, Result<RunOutcome, String>)> {
    let mut out = Vec::new();
    let e = |r: Result<RunOutcome, overlap::RunError>| r.map_err(|e| e.to_string());
    out.push(("event", e(Engine::from_plan(plan).run_timed())));
    out.push(("stepped", e(run_stepped(plan))));
    let guest = plan.guest();
    if plan.faults().is_none()
        && plan.compute_costs().is_none()
        && plan.config().mem.is_none()
        && !guest.has_nonunit_task_costs()
    {
        out.push(("lockstep", e(run_lockstep(plan))));
    }
    out
}

/// Assert the delta-applied plan matches a fresh lowering on every
/// engine, then assert the inverse restores the base plan bit-exactly.
fn check_delta(
    guest: &GuestSpec,
    host: &HostGraph,
    assign: &Assignment,
    config: EngineConfig,
    delta: PlanDelta,
) {
    let mut plan = ExecPlan::build(guest, host, assign, config).expect("base plan");
    let base_runs = run_all(&plan);

    let receipt = plan.apply_delta(delta.clone()).expect("delta applies");

    // Fresh lowering of the post-delta inputs.
    let mut host2 = host.clone();
    if let PlanDelta::LinkDelay { a, b, delay } = &delta {
        host2.set_link_delay(*a, *b, *delay);
    }
    let fresh = ExecPlan::build(guest, &host2, assign, config).expect("fresh plan");
    let fresh = match &delta {
        PlanDelta::Faults(Some(f)) => fresh.with_faults(f.clone()).expect("valid faults"),
        PlanDelta::ComputeCosts(Some(c)) => fresh.with_compute_costs(c.clone()),
        _ => fresh,
    };
    let got = run_all(&plan);
    let want = run_all(&fresh);
    assert_eq!(got.len(), want.len(), "engine sets differ");
    for ((eng, g), (_, w)) in got.iter().zip(&want) {
        assert_eq!(g, w, "{eng}: delta-applied != fresh lowering for {delta:?}");
    }

    // The inverse restores the base plan: same outcomes as before.
    plan.apply_delta(receipt.inverse).expect("inverse applies");
    let restored = run_all(&plan);
    assert_eq!(base_runs.len(), restored.len());
    for ((eng, b), (_, r)) in base_runs.iter().zip(&restored) {
        assert_eq!(b, r, "{eng}: inverse failed to restore the base plan");
    }
}

fn guest_strategy() -> impl Strategy<Value = GuestSpec> {
    prop_oneof![
        // Uniform grid guest.
        (6u32..16, 2u32..10, 0u64..500).prop_map(|(m, steps, seed)| GuestSpec::array(
            m,
            ProgramKind::KvWorkload,
            seed,
            steps
        )),
        // Non-uniform layered DAG: cross-lane deps and task costs > 1
        // force the dynamic per-(cell, step) lowering.
        ((4u32..10, 3u32..8), (1u32..3, 2u32..4), 0u64..500).prop_map(
            |((dbs, layers), (extra, max_cost), seed)| {
                let g = TaskGraph::layered_random(dbs, layers, extra, max_cost, seed);
                GuestSpec::dag(g, ProgramKind::KvWorkload, seed)
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Link-delay deltas on a tree host (every change takes the
    /// patch-in-place fast path) and on a ring host (delay increases may
    /// re-lower, decreases always do) are bit-identical to fresh
    /// lowerings on all engines, with and without a memory budget.
    #[test]
    fn link_delay_delta_equals_fresh_lowering(
        guest in guest_strategy(),
        ring in any::<bool>(),
        procs in 3u32..7,
        link_pick in 0usize..100,
        new_delay in 1u64..12,
        base_delay in 1u64..8,
        budgeted in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let host = if ring {
            topology::ring(procs, DelayModel::uniform(1, base_delay), seed)
        } else {
            topology::linear_array(procs, DelayModel::uniform(1, base_delay), seed)
        };
        let assign = Assignment::blocked(procs, guest.num_cells());
        let config = EngineConfig {
            mem: budgeted.then_some(MemBudget { budget: 1, reload_cost: 2 }),
            ..EngineConfig::default()
        };
        let l = host.links()[link_pick % host.num_links()];
        let delta = PlanDelta::LinkDelay { a: l.a, b: l.b, delay: new_delay };
        check_delta(&guest, &host, &assign, config, delta);
    }

    /// Fault-plan swaps and compute-cost overrides never re-lower and are
    /// bit-identical to `with_faults` / `with_compute_costs` on a fresh
    /// plan.
    #[test]
    fn fault_and_cost_deltas_equal_fresh_lowering(
        guest in guest_strategy(),
        procs in 3u32..7,
        cost_pick in 1u32..4,
        down_from in 10u64..40,
        down_len in 5u64..40,
        use_costs in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let host = topology::linear_array(procs, DelayModel::uniform(1, 6), seed);
        let assign = Assignment::blocked(procs, guest.num_cells());
        let config = EngineConfig::default();
        let delta = if use_costs {
            let costs: Vec<u32> = (0..procs).map(|p| 1 + (p + cost_pick) % 3).collect();
            PlanDelta::ComputeCosts(Some(costs))
        } else {
            PlanDelta::Faults(Some(
                FaultPlan::new().link_down(0, 1, down_from, down_from + down_len),
            ))
        };
        check_delta(&guest, &host, &assign, config, delta);
    }
}

/// A delay *increase* on a ring link no lowered route crosses keeps the
/// interned tables (fast path); a *decrease* on the same link re-lowers.
/// Both must equal fresh lowerings — this pins the receipt's `relowered`
/// flag against the documented rules.
#[test]
fn unused_link_fast_path_and_relowering_slow_path() {
    let guest = GuestSpec::array(8, ProgramKind::KvWorkload, 3, 6);
    // Ring of 4: links 0-1, 1-2, 2-3, 0-3. Make 0-3 expensive so no
    // shortest route uses it, with blocked assignment keeping traffic
    // between block neighbours.
    let mut host = HostGraph::new("ring4", 4);
    host.add_link(0, 1, 2);
    host.add_link(1, 2, 2);
    host.add_link(2, 3, 2);
    host.add_link(0, 3, 50);
    let assign = Assignment::blocked(4, 8);
    let mut plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap();

    // Increase of the unused 0-3 link: fast path, no re-lowering.
    let up = plan
        .apply_delta(PlanDelta::LinkDelay {
            a: 0,
            b: 3,
            delay: 60,
        })
        .unwrap();
    assert!(!up.relowered, "unused-link increase must not re-lower");
    let mut h2 = host.clone();
    h2.set_link_delay(0, 3, 60);
    let fresh = ExecPlan::build(&guest, &h2, &assign, EngineConfig::default()).unwrap();
    assert_eq!(plan.run().unwrap(), fresh.run().unwrap());
    plan.apply_delta(up.inverse).unwrap();

    // Decrease that reroutes traffic through 0-3: slow path.
    let down = plan
        .apply_delta(PlanDelta::LinkDelay {
            a: 0,
            b: 3,
            delay: 1,
        })
        .unwrap();
    assert!(down.relowered, "route-changing decrease must re-lower");
    let mut h3 = host.clone();
    h3.set_link_delay(0, 3, 1);
    let fresh = ExecPlan::build(&guest, &h3, &assign, EngineConfig::default()).unwrap();
    assert_eq!(plan.run().unwrap(), fresh.run().unwrap());
    assert_eq!(
        run_stepped(&plan).unwrap(),
        run_stepped(&fresh).unwrap(),
        "stepped agrees after re-lowering"
    );

    // Undo restores the base lowering bit-exactly.
    plan.apply_delta(down.inverse).unwrap();
    let base = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap();
    assert_eq!(plan.run().unwrap(), base.run().unwrap());
}

/// Multicast plans take the fast path only on tree hosts; elsewhere every
/// delay change re-lowers the trees. Both paths must match fresh
/// lowerings on the engines that support multicast.
#[test]
fn multicast_deltas_match_fresh_lowerings() {
    let guest = GuestSpec::array(9, ProgramKind::Relaxation, 5, 6);
    let config = EngineConfig {
        multicast: true,
        ..EngineConfig::default()
    };
    // Redundant holders force fan-out, making trees non-trivial.
    let assign = Assignment::from_cells_of(
        3,
        9,
        vec![vec![0, 1, 2, 3], vec![3, 4, 5, 6], vec![6, 7, 8]],
    );
    for (host, expect_fast) in [
        (topology::linear_array(3, DelayModel::constant(3), 0), true),
        (topology::ring(3, DelayModel::constant(3), 0), false),
    ] {
        let mut plan = ExecPlan::build(&guest, &host, &assign, config).unwrap();
        let receipt = plan
            .apply_delta(PlanDelta::LinkDelay {
                a: 0,
                b: 1,
                delay: 7,
            })
            .unwrap();
        assert_eq!(
            !receipt.relowered,
            expect_fast,
            "tree hosts patch in place; cyclic hosts re-lower ({})",
            host.name()
        );
        let mut h2 = host.clone();
        h2.set_link_delay(0, 1, 7);
        let fresh = ExecPlan::build(&guest, &h2, &assign, config).unwrap();
        assert_eq!(plan.run().unwrap(), fresh.run().unwrap());
        plan.apply_delta(receipt.inverse).unwrap();
        let base = ExecPlan::build(&guest, &host, &assign, config).unwrap();
        assert_eq!(plan.run().unwrap(), base.run().unwrap());
    }
}

/// Deltas naming a link the host does not have are rejected without
/// touching the plan.
#[test]
fn missing_link_delta_is_rejected() {
    let guest = GuestSpec::array(6, ProgramKind::StencilSum, 0, 4);
    let host = topology::linear_array(3, DelayModel::constant(2), 0);
    let assign = Assignment::blocked(3, 6);
    let mut plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap();
    let before = plan.run().unwrap();
    let err = plan
        .apply_delta(PlanDelta::LinkDelay {
            a: 0,
            b: 2,
            delay: 5,
        })
        .unwrap_err();
    assert!(matches!(
        err,
        overlap::RunError::MissingLink { from: 0, to: 2 }
    ));
    assert_eq!(plan.run().unwrap(), before, "failed delta must not mutate");
}
