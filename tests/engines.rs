//! Two engines and one baseline, one lowered plan: every strategy's
//! assignment is compiled once into an `ExecPlan`, and the event-driven
//! engine and the stepped oracle both consume that same plan. They must
//! compute the reference's state and equal each other on the whole timed
//! outcome, and the greedy makespan must never exceed the lockstep
//! baseline read off the plan.

use overlap::core::pipeline::{plan_placement, Strategy};
use overlap::model::{GuestSpec, ProgramKind, ReferenceRun};
use overlap::net::{topology, DelayModel};
use overlap::sim::engine::{Engine, EngineConfig};
use overlap::sim::stepped::run_stepped;
use overlap::sim::validate::validate_run;
use overlap::sim::{ExecPlan, RunOutcome};

fn strategies() -> Vec<Strategy> {
    vec![
        Strategy::Overlap { c: 4.0 },
        Strategy::Halo { halo: 1 },
        Strategy::Combined {
            c: 4.0,
            expansion: 2,
        },
        Strategy::Blocked,
        Strategy::Slackness,
    ]
}

/// The timed event run and the stepped oracle on one plan, asserted equal
/// on the whole `RunOutcome` (state, stats and completion ticks).
fn run_both(label: &str, plan: &ExecPlan) -> RunOutcome {
    let ev = Engine::from_plan(plan).run_timed().expect("event");
    let st = run_stepped(plan).expect("stepped");
    assert_eq!(ev, st, "{label}: stepped diverged from the timed event run");
    ev
}

#[test]
fn all_three_engines_agree_on_state_from_one_plan() {
    // Heterogeneous link delays, every placement strategy; one lowering
    // feeds both engines and the baseline, checked against the reference.
    let guest = GuestSpec::array(24, ProgramKind::KvWorkload, 11, 10);
    let host = topology::linear_array(8, DelayModel::uniform(1, 12), 5);
    let trace = ReferenceRun::execute(&guest);
    for s in strategies() {
        let placement = plan_placement(&guest, &host, s).expect("placement");
        let plan = ExecPlan::build(
            &guest,
            &host,
            &placement.assignment,
            EngineConfig::default(),
        )
        .expect("plan");
        let ev = run_both(&s.label(), &plan);
        assert!(
            validate_run(&trace, &ev).is_empty(),
            "{}: engine state mismatch",
            s.label()
        );
        let lk = plan.lockstep_makespan().expect("lockstep");
        assert!(
            ev.stats.makespan <= lk,
            "{}: greedy {} should not lose to lockstep {lk}",
            s.label(),
            ev.stats.makespan
        );
    }
}

#[test]
fn engines_agree_on_ring_fold_over_embedded_host() {
    // Ring guest (the slowdown-2 fold) on a non-path host: the plan is
    // lowered from the embedded placement and shared by both engines.
    let guest = GuestSpec::ring(18, ProgramKind::RuleAutomaton { db_size: 8 }, 3, 8);
    let host = topology::mesh2d(3, 3, DelayModel::uniform(1, 10), 7);
    let trace = ReferenceRun::execute(&guest);
    let placement = plan_placement(&guest, &host, Strategy::Overlap { c: 4.0 }).expect("placement");
    let plan = ExecPlan::build(
        &guest,
        &host,
        &placement.assignment,
        EngineConfig::default(),
    )
    .expect("plan");
    let ev = run_both("ring-fold", &plan);
    assert!(validate_run(&trace, &ev).is_empty());
    assert!(ev.stats.makespan <= plan.lockstep_makespan().expect("lockstep"));
}

#[test]
fn plan_reuse_is_bit_identical_to_fresh_lowerings() {
    // Two runs from one plan must equal two runs from two independent
    // lowerings, outcome-for-outcome — including the multicast tables.
    let guest = GuestSpec::array(24, ProgramKind::KvWorkload, 7, 12);
    let host = topology::mesh2d(3, 3, DelayModel::uniform(1, 9), 2);
    let placement = plan_placement(&guest, &host, Strategy::Halo { halo: 1 }).expect("placement");
    let a = &placement.assignment;
    for multicast in [false, true] {
        let cfg = EngineConfig {
            multicast,
            ..Default::default()
        };
        let shared = ExecPlan::build(&guest, &host, a, cfg).expect("plan");
        let r1 = Engine::from_plan(&shared).run().expect("first shared run");
        let r2 = Engine::from_plan(&shared).run().expect("second shared run");
        let f1 = Engine::new(&guest, &host, a, cfg).run().expect("fresh 1");
        let f2 = Engine::new(&guest, &host, a, cfg).run().expect("fresh 2");
        assert_eq!(r1, r2, "multicast={multicast}: shared plan not reusable");
        assert_eq!(r1, f1, "multicast={multicast}: shared vs fresh diverge");
        assert_eq!(f1, f2, "multicast={multicast}: fresh lowerings diverge");
    }
}

#[test]
fn calendar_engine_matches_stepped_on_planned_placements() {
    // The event engine's hot path must equal the stepped oracle's full
    // `RunOutcome` (stats, copy records, timing trace) on real pipeline
    // placements, in both route modes with jitter and costs.
    use overlap::sim::engine::Jitter;

    let guest = GuestSpec::array(24, ProgramKind::KvWorkload, 11, 10);
    let host = topology::mesh2d(3, 3, DelayModel::uniform(1, 12), 5);
    let costs: Vec<u32> = (0..9).map(|p| 1 + p % 3).collect();
    for s in [Strategy::Overlap { c: 4.0 }, Strategy::Blocked] {
        let placement = plan_placement(&guest, &host, s).expect("placement");
        let a = &placement.assignment;
        for multicast in [false, true] {
            let cfg = EngineConfig {
                multicast,
                jitter: Jitter::Periodic {
                    amplitude_pct: 30,
                    period: 16,
                },
                ..Default::default()
            };
            let plan = ExecPlan::build(&guest, &host, a, cfg)
                .expect("plan")
                .with_compute_costs(costs.clone());
            run_both(&format!("{} (multicast={multicast})", s.label()), &plan);
        }
    }
}

#[test]
fn lockstep_slowdown_tracks_dmax_while_greedy_does_not() {
    // The E10 story as a single integration check.
    // n must be large enough that the integer overlaps m_k are nonzero
    // (m_0 = n/(c·log n) ≥ 4 at n = 128), else OVERLAP degenerates to
    // blocked and pays the spike like everyone else.
    let guest = GuestSpec::array(512, ProgramKind::Relaxation, 5, 24);
    let mut lock_slow = Vec::new();
    let mut greedy_slow = Vec::new();
    for spike in [8u64, 1024] {
        let host = topology::line_with_middle_spike(128, spike);
        let placement =
            plan_placement(&guest, &host, Strategy::Overlap { c: 4.0 }).expect("placement");
        let plan = ExecPlan::build(
            &guest,
            &host,
            &placement.assignment,
            EngineConfig::default(),
        )
        .expect("plan");
        let lk = plan.lockstep_makespan().expect("lockstep");
        let ev = Engine::from_plan(&plan).run().expect("event");
        lock_slow.push(lk as f64 / guest.steps as f64);
        greedy_slow.push(ev.stats.slowdown);
    }
    let lock_growth = lock_slow[1] / lock_slow[0];
    let greedy_growth = greedy_slow[1] / greedy_slow[0];
    assert!(
        greedy_growth < lock_growth,
        "greedy growth {greedy_growth:.2} vs lockstep {lock_growth:.2}"
    );
}

#[test]
fn pebble_grid_as_taskgraph_is_bit_identical_to_line_guest() {
    // The tentpole invariant of the task-graph IR: the paper's pebble
    // grid expressed as an explicit `TaskGraph` must lower through the
    // same static tables as the native line guest and reproduce its full
    // `RunOutcome` — stats, copies, event counts — on both engines, and
    // its lockstep baseline.
    use overlap::model::TaskGraph;

    let (m, steps) = (24u32, 10u32);
    let line = GuestSpec::array(m, ProgramKind::KvWorkload, 11, steps);
    let dag = GuestSpec::dag(
        TaskGraph::pebble_grid(&line.topology, steps),
        ProgramKind::KvWorkload,
        11,
    );
    assert_eq!(dag.steps, steps);
    let host = topology::linear_array(8, DelayModel::uniform(1, 12), 5);
    for s in [
        Strategy::Overlap { c: 4.0 },
        Strategy::Halo { halo: 1 },
        Strategy::Blocked,
    ] {
        let placement = plan_placement(&line, &host, s).expect("placement");
        let a = &placement.assignment;
        let pl_line = ExecPlan::build(&line, &host, a, EngineConfig::default()).expect("line plan");
        let pl_dag = ExecPlan::build(&dag, &host, a, EngineConfig::default()).expect("dag plan");
        let label = s.label();
        assert_eq!(
            Engine::from_plan(&pl_line).run().expect("event line"),
            Engine::from_plan(&pl_dag).run().expect("event dag"),
            "{label}: event"
        );
        assert_eq!(
            run_stepped(&pl_line).expect("stepped line"),
            run_stepped(&pl_dag).expect("stepped dag"),
            "{label}: stepped"
        );
        assert_eq!(
            pl_line.lockstep_makespan().expect("lockstep line"),
            pl_dag.lockstep_makespan().expect("lockstep dag"),
            "{label}: lockstep"
        );
    }
}

#[test]
fn every_guest_shape_agrees_on_state_from_one_plan() {
    // Each guest shape the CLI describes, placed by the builder's default
    // (`Strategy::Auto`: the slot fold for lines and rings, Theorem 8 for
    // meshes, tori and 3-D meshes, subtree blocks for trees) and lowered
    // once: both engines run the plan and agree on the whole outcome, which
    // validates.
    let host = topology::linear_array(8, DelayModel::uniform(1, 9), 42);
    let (pk, seed, steps) = (ProgramKind::KvWorkload, 42, 16);
    for guest in [
        GuestSpec::array(16, pk, seed, steps),
        GuestSpec::ring(16, pk, seed, steps),
        GuestSpec::mesh(6, 6, pk, seed, steps),
        GuestSpec::torus(4, 4, pk, seed, steps),
        GuestSpec::mesh3(3, 3, 2, pk, seed, steps),
        GuestSpec::tree(5, pk, seed, steps),
    ] {
        let label = format!("{:?}", guest.topology);
        let placement = plan_placement(&guest, &host, Strategy::Auto).expect("placement");
        let plan = ExecPlan::build(
            &guest,
            &host,
            &placement.assignment,
            EngineConfig::default(),
        )
        .expect("plan");
        let trace = ReferenceRun::execute(&guest);
        let ev = run_both(&label, &plan);
        assert!(validate_run(&trace, &ev).is_empty(), "{label}");
    }
}
