//! Determinism: the whole pipeline — topology generation, embedding,
//! planning, simulation — is a pure function of its seeds.

use overlap::model::{fold64, GuestSpec, ProgramKind, ReferenceRun};
use overlap::net::{topology, DelayModel, HostGraph};
use overlap::sim::engine::{Engine, EngineConfig, Jitter};
use overlap::sim::{run_stepped, Assignment, ExecPlan};
use overlap::{Simulation, Strategy};
/// Run via the builder facade (the old free-function entry points are
/// deprecated).
fn simulate(
    guest: &overlap::GuestSpec,
    host: &overlap::HostGraph,
    strategy: Strategy,
) -> Result<overlap::SimReport, overlap::Error> {
    Simulation::of(guest)
        .on(host)
        .strategy(strategy)
        .build()
        .and_then(|s| s.run())
}

#[test]
fn pipeline_is_deterministic_across_runs() {
    let guest = GuestSpec::array(28, ProgramKind::KvWorkload, 17, 14);
    let host = topology::mesh2d(4, 4, DelayModel::uniform(1, 15), 8);
    let a = simulate(&guest, &host, Strategy::Overlap { c: 4.0 }).unwrap();
    let b = simulate(&guest, &host, Strategy::Overlap { c: 4.0 }).unwrap();
    assert_eq!(a.stats.makespan, b.stats.makespan);
    assert_eq!(a.stats.messages, b.stats.messages);
    assert_eq!(a.stats.pebble_hops, b.stats.pebble_hops);
}

#[test]
fn reference_trace_is_seed_stable() {
    let a = ReferenceRun::execute(&GuestSpec::array(10, ProgramKind::KvWorkload, 42, 8));
    let b = ReferenceRun::execute(&GuestSpec::array(10, ProgramKind::KvWorkload, 42, 8));
    assert_eq!(a, b);
}

/// Golden end-to-end run: every feature that affects event ordering at
/// once — hand-built heterogeneous host, overlapping assignment, multicast
/// trees, delay jitter, per-processor compute costs, timing trace. The
/// asserted values were recorded from a verified run; any engine change
/// that shifts event order, link-id assignment, or tie-breaking will move
/// at least one of them.
#[test]
fn golden_engine_run_is_bit_stable() {
    let guest = GuestSpec::array(9, ProgramKind::KvWorkload, 5, 12);
    let mut host = HostGraph::new("golden", 4);
    host.add_link(0, 1, 3);
    host.add_link(1, 2, 5);
    host.add_link(2, 3, 2);
    host.add_link(0, 2, 7);
    let assign = Assignment::from_cells_of(
        4,
        9,
        vec![vec![0, 1, 2], vec![2, 3, 4], vec![4, 5, 6, 7], vec![7, 8]],
    );
    let cfg = EngineConfig {
        multicast: true,
        jitter: Jitter::Periodic {
            amplitude_pct: 40,
            period: 8,
        },
        ..Default::default()
    };
    let plan = ExecPlan::build(&guest, &host, &assign, cfg)
        .unwrap()
        .with_compute_costs(vec![1, 3, 2, 1]);
    let out = Engine::from_plan(&plan).run_timed().expect("golden run");

    // One order-sensitive digest over every copy's audit record.
    let mut digest = 0x60u64;
    for c in &out.copies {
        for x in [
            c.cell as u64,
            c.proc as u64,
            c.value_fold,
            c.db_digest,
            c.update_fold,
            c.finished_at,
        ] {
            digest = fold64(digest, x);
        }
    }
    // And over the full timing trace.
    let timing = out.timing.as_ref().expect("timing recorded");
    let mut tdigest = 0x71u64;
    for ticks in &timing.ticks {
        for &t in ticks {
            tdigest = fold64(tdigest, t);
        }
    }
    assert_eq!(out.stats.makespan, 108);
    assert_eq!(out.stats.messages, 60);
    assert_eq!(out.stats.pebble_hops, 72);
    assert_eq!(out.stats.events_processed, 216);
    assert_eq!(out.stats.peak_queue_depth, 8);
    assert_eq!(digest, 0x099061efa035f13e, "copy records moved");
    assert_eq!(tdigest, 0x13bc53be88719ba8, "timing trace moved");

    // The stepped oracle must agree bit for bit.
    assert_eq!(out, run_stepped(&plan).expect("stepped run"));
}

/// The stall-attribution tracer must observe without perturbing: re-run
/// the golden scenario traced and it must still agree bit for bit with
/// the stepped oracle once the trace-only fields are stripped, while the
/// attributed ticks partition every copy's `[0, makespan)` exactly.
#[test]
fn traced_golden_run_matches_stepped_oracle_and_conserves() {
    let guest = GuestSpec::array(9, ProgramKind::KvWorkload, 5, 12);
    let mut host = HostGraph::new("golden", 4);
    host.add_link(0, 1, 3);
    host.add_link(1, 2, 5);
    host.add_link(2, 3, 2);
    host.add_link(0, 2, 7);
    let assign = Assignment::from_cells_of(
        4,
        9,
        vec![vec![0, 1, 2], vec![2, 3, 4], vec![4, 5, 6, 7], vec![7, 8]],
    );
    let cfg = EngineConfig {
        multicast: true,
        jitter: Jitter::Periodic {
            amplitude_pct: 40,
            period: 8,
        },
        ..Default::default()
    };
    let plan = ExecPlan::build(&guest, &host, &assign, cfg)
        .unwrap()
        .with_compute_costs(vec![1, 3, 2, 1]);
    let out = Engine::from_plan(&plan)
        .run_traced()
        .expect("traced golden run");

    let report = out.trace.as_ref().expect("tracing was enabled");
    assert_eq!(report.per_copy.len(), out.copies.len());
    for (i, b) in report.per_copy.iter().enumerate() {
        assert_eq!(b.total(), out.stats.makespan, "copy {i} leaks ticks");
    }
    assert_eq!(
        report.totals.total(),
        out.stats.makespan * out.copies.len() as u64
    );

    let oracle = run_stepped(&plan).expect("stepped run");
    let mut stripped = out;
    stripped.trace = None;
    stripped.stats.stalls = None;
    assert_eq!(stripped, oracle, "tracing perturbed the schedule");
}

/// The one golden scenario that combines every fault event at once: a
/// link outage (forcing retries), a delay spike, and a processor crash
/// that strands subscribers and triggers re-subscription plus replayed
/// backfill sends. The event run must still validate against the
/// reference, and the independent stepped engine must reproduce its whole
/// timed outcome.
#[test]
fn event_and_stepped_agree_under_crash_faults() {
    use overlap::sim::validate_run;
    use overlap::FaultPlan;

    let guest = GuestSpec::array(24, ProgramKind::Relaxation, 11, 20);
    let host = topology::linear_array(6, DelayModel::uniform(1, 7), 5);
    // Every cell on exactly two processors, so the crash strands live
    // subscribers (re-subscription) instead of losing a column.
    let assign = Assignment::from_cells_of(
        6,
        24,
        (0..6u32)
            .map(|p| (0..8).map(|i| (4 * p + i) % 24).collect())
            .collect(),
    );
    let cfg = EngineConfig::default();
    let faults = FaultPlan::new()
        .link_down(1, 2, 10, 40)
        .delay_spike(0, 1, 5, 60, 3)
        .crash(3, 55);
    let plan = ExecPlan::build(&guest, &host, &assign, cfg)
        .unwrap()
        .with_faults(faults)
        .unwrap();
    let reference = ReferenceRun::execute(&guest);
    let ev = Engine::from_plan(&plan).run_timed().expect("event run");
    assert!(ev.stats.faults.crashed_procs > 0, "crash did not land");
    assert!(
        ev.stats.faults.rerouted_subscriptions > 0,
        "no re-subscription exercised"
    );
    assert!(ev.stats.faults.retries > 0, "outage forced no retries");
    assert_eq!(validate_run(&reference, &ev), vec![], "event vs reference");

    let st = run_stepped(&plan).expect("stepped run");
    assert_eq!(st, ev, "stepped diverged from the timed event run");
}

#[test]
fn topology_generation_is_seed_stable() {
    for seed in 0..4 {
        let a = topology::random_regular(20, 3, DelayModel::uniform(1, 99), seed);
        let b = topology::random_regular(20, 3, DelayModel::uniform(1, 99), seed);
        assert_eq!(a.links(), b.links());
    }
    let a = topology::h2_recursive_boxes(512);
    let b = topology::h2_recursive_boxes(512);
    assert_eq!(a.graph.links(), b.graph.links());
    assert_eq!(a.segments.len(), b.segments.len());
}
