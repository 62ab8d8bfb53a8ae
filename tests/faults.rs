//! Fault-injection contracts, deterministically.
//!
//! * An **empty** fault plan is free: the engine must produce a
//!   `RunOutcome` bit-identical to the no-faults engine, and its timed run
//!   must equal the stepped oracle's, across unicast/multicast × jitter.
//! * A mid-run holder **crash** degrades gracefully: orphaned
//!   subscriptions are rerouted to surviving copies and the run still
//!   validates bit-exactly against the unit-delay reference.
//! * A link that never comes back exhausts the retry budget with the same
//!   typed error on every engine path.
//!
//! (`tests/prop_faults.rs` re-checks the identity property over random
//! scenarios with proptest.)

use overlap::sim::run_stepped;
use overlap::{
    topology, validate_run, DelayModel, Engine, EngineConfig, Error, ExecPlan, FaultPlan,
    GuestSpec, Jitter, ProgramKind, ReferenceRun, RunError, Simulation, Strategy,
};

#[test]
fn empty_fault_plan_is_bit_identical_across_engines_and_configs() {
    let guest = GuestSpec::array(24, ProgramKind::KvWorkload, 11, 12);
    let host = topology::linear_array(8, DelayModel::uniform(1, 9), 5);
    let assign = overlap::Assignment::blocked(8, 24);
    for multicast in [false, true] {
        for jitter in [
            Jitter::None,
            Jitter::Periodic {
                amplitude_pct: 40,
                period: 6,
            },
        ] {
            let cfg = EngineConfig {
                multicast,
                jitter,
                ..EngineConfig::default()
            };
            let plain = Engine::new(&guest, &host, &assign, cfg)
                .run()
                .expect("plain");
            let plan = ExecPlan::build(&guest, &host, &assign, cfg)
                .unwrap()
                .with_faults(FaultPlan::new())
                .unwrap();
            let empty = Engine::from_plan(&plan).run().expect("empty plan");
            let timed = Engine::from_plan(&plan).run_timed().expect("timed");
            assert_eq!(
                plain, empty,
                "empty plan diverged (multicast={multicast}, jitter={jitter:?})"
            );
            assert_eq!(
                timed,
                run_stepped(&plan).expect("stepped"),
                "faulty-capable engine diverged from stepped (multicast={multicast}, jitter={jitter:?})"
            );
        }
    }
}

#[test]
fn empty_plan_via_builder_matches_plain_builder_run() {
    let guest = GuestSpec::array(32, ProgramKind::Relaxation, 3, 16);
    let host = topology::linear_array(8, DelayModel::uniform(1, 12), 9);
    let plain = Simulation::of(&guest)
        .on(&host)
        .strategy(Strategy::Halo { halo: 1 })
        .build()
        .and_then(|s| s.run())
        .expect("plain");
    let empty = Simulation::of(&guest)
        .on(&host)
        .strategy(Strategy::Halo { halo: 1 })
        .faults(FaultPlan::new())
        .build()
        .and_then(|s| s.run())
        .expect("empty plan");
    assert_eq!(plain.outcome, empty.outcome);
    assert_eq!(plain.stats, empty.stats);
}

#[test]
fn mid_run_holder_crash_still_validates_against_the_reference() {
    let guest = GuestSpec::array(32, ProgramKind::KvWorkload, 7, 24);
    let host = topology::linear_array(8, DelayModel::uniform(1, 6), 5);
    // Block-wide halo: every column is held by at least two processors,
    // so any single crash is survivable.
    let strategy = Strategy::Halo { halo: 4 };
    let clean = Simulation::of(&guest)
        .on(&host)
        .strategy(strategy)
        .build()
        .and_then(|s| s.run())
        .expect("clean");
    let crash_at = clean.stats.makespan / 3;
    let r = Simulation::of(&guest)
        .on(&host)
        .strategy(strategy)
        .faults(FaultPlan::new().crash(3, crash_at))
        .build()
        .and_then(|s| s.run())
        .expect("crashed run must complete");
    assert!(r.validated, "{} copy mismatches", r.mismatches);
    let f = r.stats.faults;
    assert_eq!(f.crashed_procs, 1);
    assert!(f.lost_copies > 0);
    assert!(
        f.rerouted_subscriptions > 0,
        "the crashed holder served subscriptions that must be rerouted"
    );
    // The crashed processor's copies are gone from the outcome.
    assert!(r.outcome.copies.iter().all(|c| c.proc != 3));
}

#[test]
fn crashing_the_only_holder_aborts_with_column_lost() {
    let guest = GuestSpec::array(24, ProgramKind::StencilSum, 2, 16);
    let host = topology::linear_array(8, DelayModel::uniform(1, 6), 5);
    let err = Simulation::of(&guest)
        .on(&host)
        .strategy(Strategy::Blocked)
        .faults(FaultPlan::new().crash(2, 4))
        .build()
        .and_then(|s| s.run())
        .unwrap_err();
    assert!(
        matches!(err, Error::Run(RunError::ColumnLost { .. })),
        "got {err}"
    );
}

#[test]
fn link_outage_retries_and_still_validates() {
    let guest = GuestSpec::array(32, ProgramKind::KvWorkload, 5, 24);
    let host = topology::linear_array(8, DelayModel::uniform(1, 6), 7);
    let r = Simulation::of(&guest)
        .on(&host)
        .strategy(Strategy::Blocked)
        .faults(FaultPlan::new().link_down(3, 4, 10, 200))
        .build()
        .and_then(|s| s.run())
        .expect("outage run");
    assert!(r.validated);
    let f = r.stats.faults;
    assert!(f.retries > 0, "transfers in the outage window must retry");
    assert!(f.fault_stall_ticks > 0);
    let trace = ReferenceRun::execute(&guest);
    assert!(validate_run(&trace, &r.outcome).is_empty());
}

#[test]
fn link_down_for_good_exhausts_retries_on_every_path() {
    let guest = GuestSpec::array(8, ProgramKind::KvWorkload, 42, 6);
    let host = topology::linear_array(4, DelayModel::constant(1), 42);
    let assign = overlap::Assignment::blocked(4, 8);
    let faults = FaultPlan::new().link_down(1, 2, 0, 1_000_000_000);
    let want = RunError::RetriesExhausted {
        link: 3,
        tick: 155_696,
    };
    for multicast in [false, true] {
        let cfg = EngineConfig {
            multicast,
            ..EngineConfig::default()
        };
        let plan = ExecPlan::build(&guest, &host, &assign, cfg)
            .unwrap()
            .with_faults(faults.clone())
            .unwrap();
        let event = Engine::from_plan(&plan).run().unwrap_err();
        assert_eq!(event, want, "event engine, multicast {multicast}");
        if !multicast {
            assert_eq!(run_stepped(&plan).unwrap_err(), want, "stepped engine");
        }
    }
    let err = Simulation::of(&guest)
        .on(&host)
        .strategy(Strategy::Blocked)
        .faults(faults)
        .build()
        .and_then(|s| s.run())
        .unwrap_err();
    assert!(matches!(&err, Error::Run(e) if *e == want), "got {err}");
}
