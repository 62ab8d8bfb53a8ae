//! Property-based fault contracts: over random guests, hosts, and engine
//! configurations,
//!
//! * an empty fault plan is bit-identical to the no-faults engine **and**
//!   to the frozen classic engine (unicast/multicast × jitter), and
//! * a survivable mid-run holder crash still validates bit-exactly
//!   against the unit-delay reference.

use overlap::sim::engine_classic::run_classic;
use overlap::{
    topology, validate_run, Assignment, DelayModel, Engine, EngineConfig, ExecPlan, FaultPlan,
    GuestSpec, Jitter, ProgramKind, ReferenceRun,
};
use proptest::prelude::*;

fn program_strategy() -> impl Strategy<Value = ProgramKind> {
    prop_oneof![
        Just(ProgramKind::StencilSum),
        (2u32..32).prop_map(|s| ProgramKind::RuleAutomaton { db_size: s }),
        Just(ProgramKind::KvWorkload),
        Just(ProgramKind::Relaxation),
    ]
}

fn jitter_strategy() -> impl Strategy<Value = Jitter> {
    prop_oneof![
        Just(Jitter::None),
        (1u8..=80, 2u32..16).prop_map(|(amplitude_pct, period)| Jitter::Periodic {
            amplitude_pct,
            period
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn empty_fault_plan_is_bit_identical(
        pk in program_strategy(),
        jitter in jitter_strategy(),
        multicast in any::<bool>(),
        procs in 2u32..9,
        cells_per in 1u32..4,
        steps in 1u32..16,
        seed in 0u64..1000,
    ) {
        let cells = procs * cells_per;
        let guest = GuestSpec::array(cells, pk, seed, steps);
        let host = topology::linear_array(procs, DelayModel::uniform(1, 12), seed);
        let assign = Assignment::blocked(procs, cells);
        let cfg = EngineConfig { multicast, jitter, ..EngineConfig::default() };
        let plain = Engine::new(&guest, &host, &assign, cfg).run().expect("plain");
        let empty = ExecPlan::build(&guest, &host, &assign, cfg)
            .unwrap()
            .with_faults(FaultPlan::new())
            .unwrap()
            .run()
            .expect("empty plan");
        let classic = run_classic(&guest, &host, &assign, cfg, None, false).expect("classic");
        prop_assert_eq!(&plain, &empty);
        prop_assert_eq!(&plain, &classic);
    }

    #[test]
    fn survivable_crashes_still_validate(
        pk in program_strategy(),
        procs in 3u32..8,
        cells_per in 1u32..4,
        steps in 4u32..16,
        seed in 0u64..1000,
        victim_pick in 0u32..100,
        when_pct in 5u64..80,
    ) {
        let cells = procs * cells_per;
        let guest = GuestSpec::array(cells, pk, seed, steps);
        let host = topology::linear_array(procs, DelayModel::uniform(1, 8), seed);
        // Double coverage: every processor holds its block and its right
        // neighbour's (wrapping), so any single crash is survivable.
        let blocked = Assignment::blocked(procs, cells);
        let cells_of: Vec<Vec<u32>> = (0..procs)
            .map(|p| {
                let mut v: Vec<u32> = blocked.cells_of(p).to_vec();
                v.extend_from_slice(blocked.cells_of((p + 1) % procs));
                v.sort_unstable();
                v
            })
            .collect();
        let assign = Assignment::from_cells_of(procs, cells, cells_of);
        let cfg = EngineConfig::default();
        let clean = Engine::new(&guest, &host, &assign, cfg).run().expect("clean");
        let victim = victim_pick % procs;
        let crash_at = (clean.stats.makespan * when_pct / 100).max(1);
        let out = ExecPlan::build(&guest, &host, &assign, cfg)
            .unwrap()
            .with_faults(FaultPlan::new().crash(victim, crash_at))
            .unwrap()
            .run()
            .expect("survivable crash must complete");
        let trace = ReferenceRun::execute(&guest);
        let errors = validate_run(&trace, &out);
        prop_assert!(errors.is_empty(), "{} mismatches after crash", errors.len());
        prop_assert_eq!(out.stats.faults.crashed_procs, 1);
        prop_assert!(out.copies.iter().all(|c| c.proc != victim));
    }
}
