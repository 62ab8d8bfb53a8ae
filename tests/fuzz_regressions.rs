//! Pinned differential-fuzzer repros, plus direct regression tests for
//! bugs the fuzzer found. A pinned repro is data: a JSON file under
//! `tests/fuzz_repros/` holding one `ScenarioSpec`, exactly the line
//! `overlap-cli fuzz` prints for a shrunk divergence, saved under the file
//! name it prints. `every_pinned_repro_replays_clean` replays every file
//! there through `check_spec`, and `tests/fuzz_repros/README.md` says what
//! each one pins.

use overlap::model::ProgramKind;
use overlap::net::DelayModel;
use overlap::sim::engine::{Engine, EngineConfig, RunError};
use overlap::sim::fuzz::{check_spec, AssignKind, GuestKind, HostKind, ScenarioSpec};
use overlap::sim::stepped::run_stepped;
use overlap::sim::{Assignment, BandwidthMode, ExecPlan, FaultPlan, Jitter};
use overlap::{topology, GuestSpec};
use std::fs;
use std::path::{Path, PathBuf};

fn repro_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fuzz_repros")
}

/// Parse one repro file and check it; the error says what failed.
fn replay(path: &Path) -> Result<(), String> {
    let json = fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    let spec: ScenarioSpec =
        serde_json::from_str(&json).map_err(|e| format!("does not parse: {e}"))?;
    check_spec(&spec)
}

#[test]
fn every_pinned_repro_replays_clean() {
    let mut files: Vec<PathBuf> = fs::read_dir(repro_dir())
        .expect("tests/fuzz_repros is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 6,
        "expected at least six pinned repros, read {}",
        files.len()
    );
    let failures: Vec<String> = files
        .iter()
        .filter_map(|f| replay(f).err().map(|e| format!("{}: {e}", f.display())))
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {} pinned repro(s) failed:\n{}",
        failures.len(),
        files.len(),
        failures.join("\n")
    );
}

/// Some repros also run under a test name of their own, so a filter such
/// as `cargo test case770` replays just that one.
macro_rules! pinned_repro {
    ($($test:ident => $file:literal,)*) => {$(
        #[test]
        fn $test() {
            let path = repro_dir().join($file);
            replay(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        }
    )*};
}

pinned_repro! {
    fuzz_repro_seed0_case770_crash_after_completion => "seed0_case770.json",
    fuzz_repro_seed0_case86_crash_straddles_makespans => "seed0_case86.json",
    fuzz_pin_dag_random_under_memory_budget => "dag_random_under_memory_budget.json",
    fuzz_pin_fork_join_relays_with_link_fault => "fork_join_relays_with_link_fault.json",
    fuzz_pin_wavefront_multicast => "wavefront_multicast.json",
    zero_layer_task_graph_is_well_defined => "zero_layer_task_graph.json",
}

/// Direct form of the finding `seed0_case770.json` pins: a crash far
/// beyond both makespans still loses the victim's copies in *both*
/// engines, and the fault counters agree with the plan.
#[test]
fn crash_beyond_makespan_still_destroys_copies() {
    let guest = GuestSpec::array(8, ProgramKind::KvWorkload, 3, 2);
    let host = topology::linear_array(4, DelayModel::constant(1), 0);
    let assign = Assignment::from_cells_of(
        4,
        8,
        vec![
            vec![0, 1, 2, 3],
            vec![2, 3, 4, 5],
            vec![4, 5, 6, 7],
            vec![6, 7, 0, 1],
        ],
    );
    let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default())
        .unwrap()
        .with_faults(FaultPlan::new().crash(1, 1_000_000))
        .unwrap();
    let ev = Engine::from_plan(&plan).run().expect("event");
    let st = run_stepped(&plan).expect("stepped");
    for (label, out) in [("event", &ev), ("stepped", &st)] {
        assert!(
            out.stats.makespan < 1_000_000,
            "{label}: the crash must be post-completion for this test"
        );
        assert_eq!(out.stats.faults.crashed_procs, 1, "{label}");
        assert!(
            out.copies.iter().all(|c| c.proc != 1),
            "{label}: crashed processor's copies must be lost"
        );
    }
    assert_eq!(
        ev.copies.len(),
        st.copies.len(),
        "engines must agree on the surviving set"
    );
}

/// Satellite regression: a fault plan naming a link the host does not
/// have used to abort the whole process inside fault lowering
/// (`no such link` panic). It must now surface as a typed error on every
/// path — attaching to a plan, and running a scenario.
#[test]
fn fault_on_missing_link_is_an_error_on_every_path() {
    let guest = GuestSpec::array(8, ProgramKind::StencilSum, 0, 4);
    let host = topology::linear_array(4, DelayModel::constant(2), 0);
    let assign = Assignment::blocked(4, 8);
    let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap();
    let err = plan
        .with_faults(FaultPlan::new().link_down(0, 3, 5, 10))
        .unwrap_err();
    assert!(
        matches!(err, RunError::MissingLink { from: 0, to: 3 }),
        "{err:?}"
    );

    // The fuzzer reports the same misconfiguration as a divergence
    // instead of dying.
    let spec = ScenarioSpec {
        guest: GuestKind::Line(8),
        program: ProgramKind::StencilSum,
        steps: 4,
        guest_seed: 0,
        host: HostKind::Line(4),
        delays: DelayModel::Constant(2),
        host_seed: 0,
        assign: AssignKind::Blocked,
        costs: None,
        multicast: false,
        mem: None,
        faults: FaultPlan::new().link_down(0, 3, 5, 10),
        bandwidth: BandwidthMode::LogN,
        jitter: Jitter::None,
    };
    let detail = check_spec(&spec).unwrap_err();
    assert!(detail.contains("fault plan rejected"), "{detail}");
}

/// Satellite regression: crashing a processor the host does not have is a
/// typed error, not an index panic.
#[test]
fn crash_of_missing_processor_is_an_error() {
    let guest = GuestSpec::array(8, ProgramKind::StencilSum, 0, 4);
    let host = topology::linear_array(4, DelayModel::constant(2), 0);
    let assign = Assignment::blocked(4, 8);
    let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap();
    let err = plan.with_faults(FaultPlan::new().crash(17, 5)).unwrap_err();
    assert!(
        matches!(err, RunError::NoSuchProcessor { proc: 17, procs: 4 }),
        "{err:?}"
    );
}

/// Satellite regression: zero-step guests are legal everywhere — every
/// engine completes with an empty, well-defined outcome (makespan 0,
/// finite ratios, no NaNs) instead of dividing by zero.
#[test]
fn zero_step_scenarios_are_well_defined() {
    for (assign, multicast) in [
        (AssignKind::Blocked, false),
        (AssignKind::AllOnOne, false),
        (AssignKind::Redundant { seed: 11 }, false),
        (AssignKind::Blocked, true),
    ] {
        let spec = ScenarioSpec {
            guest: GuestKind::Ring(9),
            program: ProgramKind::RuleAutomaton { db_size: 4 },
            steps: 0,
            guest_seed: 5,
            host: HostKind::Mesh(2, 2),
            delays: DelayModel::Uniform { lo: 1, hi: 7 },
            host_seed: 9,
            assign,
            costs: None,
            multicast,
            mem: None,
            faults: FaultPlan::new(),
            bandwidth: BandwidthMode::LogN,
            jitter: Jitter::None,
        };
        check_spec(&spec).unwrap_or_else(|d| panic!("{assign:?}/multicast={multicast}: {d}"));
    }

    let guest = GuestSpec::array(6, ProgramKind::KvWorkload, 1, 0);
    let host = topology::linear_array(3, DelayModel::constant(3), 0);
    let assign = Assignment::blocked(3, 6);
    let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap();
    let out = Engine::from_plan(&plan).run().expect("zero-step event run");
    assert_eq!(out.stats.makespan, 0);
    assert_eq!(out.stats.total_compute, 0);
    assert_eq!(out.stats.slowdown, 0.0);
    assert!(out.stats.efficiency().is_finite());
    assert!(out.stats.work_overhead().is_finite());
}

/// Satellite regression: crash recovery on a *disconnected* host used to
/// panic (`expect("connected host")`) in every fault-capable engine. A
/// cell redundantly held in two components, all subscriptions
/// intra-component (so the plan builds cleanly), then a crash of the
/// same-component holder: the nearest surviving holder sits across the
/// cut with no path to the orphaned consumer. That must surface as
/// `RunError::NoRouteToHolder`, identically everywhere.
#[test]
fn crash_recovery_without_a_route_is_an_error_not_a_panic() {
    use overlap::model::taskgraph::DagBuilder;
    use overlap::net::HostGraph;

    // Lane 0 is a self-contained chain; lane 1 consumes lane 0. Only the
    // lane-1 copy ever subscribes, so the redundant lane-0 copy on the
    // isolated processor needs no route at build time.
    let mut b = DagBuilder::new(2);
    let t0 = b.node(0, 1, &[]);
    let t1 = b.node(0, 1, &[t0]);
    let t2 = b.node(0, 1, &[t1]);
    let u1 = b.node(1, 1, &[t0]);
    let u2 = b.node(1, 1, &[t1, u1]);
    let _ = b.node(1, 1, &[t2, u2]);
    let guest = GuestSpec::dag(b.build().unwrap(), ProgramKind::KvWorkload, 7);

    // Processors {0, 1} are linked; processor 2 is an island holding the
    // redundant copy of cell 0.
    let mut host = HostGraph::new("split-host", 3);
    host.add_link(0, 1, 2);
    let assign = Assignment::from_cells_of(3, 2, vec![vec![0], vec![1], vec![0]]);

    let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default())
        .unwrap()
        .with_faults(FaultPlan::new().crash(0, 1))
        .unwrap();
    let want = RunError::NoRouteToHolder {
        cell: 0,
        holder: 2,
        consumer: 1,
        tick: 1,
    };
    assert_eq!(Engine::from_plan(&plan).run().unwrap_err(), want, "event");
    assert_eq!(run_stepped(&plan).unwrap_err(), want, "stepped");
}
