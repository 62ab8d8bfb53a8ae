//! Cross-engine differential fuzzer and invariant audit.
//!
//! The repo's correctness story rests on one claim: the event engine, the
//! stepped oracle and the unit-delay reference all agree — the two
//! engines on every field of the timed outcome, completion ticks
//! included, the event engine with the reference on state, and the event
//! engine never slower than the lockstep baseline — for *every* scenario
//! the lowering accepts, not just the handful the unit tests pick. This
//! module turns that claim into a machine-checkable property:
//!
//! 1. [`gen_spec`] samples an arbitrary [`ScenarioSpec`] (guest topology
//!    and program, host graph and delay model, assignment shape, compute
//!    costs, multicast, memory budget, link bandwidth, jitter, fault
//!    schedule) from a seeded deterministic PRNG;
//! 2. [`check_spec`] lowers the scenario **once** into an
//!    [`ExecPlan`] and drives both engines through it, auditing the
//!    invariant catalogue below;
//! 3. on a failure, [`shrink`] greedily simplifies the spec (drop faults,
//!    clear costs, reset bandwidth and jitter, flatten delays, halve the
//!    guest/host) while the failure persists, re-checking each candidate
//!    from scratch through
//!    [`check_spec`]. A spec is plain serde data, so the minimal scenario
//!    is pinned as a JSON file under `tests/fuzz_repros/`, which
//!    `tests/fuzz_regressions.rs` replays through [`check_spec`].
//!
//! `overlap-cli fuzz` and `tests/fuzz_differential.rs` drive the loop:
//! generate, check, shrink each failure and print it as a JSON line.
//!
//! # Invariant catalogue
//!
//! * **State** — the event engine's surviving copies match the reference
//!   trace ([`validate_run`]).
//! * **Time and state agreement** — the stepped oracle ([`run_stepped`])
//!   equals the timed event run ([`Engine::run_timed`]) on the whole
//!   [`RunOutcome`], with no field exempt: copy state, every stat (event
//!   count and peak queue depth included) and every completion tick. Both
//!   follow the same-tick rule of DESIGN §8.
//! * **Plan reuse, timing is free** — an untimed rerun off the same
//!   `ExecPlan` is bit-identical to the timed event run once its
//!   completion ticks are stripped (`RunOutcome` equality).
//! * **Tracing is free** — on every case, a traced run equals the timed
//!   run once the stall report is stripped, and its stall breakdown
//!   conserves ticks per copy (`total() == makespan`) and in total; on
//!   crash-free runs it books exactly the run's memory-reload ticks.
//! * **Causality** — on every event run ([`Engine::run_timed`]), per-copy
//!   completion ticks strictly increase and row `t` never completes
//!   before row `t-1` ([`audit_causality`]).
//! * **Accounting** — `guest_work = cells × steps`; fault-free runs
//!   compute exactly `copies × steps` pebbles and report zeroed
//!   [`FaultStats`]; every derived ratio
//!   (slowdown, efficiency, work overhead, mean link pebbles) is finite.
//! * **Time ordering** — the greedy event engine never loses to the
//!   lockstep bound on the same plan ([`ExecPlan::lockstep_makespan`],
//!   wherever its closed form applies).

use crate::assignment::Assignment;
use crate::bandwidth::BandwidthMode;
use crate::engine::{Engine, EngineConfig, Jitter, MemBudget, RunOutcome};
use crate::faults::{FaultPlan, SplitMix64};
use crate::plan::ExecPlan;
use crate::stats::FaultStats;
use crate::stepped::run_stepped;
use crate::trace::StallBreakdown;
use crate::validate::{audit_causality, validate_run};
use overlap_model::{GuestSpec, ProgramKind, ReferenceRun, TaskGraph};
use overlap_net::topology;
use overlap_net::{DelayModel, HostGraph, NodeId};
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// deterministic PRNG
// ---------------------------------------------------------------------------

/// The fault module's SplitMix64 behind the fuzzer's own seed transform,
/// which fixes every scenario stream.
fn fuzz_rng(seed: u64) -> SplitMix64 {
    SplitMix64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1))
}

// ---------------------------------------------------------------------------
// scenario specification (plain serde data, shrinkable)
// ---------------------------------------------------------------------------

/// Guest topology of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GuestKind {
    /// Line of `m` cells.
    Line(u32),
    /// Ring of `m ≥ 3` cells.
    Ring(u32),
    /// `w × h` mesh.
    Mesh(u32, u32),
    /// Complete binary tree of `levels ≥ 1`.
    Tree(u32),
    /// Seeded random layered DAG over `dbs` lanes: each task reads its
    /// own lane plus up to `extra` others at the previous layer with
    /// costs in `1..=max_cost` ([`TaskGraph::layered_random`]); the
    /// spec's `steps` is the layer count. Non-uniform whenever `extra`
    /// or `max_cost` exceed the trivial values, exercising the dynamic
    /// per-`(cell, step)` lowering.
    DagRandom {
        /// Lane (database) count.
        dbs: u32,
        /// Extra cross-lane dependencies per task.
        extra: u32,
        /// Upper bound on per-task compute cost.
        max_cost: u32,
        /// Graph-shape seed.
        seed: u64,
    },
    /// Wavefront (systolic) sweep over `lanes` lanes
    /// ([`TaskGraph::wavefront`]) — an asymmetric stencil no grid
    /// topology expresses, yet uniform (static lowering); the spec's
    /// `steps` is the layer count.
    Wavefront(u32),
    /// Fork-join diamond of `levels` ([`TaskGraph::fork_join`]): relays
    /// off the active frontier make it non-uniform. Its layer count is
    /// fixed at `2·levels − 1`, overriding the spec's `steps`.
    ForkJoin(u32),
}

impl GuestKind {
    /// Number of guest cells this kind produces.
    pub fn num_cells(self) -> u32 {
        match self {
            GuestKind::Line(m) | GuestKind::Ring(m) => m,
            GuestKind::Mesh(w, h) => w * h,
            GuestKind::Tree(levels) => (1u32 << levels) - 1,
            GuestKind::DagRandom { dbs, .. } => dbs,
            GuestKind::Wavefront(lanes) => lanes,
            GuestKind::ForkJoin(levels) => 1u32 << (levels - 1),
        }
    }
}

/// Host topology of a scenario (delays come from the spec's
/// [`DelayModel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HostKind {
    /// Linear array of `n` processors.
    Line(u32),
    /// Ring of `n ≥ 3` processors.
    Ring(u32),
    /// `w × h` mesh.
    Mesh(u32, u32),
    /// Complete binary tree of `levels ≥ 2`.
    Tree(u32),
}

impl HostKind {
    /// Number of processors this kind produces.
    pub fn num_procs(self) -> u32 {
        match self {
            HostKind::Line(n) | HostKind::Ring(n) => n,
            HostKind::Mesh(w, h) => w * h,
            HostKind::Tree(levels) => (1u32 << levels) - 1,
        }
    }

    /// Build this host with link delays drawn from `delays` under `seed`.
    fn build(self, delays: DelayModel, seed: u64) -> HostGraph {
        match self {
            HostKind::Line(n) => topology::linear_array(n, delays, seed),
            HostKind::Ring(n) => topology::ring(n, delays, seed),
            HostKind::Mesh(w, h) => topology::mesh2d(w, h, delays, seed),
            HostKind::Tree(levels) => topology::binary_tree(levels, delays, seed),
        }
    }
}

/// Database-assignment shape of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AssignKind {
    /// Contiguous blocks, one copy per cell ([`Assignment::blocked`]).
    Blocked,
    /// Every database on processor 0 ([`Assignment::all_on_one`]).
    AllOnOne,
    /// Every cell on exactly two distinct random processors — the only
    /// shape under which the generator schedules crashes (one crash is
    /// always survivable).
    Redundant {
        /// Placement seed.
        seed: u64,
    },
}

/// A complete, self-contained scenario description. Everything an engine
/// run depends on is spelled out here, so a spec can be regenerated,
/// shrunk, saved as JSON, and replayed across sessions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Guest topology.
    pub guest: GuestKind,
    /// Guest program.
    pub program: ProgramKind,
    /// Guest steps (0 is legal: the degenerate empty run).
    pub steps: u32,
    /// Guest init seed.
    pub guest_seed: u64,
    /// Host topology.
    pub host: HostKind,
    /// Link-delay distribution.
    pub delays: DelayModel,
    /// Host delay-sampling seed.
    pub host_seed: u64,
    /// Assignment shape.
    pub assign: AssignKind,
    /// Per-processor compute costs (ticks per pebble), if any.
    pub costs: Option<Vec<u32>>,
    /// Lower the plan for multicast trees instead of unicast routes.
    pub multicast: bool,
    /// Per-processor memory budget on database copies (red–blue pebbling
    /// mode; event and stepped engines only).
    pub mem: Option<MemBudget>,
    /// Scheduled faults (empty: a fault-free run).
    pub faults: FaultPlan,
    /// Link bandwidth (absent from specs saved before it was drawn).
    #[serde(default)]
    pub bandwidth: BandwidthMode,
    /// Link-delay jitter (absent from specs saved before it was drawn).
    #[serde(default)]
    pub jitter: Jitter,
}

impl ScenarioSpec {
    /// Build the guest this spec describes.
    pub fn build_guest(&self) -> GuestSpec {
        let (p, s, t) = (self.program, self.guest_seed, self.steps);
        match self.guest {
            GuestKind::Line(m) => GuestSpec::array(m, p, s, t),
            GuestKind::Ring(m) => GuestSpec::ring(m, p, s, t),
            GuestKind::Mesh(w, h) => GuestSpec::mesh(w, h, p, s, t),
            GuestKind::Tree(levels) => GuestSpec::tree(levels, p, s, t),
            GuestKind::DagRandom {
                dbs,
                extra,
                max_cost,
                seed,
            } => GuestSpec::dag(
                TaskGraph::layered_random(dbs, t, extra, max_cost, seed),
                p,
                s,
            ),
            GuestKind::Wavefront(lanes) => GuestSpec::dag(TaskGraph::wavefront(lanes, t), p, s),
            GuestKind::ForkJoin(levels) => GuestSpec::dag(TaskGraph::fork_join(levels), p, s),
        }
    }

    /// Build the host this spec describes.
    pub fn build_host(&self) -> HostGraph {
        self.host.build(self.delays, self.host_seed)
    }

    /// Build the assignment this spec describes.
    pub fn build_assignment(&self) -> Assignment {
        let procs = self.host.num_procs();
        let cells = self.guest.num_cells();
        match self.assign {
            AssignKind::Blocked => Assignment::blocked(procs, cells),
            AssignKind::AllOnOne => Assignment::all_on_one(procs, cells),
            AssignKind::Redundant { seed } => {
                let mut rng = fuzz_rng(seed);
                let holders = (0..cells)
                    .map(|_| {
                        let first = rng.below(procs as u64) as NodeId;
                        let second = (first + 1 + rng.below(procs as u64 - 1) as NodeId) % procs;
                        vec![first, second]
                    })
                    .collect();
                Assignment::from_holders(procs, cells, holders)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// generation
// ---------------------------------------------------------------------------

/// Deterministically sample the `case`-th scenario of fuzzing run `seed`.
/// The same `(seed, case)` always yields the same spec, so any reported
/// case number can be replayed exactly.
pub fn gen_spec(seed: u64, case: u64) -> ScenarioSpec {
    let mut rng = fuzz_rng(seed ^ case.wrapping_mul(0xd1b54a32d192ed03));

    let host = match rng.below(4) {
        0 => HostKind::Line(rng.range(2, 9) as u32),
        1 => HostKind::Ring(rng.range(3, 9) as u32),
        2 => HostKind::Mesh(rng.range(2, 3) as u32, rng.range(2, 3) as u32),
        _ => HostKind::Tree(rng.range(2, 3) as u32),
    };
    let procs = host.num_procs();

    let guest = match rng.below(6) {
        0 => GuestKind::Line(rng.range(2, 24) as u32),
        1 => GuestKind::Ring(rng.range(3, 24) as u32),
        2 => GuestKind::Mesh(rng.range(2, 5) as u32, rng.range(2, 5) as u32),
        3 => GuestKind::Tree(rng.range(2, 4) as u32),
        4 => GuestKind::DagRandom {
            dbs: rng.range(2, 16) as u32,
            extra: rng.range(0, 2) as u32,
            max_cost: rng.range(1, 3) as u32,
            seed: rng.next(),
        },
        _ => {
            if rng.chance(1, 2) {
                GuestKind::Wavefront(rng.range(2, 16) as u32)
            } else {
                GuestKind::ForkJoin(rng.range(2, 4) as u32)
            }
        }
    };

    // Zero-step guests are legal and historically under-tested; keep them
    // in the mix but rare.
    let steps = if rng.chance(1, 16) {
        0
    } else {
        rng.range(1, 12) as u32
    };

    let assign = match rng.below(8) {
        0 => AssignKind::AllOnOne,
        1..=3 => AssignKind::Redundant { seed: rng.next() },
        _ => AssignKind::Blocked,
    };

    let costs = if rng.chance(1, 4) {
        Some((0..procs).map(|_| rng.range(1, 4) as u32).collect())
    } else {
        None
    };

    let multicast = rng.chance(1, 8);

    // Small budgets relative to the blocked copies-per-processor load, so
    // real eviction churn is common.
    let mem = if rng.chance(1, 5) {
        Some(MemBudget {
            budget: rng.range(1, 5) as u32,
            reload_cost: rng.range(1, 5) as u32,
        })
    } else {
        None
    };

    let mut faults = FaultPlan::new();
    if steps > 0 && rng.chance(1, 3) {
        // Crashes only under the guaranteed-redundant assignment, where a
        // single crash is always survivable; link faults on any shape.
        let links = host.build(DelayModel::Constant(1), 0).links().to_vec();
        for _ in 0..rng.range(1, 2) {
            match rng.below(3) {
                0 if matches!(assign, AssignKind::Redundant { .. })
                    && faults.crashes.is_empty() =>
                {
                    faults = faults.crash(
                        rng.below(procs as u64) as NodeId,
                        rng.range(1, steps as u64 * 4),
                    );
                }
                1 => {
                    let l = links[rng.below(links.len() as u64) as usize];
                    let from = rng.range(0, 30);
                    faults = faults.link_down(l.a, l.b, from, from + rng.range(1, 40));
                }
                _ => {
                    let l = links[rng.below(links.len() as u64) as usize];
                    let from = rng.range(0, 30);
                    let until = from + rng.range(1, 40);
                    faults = faults.delay_spike(l.a, l.b, from, until, rng.range(2, 8) as u32);
                }
            }
        }
    }

    let (program, guest_seed) = (ProgramKind::arbitrary(rng.next()), rng.below(1 << 20));
    let (delays, host_seed) = (DelayModel::arbitrary(rng.next()), rng.below(1 << 20));

    // Bandwidth and jitter come from a stream of their own, so every
    // field above is what it was before they were drawn.
    let mut rng = fuzz_rng(seed ^ case.wrapping_mul(0x8ebc6af09c88c6e3));
    let bandwidth = match rng.below(6) {
        0..=2 => BandwidthMode::LogN,
        k => BandwidthMode::Fixed(k as u32 - 2),
    };
    let jitter = if rng.chance(1, 4) {
        Jitter::Periodic {
            amplitude_pct: rng.range(10, 90) as u8,
            period: rng.range(1, 16) as u32,
        }
    } else {
        Jitter::None
    };

    ScenarioSpec {
        guest,
        program,
        steps,
        guest_seed,
        host,
        delays,
        host_seed,
        assign,
        costs,
        multicast,
        mem,
        faults,
        bandwidth,
        jitter,
    }
}

/// The DAG-focused scenario stream (`overlap-cli fuzz --dag`, the CI
/// smoke profile): every scenario runs a task-graph guest, and half the
/// budget-free draws gain a memory budget. Scenarios whose mixed-stream
/// draw already picked a DAG kind pass through unchanged, so the stream
/// stays replayable by `(seed, case)` exactly like [`gen_spec`].
pub fn gen_spec_dag(seed: u64, case: u64) -> ScenarioSpec {
    let mut spec = gen_spec(seed, case);
    let mut rng = fuzz_rng(seed ^ case.wrapping_mul(0xa0761d6478bd642f));
    spec.guest = match spec.guest {
        g @ (GuestKind::DagRandom { .. } | GuestKind::Wavefront(_) | GuestKind::ForkJoin(_)) => g,
        g => match rng.below(3) {
            0 => GuestKind::DagRandom {
                dbs: g.num_cells().max(2),
                extra: rng.range(0, 2) as u32,
                max_cost: rng.range(1, 3) as u32,
                seed: rng.next(),
            },
            1 => GuestKind::Wavefront(g.num_cells().max(2)),
            _ => GuestKind::ForkJoin(rng.range(2, 4) as u32),
        },
    };
    if spec.mem.is_none() && rng.chance(1, 2) {
        spec.mem = Some(MemBudget {
            budget: rng.range(1, 4) as u32,
            reload_cost: rng.range(1, 6) as u32,
        });
    }
    spec
}

// ---------------------------------------------------------------------------
// checking
// ---------------------------------------------------------------------------

fn finite(label: &str, x: f64, problems: &mut Vec<String>) {
    if !x.is_finite() {
        problems.push(format!("{label} is not finite: {x}"));
    }
}

/// Invariants every engine's outcome must satisfy on its own.
fn audit_outcome(
    label: &str,
    spec: &ScenarioSpec,
    guest: &GuestSpec,
    assign: &Assignment,
    out: &RunOutcome,
    problems: &mut Vec<String>,
) {
    let s = &out.stats;
    if s.guest_work != guest.total_work() {
        problems.push(format!(
            "{label}: guest_work {} != cells × steps {}",
            s.guest_work,
            guest.total_work()
        ));
    }
    // Crashed copies may have computed pebbles before dying, so the bound
    // is the assignment's full copy set, not just the survivors. Steps
    // come from the built guest: DAG kinds may fix their own layer count.
    let steps = guest.steps;
    if s.total_compute > assign.total_copies() as u64 * steps as u64 {
        problems.push(format!(
            "{label}: total_compute {} exceeds total copies × steps {}",
            s.total_compute,
            assign.total_copies() as u64 * steps as u64
        ));
    }
    // The surviving set is a function of the fault plan alone: no copy of
    // a crashed processor may appear, and every planned crash of a
    // distinct live processor counts exactly once.
    let crashed: std::collections::BTreeSet<NodeId> =
        spec.faults.crashes.iter().map(|c| c.proc).collect();
    if let Some(c) = out.copies.iter().find(|c| crashed.contains(&c.proc)) {
        problems.push(format!(
            "{label}: copy (cell {}, proc {}) survived a planned crash",
            c.cell, c.proc
        ));
    }
    if s.faults.crashed_procs as usize != crashed.len() {
        problems.push(format!(
            "{label}: crashed_procs {} != {} planned crash victims",
            s.faults.crashed_procs,
            crashed.len()
        ));
    }
    if spec.faults.is_empty() {
        if s.total_compute != out.copies.len() as u64 * steps as u64 {
            problems.push(format!(
                "{label}: fault-free total_compute {} != copies × steps {}",
                s.total_compute,
                out.copies.len() as u64 * steps as u64
            ));
        }
        if s.faults != FaultStats::default() {
            problems.push(format!(
                "{label}: fault-free run reports fault work: {:?}",
                s.faults
            ));
        }
    }
    if steps == 0 && s.makespan != 0 {
        problems.push(format!(
            "{label}: zero-step run has makespan {}",
            s.makespan
        ));
    }
    // Memory-budget accounting: no budget ⇒ no churn; with one, every
    // eviction is matched by a reload priced at exactly `reload_cost`.
    match spec.mem {
        None => {
            if s.mem != crate::stats::MemStats::default() {
                problems.push(format!(
                    "{label}: budget-free run reports memory churn: {:?}",
                    s.mem
                ));
            }
        }
        Some(m) => {
            if s.mem.evictions != s.mem.reloads {
                problems.push(format!(
                    "{label}: evictions {} != reloads {}",
                    s.mem.evictions, s.mem.reloads
                ));
            }
            if s.mem.reload_ticks != s.mem.reloads * m.reload_cost as u64 {
                problems.push(format!(
                    "{label}: reload_ticks {} != reloads {} × cost {}",
                    s.mem.reload_ticks, s.mem.reloads, m.reload_cost
                ));
            }
        }
    }
    finite(&format!("{label}: slowdown"), s.slowdown, problems);
    finite(&format!("{label}: efficiency"), s.efficiency(), problems);
    finite(
        &format!("{label}: work_overhead"),
        s.work_overhead(),
        problems,
    );
    finite(
        &format!("{label}: mean_link_pebbles"),
        s.mean_link_pebbles,
        problems,
    );
    finite(&format!("{label}: redundancy"), s.redundancy, problems);
}

/// Lower the scenario once and drive both engines through the shared
/// plan, auditing the full invariant catalogue. `Ok(())` means
/// no divergence; `Err` carries a human-readable list of everything that
/// broke.
pub fn check_spec(spec: &ScenarioSpec) -> Result<(), String> {
    let guest = spec.build_guest();
    let host = spec.build_host();
    let assign = spec.build_assignment();
    let config = EngineConfig {
        bandwidth: spec.bandwidth,
        multicast: spec.multicast,
        jitter: spec.jitter,
        mem: spec.mem,
        ..EngineConfig::default()
    };
    // A hand-edited repro may carry a cost table for another host.
    let fits = |c: &Vec<u32>| c.len() == host.num_nodes() as usize && !c.contains(&0);
    if let Some(costs) = spec.costs.as_ref().filter(|c| !fits(c)) {
        let procs = host.num_nodes();
        return Err(format!(
            "cost table {costs:?} does not fit the {procs}-processor host"
        ));
    }

    // One lowering feeds everything below.
    let mut plan = match ExecPlan::build(&guest, &host, &assign, config) {
        Ok(p) => p,
        Err(e) => return Err(format!("plan lowering failed: {e}")),
    };
    if let Some(costs) = &spec.costs {
        plan = plan.with_compute_costs(costs.clone());
    }
    if !spec.faults.is_empty() {
        plan = match plan.with_faults(spec.faults.clone()) {
            Ok(p) => p,
            Err(e) => return Err(format!("fault plan rejected: {e}")),
        };
    }
    let mut problems: Vec<String> = Vec::new();

    let reference = ReferenceRun::execute(&guest);

    // Event engine: the ground truth the others are compared against,
    // timed so its completion ticks can be audited.
    let ev = match Engine::from_plan(&plan).run_timed() {
        Ok(out) => out,
        Err(e) => return Err(format!("event engine failed: {e}")),
    };
    for err in validate_run(&reference, &ev) {
        problems.push(format!("event vs reference: {err:?}"));
    }
    audit_outcome("event", spec, &guest, &assign, &ev, &mut problems);
    for p in audit_causality(&ev) {
        problems.push(format!("event causality: {p}"));
    }

    // Plan reuse, and timing is free: an untimed second run off the same
    // plan equals the timed run with its ticks stripped.
    let untimed = RunOutcome {
        timing: None,
        ..ev.clone()
    };
    match Engine::from_plan(&plan).run() {
        Ok(again) if again != untimed => {
            problems.push("untimed rerun from the same plan diverged".into());
        }
        Ok(_) => {}
        Err(e) => problems.push(format!("rerun from the same plan failed: {e}")),
    }

    // Traced run: identical to the timed run modulo the stall report,
    // which must conserve every tick of every surviving copy and, when
    // no crash dropped a copy, book every reload tick.
    match Engine::from_plan(&plan).run_traced() {
        Ok(traced) => {
            let report = traced.trace.clone().expect("tracing was enabled");
            if report.totals.total() != traced.stats.makespan * traced.copies.len() as u64 {
                problems.push(format!(
                    "stall conservation broken: totals {} != makespan {} × copies {}",
                    report.totals.total(),
                    traced.stats.makespan,
                    traced.copies.len()
                ));
            }
            let leaks = |(_, b): &(usize, &StallBreakdown)| b.total() != traced.stats.makespan;
            if let Some((i, b)) = report.per_copy.iter().enumerate().find(leaks) {
                problems.push(format!(
                    "copy {i} stall breakdown leaks ticks: {} != makespan {}",
                    b.total(),
                    traced.stats.makespan
                ));
            }
            let reloads = traced.stats.mem.reload_ticks;
            if spec.faults.crashes.is_empty() && report.totals.stall_mem_reload != reloads {
                problems.push(format!(
                    "traced reload ticks {} != the run's {reloads}",
                    report.totals.stall_mem_reload
                ));
            }
            let mut stripped = traced;
            stripped.trace = None;
            stripped.stats.stalls = None;
            if stripped != ev {
                problems.push("traced run differs from timed run".into());
            }
        }
        Err(e) => problems.push(format!("traced event run failed: {e}")),
    }

    // Time and state: the stepped oracle, a second implementation of the
    // same schedule, must reproduce the timed run exactly.
    match run_stepped(&plan) {
        Ok(st) if st != ev => {
            let what = if st.copies != ev.copies {
                "copy records"
            } else if st.stats != ev.stats {
                "stats"
            } else {
                "completion ticks"
            };
            problems.push(format!(
                "event vs stepped: {what} differ (makespans {} vs {})",
                ev.stats.makespan, st.stats.makespan
            ));
        }
        Ok(_) => {}
        Err(e) => problems.push(format!("stepped engine failed: {e}")),
    }

    if let Some(bound) = plan.lockstep_makespan() {
        if ev.stats.makespan > bound {
            problems.push(format!(
                "greedy event makespan {} lost to lockstep bound {bound}",
                ev.stats.makespan
            ));
        }
    }

    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n  "))
    }
}

// ---------------------------------------------------------------------------
// shrinking
// ---------------------------------------------------------------------------

/// Candidate one-step simplifications of `spec`, most aggressive first.
/// Each candidate is self-consistent: mutations that could invalidate
/// faults (smaller host, non-redundant assignment) drop the faults too.
fn candidates(spec: &ScenarioSpec) -> Vec<ScenarioSpec> {
    let mut out = Vec::new();
    let mut push = |s: ScenarioSpec| {
        if s != *spec {
            out.push(s);
        }
    };

    if !spec.faults.is_empty() {
        push(ScenarioSpec {
            faults: FaultPlan::new(),
            ..spec.clone()
        });
        for i in 0..spec.faults.outages.len() {
            let mut s = spec.clone();
            s.faults.outages.remove(i);
            push(s);
        }
        for i in 0..spec.faults.spikes.len() {
            let mut s = spec.clone();
            s.faults.spikes.remove(i);
            push(s);
        }
        for i in 0..spec.faults.crashes.len() {
            let mut s = spec.clone();
            s.faults.crashes.remove(i);
            push(s);
        }
    }
    if spec.multicast {
        push(ScenarioSpec {
            multicast: false,
            ..spec.clone()
        });
    }
    if spec.costs.is_some() {
        push(ScenarioSpec {
            costs: None,
            ..spec.clone()
        });
    }
    if spec.mem.is_some() {
        push(ScenarioSpec {
            mem: None,
            ..spec.clone()
        });
    }
    if spec.bandwidth != BandwidthMode::LogN {
        push(ScenarioSpec {
            bandwidth: BandwidthMode::LogN,
            ..spec.clone()
        });
    }
    if spec.jitter != Jitter::None {
        push(ScenarioSpec {
            jitter: Jitter::None,
            ..spec.clone()
        });
    }
    if spec.delays != DelayModel::Constant(1) {
        // Flattening delays keeps links valid, so faults can stay.
        push(ScenarioSpec {
            delays: DelayModel::Constant(1),
            ..spec.clone()
        });
    }
    if spec.steps > 1 {
        push(ScenarioSpec {
            steps: spec.steps / 2,
            ..spec.clone()
        });
        push(ScenarioSpec {
            steps: 1,
            ..spec.clone()
        });
    }
    // Smaller guest: halve the leading dimension.
    let smaller_guest = match spec.guest {
        GuestKind::Line(m) if m > 2 => Some(GuestKind::Line((m / 2).max(2))),
        GuestKind::Ring(m) if m > 3 => Some(GuestKind::Ring((m / 2).max(3))),
        GuestKind::Mesh(w, h) if w * h > 4 => Some(GuestKind::Mesh((w / 2).max(2), h.min(2))),
        GuestKind::Tree(l) if l > 2 => Some(GuestKind::Tree(l - 1)),
        GuestKind::DagRandom {
            dbs,
            extra,
            max_cost,
            seed,
        } if dbs > 2 => Some(GuestKind::DagRandom {
            dbs: (dbs / 2).max(2),
            extra,
            max_cost,
            seed,
        }),
        GuestKind::Wavefront(l) if l > 2 => Some(GuestKind::Wavefront((l / 2).max(2))),
        GuestKind::ForkJoin(l) if l > 2 => Some(GuestKind::ForkJoin(l - 1)),
        _ => None,
    };
    if let Some(g) = smaller_guest {
        push(ScenarioSpec {
            guest: g,
            ..spec.clone()
        });
    }
    // Simpler DAG shape: drop the cross-lane edges, then the costs — each
    // alone can already flip the graph back to the uniform fast path.
    if let GuestKind::DagRandom {
        dbs,
        extra,
        max_cost,
        seed,
    } = spec.guest
    {
        if extra > 0 {
            push(ScenarioSpec {
                guest: GuestKind::DagRandom {
                    dbs,
                    extra: 0,
                    max_cost,
                    seed,
                },
                ..spec.clone()
            });
        }
        if max_cost > 1 {
            push(ScenarioSpec {
                guest: GuestKind::DagRandom {
                    dbs,
                    extra,
                    max_cost: 1,
                    seed,
                },
                ..spec.clone()
            });
        }
    }
    // A line of 4 stands in for any larger guest; offered to a smaller
    // one it would undo the halving above, and the shrinker would cycle.
    if spec.guest.num_cells() > 4 {
        push(ScenarioSpec {
            guest: GuestKind::Line(4),
            ..spec.clone()
        });
    }
    // Smaller host: link faults may name vanished links, so drop faults,
    // and the cost table shrinks with the host.
    let smaller_host = match spec.host {
        HostKind::Line(n) if n > 2 => Some(HostKind::Line((n / 2).max(2))),
        HostKind::Ring(n) if n > 3 => Some(HostKind::Ring((n / 2).max(3))),
        HostKind::Mesh(..) | HostKind::Tree(..) => Some(HostKind::Line(2)),
        _ => None,
    };
    if let Some(h) = smaller_host {
        push(ScenarioSpec {
            host: h,
            faults: FaultPlan::new(),
            costs: spec.costs.as_ref().map(|c| {
                c.iter()
                    .copied()
                    .cycle()
                    .take(h.num_procs() as usize)
                    .collect()
            }),
            ..spec.clone()
        });
    }
    if spec.assign != AssignKind::Blocked {
        // Blocked is single-copy: crashes would legitimately lose columns.
        push(ScenarioSpec {
            assign: AssignKind::Blocked,
            faults: FaultPlan {
                crashes: vec![],
                ..spec.faults.clone()
            },
            ..spec.clone()
        });
    }
    out
}

/// Greedily shrink a failing spec: repeatedly adopt the first candidate
/// simplification that still fails, until none does. The result is the
/// minimal failing scenario this strategy can reach, together with its
/// failure detail.
pub fn shrink(spec: &ScenarioSpec) -> (ScenarioSpec, String) {
    let mut cur = spec.clone();
    let mut detail = match check_spec(&cur) {
        Err(d) => d,
        Ok(()) => return (cur, String::new()),
    };
    // The candidate set is finite and strictly simplifying, so this
    // terminates; the iteration cap is a pure backstop.
    for _ in 0..200 {
        let mut improved = false;
        for cand in candidates(&cur) {
            if let Err(d) = check_spec(&cand) {
                cur = cand;
                detail = d;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    (cur, detail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for case in 0..50 {
            assert_eq!(gen_spec(7, case), gen_spec(7, case));
        }
        assert_ne!(gen_spec(7, 0), gen_spec(8, 0));
    }

    #[test]
    fn generated_scenarios_materialize() {
        for case in 0..100 {
            let spec = gen_spec(1, case);
            let guest = spec.build_guest();
            let host = spec.build_host();
            let assign = spec.build_assignment();
            assert!(guest.num_cells() >= 2);
            assert!(host.num_nodes() >= 2);
            assert!(assign.uncovered_cells().is_empty(), "case {case}");
            spec.faults
                .validate(&host)
                .unwrap_or_else(|e| panic!("case {case}: generated bad faults: {e}"));
        }
    }

    /// Repros are saved as JSON, so every generated spec — u64 seeds,
    /// float delay parameters and fault plans included — must come back
    /// from its JSON unchanged.
    #[test]
    fn specs_round_trip_through_json() {
        for case in 0..500 {
            for spec in [gen_spec(0, case), gen_spec_dag(0, case)] {
                let json = serde_json::to_string(&spec).expect("spec serializes");
                let back: ScenarioSpec = serde_json::from_str(&json)
                    .unwrap_or_else(|e| panic!("case {case}: {e}\n{json}"));
                assert_eq!(back, spec, "case {case}: {json}");
            }
        }
    }

    #[test]
    fn shrinker_reaches_a_fixpoint_on_a_forced_failure() {
        // A spec whose fault names a missing link fails check_spec at
        // with_faults; the shrinker must strictly simplify it while the
        // failure persists (dropping the fault makes it pass, so the
        // minimal repro keeps exactly one fault).
        let spec = ScenarioSpec {
            guest: GuestKind::Line(8),
            program: ProgramKind::KvWorkload,
            steps: 6,
            guest_seed: 1,
            host: HostKind::Line(4),
            delays: DelayModel::Uniform { lo: 1, hi: 9 },
            host_seed: 2,
            assign: AssignKind::Blocked,
            costs: Some(vec![1, 2, 1, 2]),
            multicast: false,
            mem: None,
            faults: FaultPlan::new().link_down(0, 3, 0, 10),
            bandwidth: BandwidthMode::Fixed(1),
            jitter: Jitter::Periodic {
                amplitude_pct: 50,
                period: 3,
            },
        };
        assert!(check_spec(&spec).is_err());
        let (min, detail) = shrink(&spec);
        assert!(!detail.is_empty());
        assert_eq!(check_spec(&min), Err(detail.clone()));
        assert_eq!(min.faults, spec.faults, "the fault is the failure");
        assert!(min.costs.is_none(), "costs must shrink away");
        assert_eq!(min.steps, 1, "steps must shrink away");
        assert_eq!(min.bandwidth, BandwidthMode::LogN, "bandwidth resets");
        assert_eq!(min.jitter, Jitter::None, "jitter resets");
        // A fixpoint, not the round cap: no candidate still fails.
        assert!(candidates(&min).iter().all(|c| check_spec(c).is_ok()));

        // The saved repro is the spec's JSON line: it parses back to a
        // spec that fails with the same detail.
        let line = serde_json::to_string(&min).expect("spec serializes");
        let back: ScenarioSpec = serde_json::from_str(&line).expect("repro parses");
        assert_eq!(back, min);
        assert_eq!(check_spec(&back), Err(detail));
    }

    /// A costed link-outage spec on a 6-node line: every shrink
    /// candidate's cost table fits its host, so checking one never panics,
    /// and the `Line(4)` fallback is not offered to the halved `Line(2)`
    /// guest, so the shrinker stops at a fixpoint instead of swapping the
    /// two until its round cap.
    #[test]
    fn costed_specs_shrink_to_a_fixpoint_without_panicking() {
        let spec = ScenarioSpec {
            guest: GuestKind::Line(8),
            program: ProgramKind::KvWorkload,
            steps: 4,
            guest_seed: 1,
            host: HostKind::Line(6),
            delays: DelayModel::Constant(2),
            host_seed: 2,
            assign: AssignKind::Blocked,
            costs: Some(vec![1, 2, 3, 1, 2, 3]),
            multicast: false,
            mem: None,
            // The 6-node line has no 0–5 link: the failure every
            // candidate that keeps the fault reproduces.
            faults: FaultPlan::new().link_down(0, 5, 0, 10),
            bandwidth: BandwidthMode::LogN,
            jitter: Jitter::None,
        };
        for c in candidates(&spec) {
            let procs = c.host.num_procs() as usize;
            assert!(c.costs.as_ref().is_none_or(|t| t.len() == procs), "{c:?}");
            let _ = check_spec(&c);
        }
        let (min, _) = shrink(&spec);
        assert_eq!(min.guest, GuestKind::Line(2));
        assert!(candidates(&min).iter().all(|c| check_spec(c).is_ok()));
        // A table for another host is a failure, not a panic.
        let misfit = ScenarioSpec {
            costs: Some(vec![1, 2]),
            faults: FaultPlan::new(),
            ..spec
        };
        let err = check_spec(&misfit).unwrap_err();
        assert!(err.contains("does not fit the 6-processor host"), "{err}");
    }
}
