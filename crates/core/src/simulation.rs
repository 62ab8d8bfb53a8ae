//! The [`Simulation`] builder — the one front door to the simulator.
//!
//! Every guest — line, ring, task graph, 2-D or 3-D grid, binary tree —
//! enters here: placement ([`plan_placement`]) is the only step that
//! branches on the guest's shape, and lowering, the engine run,
//! validation and the [`SimReport`] are written once, below. A fluent,
//! self-describing API:
//!
//! ```
//! use overlap_core::simulation::Simulation;
//! use overlap_core::pipeline::Strategy;
//! use overlap_model::{GuestSpec, ProgramKind};
//! use overlap_net::{topology, DelayModel};
//!
//! let host = topology::linear_array(8, DelayModel::uniform(1, 8), 5);
//! let guest = GuestSpec::array(24, ProgramKind::KvWorkload, 3, 16);
//! let report = Simulation::of(&guest)
//!     .on(&host)
//!     .strategy(Strategy::Overlap { c: 4.0 })
//!     .build()
//!     .and_then(|sim| sim.run())
//!     .unwrap();
//! assert!(report.validated);
//! ```
//!
//! `build()` performs placement planning (strategy → assignment) and
//! reports any [`Error`] early; `run()` executes on the event engine,
//! validates every database copy against the unit-delay reference, and
//! returns a [`SimReport`] carrying the full [`RunOutcome`]. Fault plans
//! (`.faults(..)`) inject deterministic link outages, delay spikes, and
//! processor crashes — see `overlap_sim::faults`. The stepped oracle is
//! not a builder option: hand the lowered plan
//! ([`ReadySimulation::build_plan`]) to `overlap_sim::run_stepped`.

use crate::error::Error;
use crate::pipeline::{plan_placement, SimReport, Strategy};
use overlap_model::{GuestSpec, ReferenceRun, ReferenceTrace};
use overlap_net::{Delay, HostGraph};
use overlap_sim::engine::{Engine, EngineConfig, Jitter, MemBudget, RunOutcome};
use overlap_sim::faults::FaultPlan;
use overlap_sim::validate::validate_run;
use overlap_sim::{Assignment, BandwidthMode, ExecPlan};

/// Entry point of the builder API: `Simulation::of(&guest)`.
pub struct Simulation;

impl Simulation {
    /// Start describing a simulation of `guest`.
    pub fn of(guest: &GuestSpec) -> SimulationBuilder<'_> {
        SimulationBuilder {
            guest,
            host: None,
            strategy: Strategy::Auto,
            assignment: None,
            config: EngineConfig::default(),
            compute_costs: None,
            faults: None,
            trace: false,
        }
    }
}

/// Accumulates the description of one simulation run. Finish with
/// [`build`](SimulationBuilder::build).
pub struct SimulationBuilder<'a> {
    guest: &'a GuestSpec,
    host: Option<&'a HostGraph>,
    strategy: Strategy,
    assignment: Option<Assignment>,
    config: EngineConfig,
    compute_costs: Option<Vec<u32>>,
    faults: Option<FaultPlan>,
    trace: bool,
}

impl<'a> SimulationBuilder<'a> {
    /// The host NOW to simulate on (required).
    pub fn on(mut self, host: &'a HostGraph) -> Self {
        self.host = Some(host);
        self
    }

    /// Database placement strategy (default [`Strategy::Auto`]). Line,
    /// ring and task-graph guests take every strategy, grid guests `Auto`,
    /// binary trees `Auto` or `Blocked` ([`plan_placement`]); any guest
    /// can take an explicit [`assignment`](Self::assignment) instead.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Use an explicit database assignment instead of a placement
    /// strategy (works for any guest topology).
    pub fn assignment(mut self, assignment: Assignment) -> Self {
        self.assignment = Some(assignment);
        self
    }

    /// Link bandwidth model (default: the paper's `log n`).
    pub fn bandwidth(mut self, bandwidth: BandwidthMode) -> Self {
        self.config.bandwidth = bandwidth;
        self
    }

    /// Distribute columns over multicast trees instead of per-subscriber
    /// unicast routes.
    pub fn multicast(mut self, on: bool) -> Self {
        self.config.multicast = on;
        self
    }

    /// Deterministic time-varying link-delay jitter.
    pub fn jitter(mut self, jitter: Jitter) -> Self {
        self.config.jitter = jitter;
        self
    }

    /// Cap resident database copies per processor (red–blue pebbling
    /// mode): evicted copies must be re-fetched for
    /// [`MemBudget::reload_cost`] extra ticks before the next compute.
    /// Pure timing/accounting — values are unchanged, so validation
    /// still holds. A [`trace`](Self::trace)d run books the reload ticks
    /// as `stall_mem_reload`.
    pub fn memory_budget(mut self, budget: MemBudget) -> Self {
        self.config.mem = Some(budget);
        self
    }

    /// Safety cap on simulated ticks.
    pub fn max_ticks(mut self, max_ticks: u64) -> Self {
        self.config.max_ticks = max_ticks;
        self
    }

    /// Per-processor compute costs (ticks per pebble, ≥ 1).
    pub fn compute_costs(mut self, costs: Vec<u32>) -> Self {
        self.compute_costs = Some(costs);
        self
    }

    /// Inject a deterministic fault plan. An empty plan is bit-identical
    /// to no plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attribute every stall tick of the run to its cause — dependency,
    /// bandwidth, database-update order, faults, memory reloads, or
    /// post-completion drain. The report lands in the outcome's
    /// `stats.stalls` and `trace`, and the per-pebble completion ticks the
    /// tracer keeps in its `timing`; the schedule itself is unchanged.
    /// Every run the builder accepts can be traced.
    pub fn trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Plan the placement and check the configuration. Returns a
    /// [`ReadySimulation`] that can be run (repeatedly).
    pub fn build(self) -> Result<ReadySimulation<'a>, Error> {
        let host = self
            .host
            .ok_or_else(|| Error::Config("no host: call .on(&host)".into()))?;
        // A guest or host decoded from the wire may carry parts that
        // disagree; lowering and the connectivity check below assume they
        // do not.
        let invalid = |option| move |reason| Error::InvalidConfig { option, reason };
        self.guest.validate().map_err(invalid("guest"))?;
        host.validate().map_err(invalid("host"))?;
        // Placement embeds the guest along a spanning tree of the host and
        // routing needs a path from every consumer to a holder, so a split
        // host is rejected here, before either can fail on it.
        if !host.is_connected() {
            return Err(Error::InvalidConfig {
                option: "host",
                reason: format!("the {}-node host is disconnected", host.num_nodes()),
            });
        }
        if let Some(costs) = &self.compute_costs {
            if costs.len() as u32 != host.num_nodes() {
                return Err(Error::Config(format!(
                    "compute_costs has {} entries for a {}-node host",
                    costs.len(),
                    host.num_nodes()
                )));
            }
            if costs.contains(&0) {
                return Err(Error::Config("compute costs must be ≥ 1".into()));
            }
        }
        // A fault plan must name real links and processors of *this* host;
        // a typo'd `--faults` spec used to abort the process at lowering.
        if let Some(faults) = &self.faults {
            faults.validate(host).map_err(Error::Run)?;
        }
        let (assignment, predicted_slowdown, array_delays, dilation) = match self.assignment {
            Some(a) => {
                if (a.num_procs(), a.num_cells()) != (host.num_nodes(), self.guest.num_cells()) {
                    return Err(invalid("assignment")(format!(
                        "it places {} cells on {} processors; the guest has {} cells \
                         and the host {} nodes",
                        a.num_cells(),
                        a.num_procs(),
                        self.guest.num_cells(),
                        host.num_nodes()
                    )));
                }
                let delays: Vec<Delay> = host.links().iter().map(|l| l.delay).collect();
                (a, None, delays, 0)
            }
            None => {
                let placement = plan_placement(self.guest, host, self.strategy)?;
                (
                    placement.assignment,
                    placement.predicted_slowdown,
                    placement.array_delays,
                    placement.dilation,
                )
            }
        };
        Ok(ReadySimulation {
            guest: self.guest,
            host,
            assignment,
            strategy: self.strategy,
            config: self.config,
            compute_costs: self.compute_costs,
            faults: self.faults,
            trace: self.trace,
            predicted_slowdown,
            array_delays,
            dilation,
        })
    }
}

/// A fully planned simulation: the placement is fixed, ready to execute.
#[derive(Debug)]
pub struct ReadySimulation<'a> {
    guest: &'a GuestSpec,
    host: &'a HostGraph,
    assignment: Assignment,
    strategy: Strategy,
    config: EngineConfig,
    compute_costs: Option<Vec<u32>>,
    faults: Option<FaultPlan>,
    trace: bool,
    predicted_slowdown: Option<f64>,
    array_delays: Vec<Delay>,
    dilation: u32,
}

impl ReadySimulation<'_> {
    /// The planned database assignment.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// The strategy's predicted slowdown, when it has one.
    pub fn predicted_slowdown(&self) -> Option<f64> {
        self.predicted_slowdown
    }

    /// Embedding dilation (0 when the host is a genuine path or an
    /// explicit assignment was supplied).
    pub fn dilation(&self) -> u32 {
        self.dilation
    }

    /// Lower this simulation to its executable plan: interned tables,
    /// routing, and the configured compute costs / fault plan, all
    /// compiled once. The plan can be executed repeatedly via
    /// [`run_plan`](Self::run_plan) — sweeps amortise the lowering across
    /// repeats — and by the stepped oracle (`overlap_sim::run_stepped`).
    /// A fault or cost variant runs on a view from [`ExecPlan::share`]
    /// with the variant attached, which leaves this plan untouched; [`ExecPlan::apply_delta`] edits a
    /// single link delay in place. Both yield a plan bit-identical to a
    /// fresh lowering, usually without rebuilding any table.
    pub fn build_plan(&self) -> Result<ExecPlan<'_>, Error> {
        let mut plan = ExecPlan::build(self.guest, self.host, &self.assignment, self.config)?;
        if let Some(costs) = &self.compute_costs {
            plan = plan.with_compute_costs(costs.clone());
        }
        if let Some(faults) = &self.faults {
            plan = plan.with_faults(faults.clone())?;
        }
        Ok(plan)
    }

    /// Execute an already-lowered plan on the event engine, traced when
    /// [`trace`](SimulationBuilder::trace) was set. `run_raw` is exactly
    /// `build_plan` + `run_plan`; calling them separately lets sweeps
    /// lower once and run many times.
    pub fn run_plan(&self, plan: &ExecPlan) -> Result<RunOutcome, Error> {
        let engine = Engine::from_plan(plan);
        let outcome = if self.trace {
            engine.run_traced()
        } else {
            engine.run()
        };
        Ok(outcome?)
    }

    /// Execute without validating (no reference run). Returns the raw
    /// engine outcome.
    pub fn run_raw(&self) -> Result<RunOutcome, Error> {
        let plan = self.build_plan()?;
        self.run_plan(&plan)
    }

    /// Execute and validate every database copy against the unit-delay
    /// reference. The report also carries the lockstep baseline of the
    /// same plan, where it is defined.
    pub fn run(&self) -> Result<SimReport, Error> {
        let trace = ReferenceRun::execute(self.guest);
        self.run_with_trace(&trace)
    }

    /// Like [`run`](Self::run) with a precomputed reference trace (for
    /// sweeps that reuse the guest).
    pub fn run_with_trace(&self, trace: &ReferenceTrace) -> Result<SimReport, Error> {
        let plan = self.build_plan()?;
        let outcome = self.run_plan(&plan)?;
        let errors = validate_run(trace, &outcome);
        let delays = &self.array_delays;
        let d_ave = if delays.is_empty() {
            0.0
        } else {
            delays.iter().sum::<u64>() as f64 / delays.len() as f64
        };
        Ok(SimReport {
            stats: outcome.stats,
            validated: errors.is_empty(),
            mismatches: errors.len(),
            predicted_slowdown: self.predicted_slowdown,
            strategy: self.strategy.label(),
            host: self.host.name().to_string(),
            d_ave,
            d_max: delays.iter().copied().max().unwrap_or(0),
            dilation: self.dilation,
            lockstep_makespan: plan.lockstep_makespan(),
            outcome,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlap_model::ProgramKind;
    use overlap_net::topology::linear_array;
    use overlap_net::DelayModel;
    use overlap_sim::engine::RunError;
    use overlap_sim::run_stepped;

    fn lab() -> (GuestSpec, HostGraph) {
        (
            GuestSpec::array(16, ProgramKind::KvWorkload, 3, 12),
            linear_array(4, DelayModel::uniform(1, 6), 7),
        )
    }

    #[test]
    fn builder_runs_are_deterministic() {
        let (guest, host) = lab();
        let strategy = Strategy::Overlap { c: 4.0 };
        let run = || {
            Simulation::of(&guest)
                .on(&host)
                .strategy(strategy)
                .build()
                .unwrap()
                .run()
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert!(a.validated);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.strategy, b.strategy);
        assert_eq!(a.predicted_slowdown, b.predicted_slowdown);
    }

    #[test]
    fn missing_host_is_a_config_error() {
        let (guest, _) = lab();
        let err = Simulation::of(&guest).build().unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
    }

    #[test]
    fn disconnected_host_is_invalid_config() {
        // Pinned regression: a two-component host used to panic in the
        // spanning-tree embedding ("graph is disconnected") under Blocked.
        let (guest, _) = lab();
        let mut host = HostGraph::new("split", 4);
        host.add_link(0, 1, 1);
        host.add_link(2, 3, 1);
        for strategy in [Strategy::Blocked, Strategy::Auto] {
            let err = Simulation::of(&guest)
                .on(&host)
                .strategy(strategy)
                .build()
                .unwrap_err();
            assert!(
                matches!(err, Error::InvalidConfig { option: "host", .. }),
                "{err}"
            );
            assert!(err.to_string().contains("disconnected"), "{err}");
        }
    }

    /// An explicit assignment sized for another guest or host is a typed
    /// error at `build()`, not a panic in `run()`.
    #[test]
    fn explicit_assignment_of_the_wrong_size_is_invalid_config() {
        let (guest, host) = lab();
        for assign in [
            Assignment::blocked(4, 8),
            Assignment::blocked(4, 24),
            Assignment::blocked(5, 16),
        ] {
            let err = Simulation::of(&guest)
                .on(&host)
                .assignment(assign)
                .build()
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    Error::InvalidConfig {
                        option: "assignment",
                        ..
                    }
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn explicit_assignment_bypasses_strategy() {
        let (guest, host) = lab();
        let assign = Assignment::blocked(4, 16);
        let sim = Simulation::of(&guest)
            .on(&host)
            .assignment(assign.clone())
            .build()
            .unwrap();
        assert_eq!(sim.assignment().cells_of(0), assign.cells_of(0));
        assert!(sim.run().unwrap().validated);
    }

    #[test]
    fn grid_guests_take_auto_and_nothing_else() {
        let guest = GuestSpec::mesh(4, 4, ProgramKind::StencilSum, 0, 2);
        let host = linear_array(4, DelayModel::constant(1), 0);
        let report = Simulation::of(&guest).on(&host).build().unwrap().run();
        assert!(report.unwrap().validated);
        let err = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Halo { halo: 1 })
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InapplicableStrategy));
    }

    /// Lower a built simulation once and run the stepped oracle on the
    /// plan: its outcome, and whether it validates.
    fn stepped(sim: &ReadySimulation) -> (RunOutcome, bool) {
        let plan = sim.build_plan().unwrap();
        let out = run_stepped(&plan).unwrap();
        let valid = validate_run(&ReferenceRun::execute(sim.guest), &out).is_empty();
        (out, valid)
    }

    #[test]
    fn engines_agree_on_stats() {
        let (guest, host) = lab();
        let sim = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Blocked)
            .build()
            .unwrap();
        let event = sim.run().unwrap();
        let (stepped, stepped_valid) = stepped(&sim);
        assert!(event.validated && stepped_valid);
        assert_eq!(event.stats.makespan, stepped.stats.makespan);
        // The report carries the plan's lockstep baseline, which the greedy
        // schedule never loses to.
        let plan = sim.build_plan().unwrap();
        assert_eq!(event.lockstep_makespan, plan.lockstep_makespan());
        assert!(event.lockstep_makespan.unwrap() >= event.stats.makespan);
    }

    /// One row of the feature axis of [`feature_matrix_is_one_policy`].
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Feature {
        Faults,
        Costs,
        Multicast,
        Jitter,
        MemBudget,
        WeightedDag,
    }

    /// Every feature × {untraced, traced}, and the stepped oracle: no
    /// executor refuses a plan. The builder runs each combination,
    /// validated and bit-identical to `run`/`run_traced` on the equivalent
    /// hand-built plan; a traced run conserves every tick of every copy;
    /// stepped equals the timed event run on the whole outcome; and the report
    /// carries the plan's lockstep baseline exactly when no feature is set.
    #[test]
    fn feature_matrix_is_one_policy() {
        use overlap_model::TaskGraph;
        let (line, host) = lab();
        let dag = GuestSpec::dag(
            TaskGraph::layered_random(8, 5, 2, 3, 9),
            ProgramKind::KvWorkload,
            3,
        );
        let faults = FaultPlan::new().link_down(1, 2, 5, 40);
        let costs = vec![1, 3, 1, 2];
        let features = [
            None,
            Some(Feature::Faults),
            Some(Feature::Costs),
            Some(Feature::Multicast),
            Some(Feature::Jitter),
            Some(Feature::MemBudget),
            Some(Feature::WeightedDag),
        ];
        for feature in features {
            let guest = if feature == Some(Feature::WeightedDag) {
                &dag
            } else {
                &line
            };
            let reference = ReferenceRun::execute(guest);
            let assign = Assignment::blocked(4, guest.num_cells());
            let mut config = EngineConfig::default();
            match feature {
                Some(Feature::Multicast) => config.multicast = true,
                Some(Feature::Jitter) => {
                    config.jitter = Jitter::Periodic {
                        amplitude_pct: 50,
                        period: 4,
                    }
                }
                Some(Feature::MemBudget) => {
                    config.mem = Some(MemBudget {
                        budget: 2,
                        reload_cost: 1,
                    })
                }
                _ => {}
            }
            // The run, handed straight to the engines.
            let mut plan = ExecPlan::build(guest, &host, &assign, config).unwrap();
            match feature {
                Some(Feature::Faults) => plan = plan.with_faults(faults.clone()).unwrap(),
                Some(Feature::Costs) => plan = plan.with_compute_costs(costs.clone()),
                _ => {}
            }
            let untraced = Engine::from_plan(&plan).run().unwrap();

            for traced in [false, true] {
                let case = format!("{feature:?}, traced {traced}");
                let mut b = Simulation::of(guest).on(&host).assignment(assign.clone());
                match feature {
                    Some(Feature::Faults) => b = b.faults(faults.clone()),
                    Some(Feature::Costs) => b = b.compute_costs(costs.clone()),
                    _ => {}
                }
                b = b.multicast(config.multicast).jitter(config.jitter);
                if let Some(mem) = config.mem {
                    b = b.memory_budget(mem);
                }
                let direct = if traced {
                    b = b.trace();
                    Engine::from_plan(&plan).run_traced()
                } else {
                    Ok(untraced.clone())
                };
                let report = b
                    .build()
                    .and_then(|sim| sim.run())
                    .unwrap_or_else(|e| panic!("{case}: builder path failed: {e}"));
                assert!(report.validated, "{case}");
                let direct = direct.unwrap_or_else(|e| panic!("{case}: engine path failed: {e}"));
                assert_eq!(report.outcome, direct, "{case}");
                if let Some(trace) = &report.outcome.trace {
                    for b in &trace.per_copy {
                        assert_eq!(b.total(), report.stats.makespan, "{case}: conservation");
                    }
                    assert_eq!(
                        trace.totals.stall_mem_reload, report.stats.mem.reload_ticks,
                        "{case}"
                    );
                }
                assert_eq!(report.outcome.trace.is_some(), traced, "{case}");
                assert_eq!(report.lockstep_makespan, plan.lockstep_makespan(), "{case}");
                assert_eq!(
                    report.lockstep_makespan.is_some(),
                    feature.is_none(),
                    "{case}"
                );
            }

            let case = format!("stepped × {feature:?}");
            let st = run_stepped(&plan).unwrap_or_else(|e| panic!("{case}: {e}"));
            assert!(validate_run(&reference, &st).is_empty(), "{case}");
            assert_eq!(st, Engine::from_plan(&plan).run_timed().unwrap(), "{case}");
        }
        // An empty fault plan is no fault injection.
        let report = Simulation::of(&line)
            .on(&host)
            .faults(FaultPlan::new())
            .build()
            .and_then(|sim| sim.run())
            .unwrap();
        assert!(report.lockstep_makespan.is_some());
    }

    #[test]
    fn stepped_engine_supports_costs_and_faults() {
        let (guest, host) = lab();
        let halo = || {
            Simulation::of(&guest)
                .on(&host)
                .strategy(Strategy::Halo { halo: 1 })
        };
        let (base, _) = stepped(&halo().build().unwrap());
        let (costly, costly_valid) =
            stepped(&halo().compute_costs(vec![1, 4, 1, 2]).build().unwrap());
        assert!(costly_valid);
        assert!(costly.stats.makespan > base.stats.makespan);
        let faulty_sim = halo()
            .faults(FaultPlan::new().link_down(1, 2, 2, 40))
            .build()
            .unwrap();
        let (faulty, faulty_valid) = stepped(&faulty_sim);
        assert!(faulty_valid, "degraded stepped run must validate");
        assert!(faulty.stats.faults.retries > 0);
        assert!(faulty.stats.makespan >= base.stats.makespan);
    }

    #[test]
    fn one_plan_runs_on_every_engine() {
        let (guest, host) = lab();
        let event = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Blocked)
            .build()
            .unwrap();
        let plan = event.build_plan().unwrap();
        let ev = event.run_plan(&plan).unwrap();
        let st = run_stepped(&plan).unwrap();
        assert_eq!(ev.stats.makespan, st.stats.makespan);
        assert!(plan.lockstep_makespan().unwrap() >= ev.stats.makespan);
        // Re-running the same plan is bit-identical to run_raw's fresh
        // lowering.
        let fresh = event.run_raw().unwrap();
        assert_eq!(ev.stats, fresh.stats);
        assert_eq!(ev.copies, fresh.copies);
    }

    #[test]
    fn fault_plan_flows_through_to_the_engine() {
        let (guest, host) = lab();
        let clean = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Halo { halo: 1 })
            .build()
            .unwrap()
            .run()
            .unwrap();
        let faulty = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Halo { halo: 1 })
            .faults(FaultPlan::new().link_down(1, 2, 2, 40))
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(faulty.validated, "degraded run must still validate");
        assert!(faulty.stats.faults.retries > 0);
        assert!(faulty.stats.makespan >= clean.stats.makespan);
    }

    #[test]
    fn fault_plan_on_missing_link_is_rejected_at_build() {
        let (guest, host) = lab();
        // The 4-node linear array has no 0–3 link.
        let err = Simulation::of(&guest)
            .on(&host)
            .faults(FaultPlan::new().link_down(0, 3, 5, 10))
            .build()
            .unwrap_err();
        assert!(
            matches!(err, Error::Run(RunError::MissingLink { from: 0, to: 3 })),
            "{err}"
        );
        let err = Simulation::of(&guest)
            .on(&host)
            .faults(FaultPlan::new().delay_spike(2, 0, 5, 10, 3))
            .build()
            .unwrap_err();
        assert!(
            matches!(err, Error::Run(RunError::MissingLink { .. })),
            "{err}"
        );
        let err = Simulation::of(&guest)
            .on(&host)
            .faults(FaultPlan::new().crash(12, 5))
            .build()
            .unwrap_err();
        assert!(
            matches!(
                err,
                Error::Run(RunError::NoSuchProcessor { proc: 12, procs: 4 })
            ),
            "{err}"
        );
    }

    #[test]
    fn run_outcome_is_carried_in_the_report() {
        let (guest, host) = lab();
        let r = Simulation::of(&guest)
            .on(&host)
            .trace()
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(r.outcome.stats, r.stats);
        // A traced run carries the tracer's completion ticks, one row per
        // surviving copy.
        let timing = r.outcome.timing.expect("traced runs carry timing");
        assert_eq!(r.outcome.copies.len(), timing.ticks.len());
    }

    #[test]
    fn tick_limit_surfaces_as_run_error() {
        let (guest, host) = lab();
        let err = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Blocked)
            .max_ticks(2)
            .build()
            .unwrap()
            .run()
            .unwrap_err();
        assert!(matches!(err, Error::Run(RunError::TickLimit(2))));
    }

    #[test]
    fn traced_builder_run_conserves_and_matches_untraced() {
        let (guest, host) = lab();
        let plain = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Overlap { c: 4.0 })
            .build()
            .unwrap()
            .run()
            .unwrap();
        let traced = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Overlap { c: 4.0 })
            .trace()
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(traced.validated);
        // Tracing never perturbs the schedule.
        let mut stats = traced.stats;
        stats.stalls = None;
        assert_eq!(stats, plain.stats);
        // Conservation: categories partition [0, makespan) per copy.
        let totals = traced.stats.stalls.expect("traced run has stalls");
        assert_eq!(
            totals.total(),
            traced.stats.makespan * traced.outcome.copies.len() as u64
        );
        let report = traced.outcome.trace.as_ref().expect("trace report");
        assert_eq!(report.totals, totals);
    }

    #[test]
    fn memory_budget_validates_and_counts_reloads() {
        let (guest, host) = lab();
        let build = |mem: Option<MemBudget>| {
            let mut b = Simulation::of(&guest).on(&host).strategy(Strategy::Blocked);
            if let Some(m) = mem {
                b = b.memory_budget(m);
            }
            b.build().unwrap().run().unwrap()
        };
        let free = build(None);
        // Blocked places 4 copies per processor; a budget of 1 thrashes.
        let tight = build(Some(MemBudget {
            budget: 1,
            reload_cost: 3,
        }));
        assert!(tight.validated, "reloads are pure timing");
        assert!(tight.stats.mem.reloads > 0);
        assert!(tight.stats.mem.reload_ticks > 0);
        assert!(tight.stats.makespan > free.stats.makespan);
        assert_eq!(free.stats.mem, Default::default());
        // Stepped prices the same reloads identically.
        let sim = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Blocked)
            .memory_budget(MemBudget {
                budget: 1,
                reload_cost: 3,
            })
            .build()
            .unwrap();
        let (stepped, _) = stepped(&sim);
        assert_eq!(stepped.stats.makespan, tight.stats.makespan);
        assert_eq!(stepped.stats.mem, tight.stats.mem);
    }

    #[test]
    fn dag_guest_runs_through_the_builder_on_every_engine() {
        use overlap_model::TaskGraph;
        let guest = GuestSpec::dag(TaskGraph::wavefront(12, 8), ProgramKind::KvWorkload, 5);
        let host = linear_array(4, DelayModel::uniform(1, 5), 2);
        let sim = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Blocked)
            .build()
            .unwrap();
        let r = sim.run().unwrap();
        let (st, st_valid) = stepped(&sim);
        assert!(r.validated && st_valid);
        // Wavefront is uniform (unit costs), so the lockstep baseline
        // applies too, to the one plan both engines ran.
        let lockstep = r.lockstep_makespan.unwrap();
        assert!(lockstep >= r.stats.makespan);
        assert!(lockstep >= st.stats.makespan);
        assert_eq!(r.stats.makespan, st.stats.makespan);
    }

    #[test]
    fn work_stealing_strategy_validates() {
        let (guest, host) = lab();
        let r = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::WorkStealing { chunk: 0 })
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(r.validated);
        assert_eq!(r.strategy, "work-stealing(chunk=0)");
    }

    #[test]
    fn bad_compute_costs_are_rejected() {
        let (guest, host) = lab();
        let err = Simulation::of(&guest)
            .on(&host)
            .compute_costs(vec![1, 2])
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)));
        let err = Simulation::of(&guest)
            .on(&host)
            .compute_costs(vec![1, 0, 1, 1])
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)));
    }
}
