//! The lockstep baseline: §1's naive method, as a closed form.
//!
//! "The simplest of these methods is to slow down the computation to the
//! point where the latency is accommodated. … the circuit needs to be
//! slowed down to accommodate the highest latency."
//!
//! Every guest step is one globally synchronized round:
//!
//! 1. each processor computes this step's pebble for every held cell
//!    (`load` ticks — processors run their cells sequentially);
//! 2. every subscription ships exactly one pebble along its route; the
//!    round's barrier waits for the slowest route, including bandwidth
//!    serialization where routes share links.
//!
//! The per-round cost is therefore
//! `max_p load(p) + max_route(delay + per-link queueing)`, and the
//! makespan is exactly `steps × round_cost` — the `Θ(d_max + 1)` the
//! paper ascribes to clock-slowing, generalized to routed NOWs. Nothing
//! needs executing: every copy receives every dependency each round, so
//! the state is the unit-delay reference's by construction, and
//! [`ExecPlan::lockstep_makespan`] returns only the time, from the plan's
//! own interned routes.

use crate::engine::Jitter;
use crate::plan::ExecPlan;

impl ExecPlan<'_> {
    /// The paper's §1 baseline on this plan: the makespan of lockstep
    /// rounds, `steps × round_cost`. The closed form assumes fixed delays,
    /// unicast routes, and unit-cost pebbles on always-resident copies, so
    /// it is `None` for a plan with faults, compute costs, multicast,
    /// jitter, a memory budget or non-unit task costs.
    pub fn lockstep_makespan(&self) -> Option<u64> {
        let config = &self.config;
        let untimeable = self.faults.as_ref().is_some_and(|f| !f.is_empty())
            || self.compute_costs.is_some()
            || config.multicast
            || config.jitter != Jitter::None
            || config.mem.is_some()
            || self.guest.has_nonunit_task_costs();
        (!untimeable).then(|| self.round_cost() * self.guest.steps as u64)
    }

    /// The exact cost of one lockstep round: the slowest processor's
    /// compute plus the slowest route's latency with per-link queueing
    /// (each subscription injects one pebble per round; links serve `bw`
    /// per tick). Routes are priced from the plan's interned link ids.
    fn round_cost(&self) -> u64 {
        let hot = &self.hot;
        let bw = self.config.bandwidth.per_tick(self.host.num_nodes()) as u64;
        // Pebbles per directed link per round.
        let mut per_link = vec![0u64; hot.link_delay.len()];
        for &l in &hot.sub_links {
            per_link[l as usize] += 1;
        }
        let worst_route = hot
            .sub_link_off
            .windows(2)
            .map(|r| {
                hot.sub_links[r[0] as usize..r[1] as usize]
                    .iter()
                    .map(|&l| hot.link_delay[l as usize] + per_link[l as usize].div_ceil(bw) - 1)
                    .sum::<u64>()
            })
            .max()
            .unwrap_or(0);
        self.assign.load() as u64 + worst_route
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::Assignment;
    use crate::bandwidth::BandwidthMode;
    use crate::engine::{Engine, EngineConfig, MemBudget};
    use crate::faults::FaultPlan;
    use overlap_model::{GuestSpec, ProgramKind, TaskGraph};
    use overlap_net::topology::linear_array;
    use overlap_net::{DelayModel, HostGraph};

    fn lockstep(
        guest: &GuestSpec,
        host: &HostGraph,
        assign: &Assignment,
        bandwidth: BandwidthMode,
    ) -> Option<u64> {
        let cfg = EngineConfig {
            bandwidth,
            ..Default::default()
        };
        ExecPlan::build(guest, host, assign, cfg)
            .unwrap()
            .lockstep_makespan()
    }

    #[test]
    fn lockstep_pays_dmax_every_step() {
        let d = 50;
        let guest = GuestSpec::array(8, ProgramKind::Relaxation, 3, 6);
        let host = linear_array(4, DelayModel::constant(d), 0);
        let assign = Assignment::blocked(4, 8);
        // round = load (2) + worst route (one link, 50) = 52.
        assert_eq!(
            lockstep(&guest, &host, &assign, BandwidthMode::LogN),
            Some(52 * 6)
        );
    }

    #[test]
    fn lockstep_never_beats_the_greedy_engine() {
        for seed in 0..5 {
            let guest = GuestSpec::array(16, ProgramKind::Relaxation, seed, 12);
            let host = linear_array(4, DelayModel::uniform(1, 40), seed);
            let assign = Assignment::blocked(4, 16);
            let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap();
            let greedy = Engine::from_plan(&plan).run().unwrap();
            let lock = plan.lockstep_makespan().unwrap();
            assert!(
                lock >= greedy.stats.makespan,
                "seed {seed}: lockstep {lock} < greedy {}",
                greedy.stats.makespan
            );
        }
    }

    #[test]
    fn queueing_shows_up_with_bandwidth_one() {
        // Many subscriptions over one link: bw = 1 queues them.
        let guest = GuestSpec::array(12, ProgramKind::StencilSum, 1, 4);
        let host = linear_array(2, DelayModel::constant(5), 0);
        let assign = Assignment::blocked(2, 12);
        let fat = lockstep(&guest, &host, &assign, BandwidthMode::Fixed(8)).unwrap();
        let thin = lockstep(&guest, &host, &assign, BandwidthMode::Fixed(1)).unwrap();
        assert!(thin >= fat);
    }

    /// A 16-cell KV line on a 4-node line host under Blocked, lowered with
    /// `cfg`.
    fn line_plan(cfg: EngineConfig) -> ExecPlan<'static> {
        ExecPlan::build_owned(
            GuestSpec::array(16, ProgramKind::KvWorkload, 3, 12),
            linear_array(4, DelayModel::uniform(1, 6), 7),
            Assignment::blocked(4, 16),
            cfg,
        )
        .unwrap()
    }

    /// The closed form cannot time any of these features, so each plan
    /// has no baseline: never the plain model's number.
    #[test]
    fn untimeable_features_have_no_baseline() {
        let weighted = ExecPlan::build_owned(
            GuestSpec::dag(
                TaskGraph::layered_random(8, 5, 2, 3, 9),
                ProgramKind::KvWorkload,
                3,
            ),
            linear_array(4, DelayModel::uniform(1, 6), 7),
            Assignment::blocked(4, 8),
            EngineConfig::default(),
        )
        .unwrap();
        let plans = [
            line_plan(EngineConfig::default())
                .with_faults(FaultPlan::new().link_down(1, 2, 5, 40))
                .unwrap(),
            line_plan(EngineConfig::default()).with_compute_costs(vec![1, 9, 1, 1]),
            line_plan(EngineConfig {
                multicast: true,
                ..Default::default()
            }),
            line_plan(EngineConfig {
                jitter: Jitter::Periodic {
                    amplitude_pct: 90,
                    period: 2,
                },
                ..Default::default()
            }),
            line_plan(EngineConfig {
                mem: Some(MemBudget {
                    budget: 2,
                    reload_cost: 1,
                }),
                ..Default::default()
            }),
            weighted,
        ];
        for plan in plans {
            assert_eq!(plan.lockstep_makespan(), None, "{plan:?}");
        }
        // An empty fault plan is no fault injection.
        let plan = line_plan(EngineConfig::default())
            .with_faults(FaultPlan::new())
            .unwrap();
        assert!(plan.lockstep_makespan().is_some());
    }
}
