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
//! own routing table.

use crate::assignment::Assignment;
use crate::bandwidth::BandwidthMode;
use crate::engine::{Jitter, RunError};
use crate::plan::ExecPlan;
use crate::routing::RoutingTable;
use overlap_net::{HostGraph, NodeId};
use std::collections::HashMap;

/// The exact cost of one lockstep round: slowest processor's compute plus
/// the slowest route's latency with per-link queueing (each subscription
/// injects one pebble per round; links serve `bw` per tick).
///
/// Fails with [`RunError::MissingLink`] when a route references a host
/// link that does not exist (a malformed routing table — previously a
/// panic).
pub fn round_cost(
    host: &HostGraph,
    assign: &Assignment,
    routing: &RoutingTable,
    bandwidth: BandwidthMode,
) -> Result<u64, RunError> {
    let compute = assign.load() as u64;
    let bw = bandwidth.per_tick(host.num_nodes()) as u64;
    // Pebbles per directed link per round.
    let mut per_link: HashMap<(NodeId, NodeId), u64> = HashMap::new();
    for sub in &routing.subs {
        for w in sub.path.windows(2) {
            *per_link.entry((w[0], w[1])).or_default() += 1;
        }
    }
    let mut worst_route = 0u64;
    for sub in &routing.subs {
        let mut t = 0u64;
        for w in sub.path.windows(2) {
            let load = per_link[&(w[0], w[1])];
            let queueing = load.div_ceil(bw) - 1;
            let delay = host.link_delay(w[0], w[1]).ok_or(RunError::MissingLink {
                from: w[0],
                to: w[1],
            })?;
            t += delay + queueing;
        }
        worst_route = worst_route.max(t);
    }
    Ok(compute + worst_route)
}

impl ExecPlan<'_> {
    /// The paper's §1 baseline on this plan: the makespan of lockstep
    /// rounds, `steps × round_cost`. The closed form assumes fixed delays,
    /// unicast routes, and unit-cost pebbles on always-resident copies, so
    /// a plan with faults, compute costs, multicast, jitter, a memory
    /// budget or non-unit task costs fails with
    /// [`RunError::UnsupportedFeature`] naming the first of them.
    pub fn lockstep_makespan(&self) -> Result<u64, RunError> {
        let config = &self.config;
        let rows = [
            (
                "fault injection",
                self.faults.as_ref().is_some_and(|f| !f.is_empty()),
            ),
            ("per-processor compute costs", self.compute_costs.is_some()),
            ("multicast distribution", config.multicast),
            ("delay jitter", config.jitter != Jitter::None),
            ("memory budget", config.mem.is_some()),
            ("non-unit task costs", self.guest.has_nonunit_task_costs()),
        ];
        if let Some(&(feature, _)) = rows.iter().find(|&&(_, asked)| asked) {
            return Err(RunError::UnsupportedFeature {
                engine: "lockstep",
                feature,
            });
        }
        let routing = self.routing().expect("multicast is rejected above");
        let cost = round_cost(&self.host, &self.assign, routing, config.bandwidth)?;
        Ok(cost * self.guest.steps as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig, MemBudget};
    use crate::faults::FaultPlan;
    use overlap_model::{GuestSpec, ProgramKind, TaskGraph};
    use overlap_net::topology::linear_array;
    use overlap_net::DelayModel;

    fn lockstep(
        guest: &GuestSpec,
        host: &HostGraph,
        assign: &Assignment,
        bandwidth: BandwidthMode,
    ) -> Result<u64, RunError> {
        let cfg = EngineConfig {
            bandwidth,
            ..Default::default()
        };
        ExecPlan::build(guest, host, assign, cfg)?.lockstep_makespan()
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
            Ok(52 * 6)
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
    /// is a typed error naming it: never the plain model's number.
    #[test]
    fn untimeable_features_are_typed_errors() {
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
            (
                line_plan(EngineConfig::default())
                    .with_faults(FaultPlan::new().link_down(1, 2, 5, 40))
                    .unwrap(),
                "fault injection",
            ),
            (
                line_plan(EngineConfig::default()).with_compute_costs(vec![1, 9, 1, 1]),
                "per-processor compute costs",
            ),
            (
                line_plan(EngineConfig {
                    multicast: true,
                    ..Default::default()
                }),
                "multicast distribution",
            ),
            (
                line_plan(EngineConfig {
                    jitter: Jitter::Periodic {
                        amplitude_pct: 90,
                        period: 2,
                    },
                    ..Default::default()
                }),
                "delay jitter",
            ),
            (
                line_plan(EngineConfig {
                    mem: Some(MemBudget {
                        budget: 2,
                        reload_cost: 1,
                    }),
                    ..Default::default()
                }),
                "memory budget",
            ),
            (weighted, "non-unit task costs"),
        ];
        for (plan, feature) in plans {
            assert_eq!(
                plan.lockstep_makespan(),
                Err(RunError::UnsupportedFeature {
                    engine: "lockstep",
                    feature
                })
            );
        }
        // An empty fault plan is no fault injection.
        let plan = line_plan(EngineConfig::default())
            .with_faults(FaultPlan::new())
            .unwrap();
        assert!(plan.lockstep_makespan().is_ok());
    }

    #[test]
    fn malformed_route_reports_missing_link() {
        // Build a routing table against one host, then cost it against a
        // host whose links differ: the route references a missing link.
        let guest = GuestSpec::array(6, ProgramKind::StencilSum, 0, 2);
        let chain = linear_array(3, DelayModel::constant(1), 0);
        let assign = Assignment::blocked(3, 6);
        let routing = RoutingTable::build(&chain, &guest.topology, &assign);
        // Same node count, but the 1–2 link the routes rely on is gone.
        let mut sparse = HostGraph::new("sparse", 3);
        sparse.add_link(0, 1, 1);
        let err = round_cost(&sparse, &assign, &routing, BandwidthMode::LogN).unwrap_err();
        assert!(matches!(err, RunError::MissingLink { .. }), "{err:?}");
    }
}
