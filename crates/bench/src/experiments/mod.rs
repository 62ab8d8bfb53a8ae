//! All experiments, one module per paper result.
//!
//! | module | reproduces |
//! |--------|------------|
//! | [`e1_overlap`]    | Theorem 2 — OVERLAP slowdown `O(d_ave·log³n)`, `d_max` independence |
//! | [`e2_efficient`]  | Theorem 3 — work-efficient OVERLAP: load & efficiency |
//! | [`e3_uniform`]    | Theorem 4 — uniform-delay `O(√d)` vs the `Θ(d)` baseline |
//! | [`e4_combined`]   | Theorem 5 — `O(√d_ave·log³n)` and its crossover vs OVERLAP |
//! | [`e5_general`]    | Theorem 6 — arbitrary bounded-degree hosts via embedding |
//! | [`e6_mesh`]       | Theorems 7/8 — 2-D guests on linear hosts and NOWs |
//! | [`e7_one_copy`]   | Theorem 9 — single-copy `√n` lower bound on `H1` |
//! | [`e8_two_copy`]   | Theorem 10 — two-copy `Ω(log n)` lower bound on `H2` |
//! | [`e9_cliques`]    | §4 — clique-of-cliques `n^{1/4}` counterexample |
//! | [`e10_baselines`] | §1 — lockstep / slackness / blocked vs OVERLAP |
//! | [`e11_mesh_on_mesh`] | §7 open question — 2-D guest on 2-D host, measured |
//! | [`e12_ablations`] | halo width, killing constant, bandwidth ablations |
//! | [`e13_schedule`]  | Theorem 1 — measured row-completion times vs the proof's deadlines |
//! | [`e14_heterogeneous`] | beyond the paper — heterogeneous workstation speeds |
//! | [`e15_tree`]      | §7 — tree guests on a NOW: subtree vs heap-order placement |
//! | [`e16_replan`]    | adaptivity — re-planning after a link degrades |
//! | [`e17_adaptive2d`] | 2-D killing — stage 1 lifted to mesh hosts |
//! | [`e18_programs`]  | workload independence — one slowdown across guest programs |
//! | [`engine_scale`]  | simulator throughput of the event engine, checked against the stepped oracle (+ CI perf gate) |
//! | [`plan_reuse`]    | sweep wall-clock: shared ExecPlan vs per-run lowering |
//! | [`fault_tolerance`] | graceful degradation: OVERLAP vs single-copy under link outages & crashes |
//! | [`stall_attribution`] | where the ticks go: stall categories vs `d_ave` across placements |
//! | [`task_graphs`]   | DAG guests: work-stealing vs OVERLAP vs blocked across latency regimes & memory budgets |
//! | [`figures`]       | Figures 1–6 regenerated as data |

use overlap_core::pipeline::{SimReport, Strategy};
use overlap_core::{Error, Simulation};
use overlap_model::{GuestSpec, ReferenceTrace};
use overlap_net::HostGraph;

/// Shared by the experiments: run a line/ring guest through the
/// [`Simulation`] builder, validating against a precomputed trace.
pub(crate) fn simulate_line_with_trace(
    guest: &GuestSpec,
    host: &HostGraph,
    strategy: Strategy,
    trace: &ReferenceTrace,
) -> Result<SimReport, Error> {
    Simulation::of(guest)
        .on(host)
        .strategy(strategy)
        .build()
        .and_then(|s| s.run_with_trace(trace))
}

pub mod e10_baselines;
pub mod e11_mesh_on_mesh;
pub mod e12_ablations;
pub mod e13_schedule;
pub mod e14_heterogeneous;
pub mod e15_tree;
pub mod e16_replan;
pub mod e17_adaptive2d;
pub mod e18_programs;
pub mod e1_overlap;
pub mod e2_efficient;
pub mod e3_uniform;
pub mod e4_combined;
pub mod e5_general;
pub mod e6_mesh;
pub mod e7_one_copy;
pub mod e8_two_copy;
pub mod e9_cliques;
pub mod engine_scale;
pub mod fault_tolerance;
pub mod figures;
pub mod plan_reuse;
pub mod stall_attribution;
pub mod task_graphs;
