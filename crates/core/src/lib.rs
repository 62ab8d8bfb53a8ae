//! # overlap-core
//!
//! The algorithms of Andrews, Leighton, Metaxas, Zhang, *"Improved Methods
//! for Hiding Latency in High Bandwidth Networks"* (SPAA 1996):
//!
//! * [`tree`] / [`killing`] — the binary interval tree over the host array,
//!   the stage-1 delay killing (`D_k` thresholds), the stage-2
//!   labeling-and-killing (`m_k` overlap sizes), and the stage-3 relabeling
//!   (§3.1, Lemmas 1–4);
//! * [`assign`] — the recursive overlapped database assignment (§3.2) in
//!   load-1 (Thm 2) and work-efficient blocked (Thm 3) forms;
//! * [`overlap`] — algorithm OVERLAP end-to-end, plus the recursive
//!   schedule bound `s_t^{(k)}` (Theorem 1/2 predictions);
//! * [`uniform`] — the Theorem 4 uniform-delay √d simulation (regions
//!   `P_j`, trapezium/triangle phases);
//! * [`combined`] — Theorem 5: the composed `O(√d_ave·log³n)` simulation
//!   through the intermediate uniform array `H0`;
//! * [`general`] — Theorem 6: arbitrary connected bounded-degree hosts via
//!   the dilation-3 embedding;
//! * [`mesh`] — Theorems 7/8: 2-D array guests on linear hosts and NOWs;
//! * [`baseline`] — the prior approaches the paper compares against:
//!   complementary slackness and blocked layouts (the lockstep
//!   clock-to-`d_max` baseline is a closed form over the lowered plan,
//!   reported as [`SimReport::lockstep_makespan`]);
//! * [`lower`] — the lower-bound machinery of §6: Theorem 9 single-copy
//!   certificates on `H1`, Theorem 10 two-copy certificates on `H2`
//!   (Fact 4, the 4j-pebble zigzag path), and the §4 clique-of-cliques
//!   argument;
//! * [`theory`] — closed-form predicted bounds for every theorem;
//! * [`pipeline`] — placement strategies and [`plan_placement`], which
//!   places any guest (line, ring, task graph, grid, binary tree) on any
//!   connected host;
//! * [`simulation`] — the [`Simulation`] builder, the one front door:
//!   placement, lowering, the event-engine run and validation for every
//!   guest (the stepped oracle takes the lowered plan directly, through
//!   `overlap_sim::run_stepped`).
//!
//! [`plan_placement`]: pipeline::plan_placement

#![warn(missing_docs)]

pub mod assign;
pub mod baseline;
pub mod combined;
pub mod direct2d;
pub mod error;
pub mod general;
pub mod killing;
pub mod lower;
pub mod mesh;
pub mod overlap;
pub mod pipeline;
pub mod scenario;
pub mod schedule;
pub mod simulation;
pub mod steal;
pub mod theory;
pub mod tree;
pub mod tree_guest;
pub mod uniform;

pub use assign::{expand_blocks, SlotAssignment};
pub use error::Error;
pub use killing::{KillOutcome, KillParams};
pub use overlap::{plan_overlap, OverlapError, OverlapPlan};
pub use pipeline::{SimReport, Strategy};
pub use scenario::ScenarioSpec;
pub use simulation::{Simulation, SimulationBuilder};
pub use tree::{IntervalTree, TreeNode};
