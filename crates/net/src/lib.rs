//! # overlap-net
//!
//! The *host* network substrate for the SPAA'96 latency-hiding
//! reproduction: networks of workstations (NOWs) with arbitrary link
//! delays.
//!
//! Provides:
//!
//! * [`HostGraph`] — an undirected graph with integer link delays;
//! * [`topology`] — builders for every host family the paper uses: linear
//!   arrays, rings, meshes, tori, hypercubes, trees, random regular graphs,
//!   the clique-of-cliques counterexample (§4), and the lower-bound hosts
//!   `H1` (Thm 9) and `H2` (Thm 10);
//! * [`DelayModel`] — seeded link-delay distributions (constant, uniform,
//!   bimodal, heavy-tail, periodic spikes);
//! * [`paths`] — delay-weighted shortest paths (Dijkstra);
//! * [`spanning`] — spanning trees;
//! * [`embed`] — Fact 3: one-to-one, dilation-3 embedding of a linear array
//!   into any connected graph (Sekanina's T³ Hamiltonian-path theorem),
//!   which §4 uses to lift the linear-array results to arbitrary
//!   bounded-degree NOWs.

#![warn(missing_docs)]

pub mod delays;
pub mod embed;
pub mod graph;
pub mod metrics;
pub mod paths;
pub mod spanning;
pub mod topology;

pub use delays::DelayModel;
pub use embed::{embed_linear_array, LineEmbedding};
pub use graph::{Delay, HostGraph, Link, NodeId};
pub use metrics::DelayStats;
pub use paths::{dijkstra, shortest_path, PathResult, Search};
