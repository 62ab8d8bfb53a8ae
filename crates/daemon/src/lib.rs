//! Simulation-as-a-service for the OVERLAP reproduction.
//!
//! The paper's machinery exists to serve *many* guest computations over
//! a shared host network; this crate makes that literal. A [`Daemon`]
//! accepts serialized scenarios ([`overlap_core::ScenarioSpec`]), runs
//! them concurrently on a worker pool, and:
//!
//! * lowers each distinct `(guest, host, assignment, config)` **once**
//!   into an owned `ExecPlan` held in a [`PlanCache`] — a cache hit runs
//!   a view of the cached plan (`ExecPlan::share`) with the session's
//!   fault and compute-cost variant attached, never re-lowered, and the
//!   cached plan itself is never edited;
//! * supports cooperative **pause / resume / cancel** per session
//!   through `overlap_sim::RunControl` checkpoints, with the guarantee
//!   that a paused-and-resumed run is bit-identical to an uninterrupted
//!   one;
//! * **streams** progress and stall-trace [`Event`]s to long-polling
//!   subscribers;
//! * **persists** completed runs as [`RunRecord`]s in a pluggable
//!   [`RunStore`] ([`MemStore`] or [`JsonlStore`]), queryable across
//!   daemon restarts by plan hash.
//!
//! Determinism contract: the same scenario submitted N times
//! concurrently produces results byte-identical to a sequential run —
//! engines are deterministic, cached plans are read-only (each run brings
//! its own faults and costs on a shared view, so runs of one key execute
//! in parallel with no lock held), and control checkpoints never perturb
//! the schedule.
//!
//! The HTTP front end ([`serve`]) speaks minimal HTTP/1.1 over
//! `std::net` (the workspace builds offline; no async runtime), and
//! [`Client`] is the matching blocking client used by `overlap-cli`'s
//! `serve` / `submit` / `watch` / `runs` subcommands.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod daemon;
pub mod http;
pub mod store;
pub mod wire;

pub use cache::{CacheStats, PlanCache};
pub use client::{Client, ClientError};
pub use daemon::{Daemon, DaemonConfig, Event, SessionView, Status};
pub use http::{serve, Server};
pub use store::{JsonlStore, MemStore, RunRecord, RunStore};
