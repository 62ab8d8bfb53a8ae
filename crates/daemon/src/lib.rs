//! Simulation-as-a-service for the OVERLAP reproduction.
//!
//! The paper's machinery exists to serve *many* guest computations over
//! a shared host network; this crate makes that literal. A [`Daemon`]
//! accepts serialized scenarios ([`overlap_core::ScenarioSpec`]), runs
//! them concurrently on the event engine over a worker pool, and:
//!
//! * lowers each distinct `(guest, host, assignment, config)` **once
//!   while cached** into an owned `ExecPlan` held in a [`PlanCache`] — a
//!   cache hit runs a view of the cached plan (`ExecPlan::share`) with
//!   the session's fault and compute-cost variant attached, never
//!   re-lowered, and the cached plan itself is never edited; the cache
//!   is an LRU bounded by [`PLAN_CACHE_BYTES`] of plans, and an evicted
//!   scenario lowers again on its next submission;
//! * supports cooperative **pause / resume / cancel** per session
//!   through `overlap_sim::RunControl` checkpoints, with the guarantee
//!   that a paused-and-resumed run is bit-identical to an uninterrupted
//!   one;
//! * **streams** progress and stall-trace [`Event`]s to long-polling
//!   subscribers;
//! * **persists** completed runs as [`RunRecord`]s in a pluggable
//!   [`RunStore`] ([`MemStore`] or [`JsonlStore`]), queryable across
//!   daemon restarts by plan hash, while the session registry keeps only
//!   the newest [`MAX_FINISHED_SESSIONS`] finished sessions;
//! * **survives** a panicking run: the session fails with the panic's
//!   message and the worker keeps serving.
//!
//! Determinism contract: the same scenario submitted N times
//! concurrently produces results byte-identical to a sequential run —
//! the engine is deterministic, cached plans are read-only (each run brings
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

pub use cache::{CacheStats, PlanCache, PLAN_CACHE_BYTES};
pub use client::{Client, ClientError};
pub use daemon::{Daemon, DaemonConfig, Event, SessionView, Status, MAX_FINISHED_SESSIONS};
pub use http::{serve, Server};
pub use store::{JsonlStore, MemStore, RunRecord, RunStore};

/// Lock `m`, recovering it if a panic poisoned it. Every daemon lock
/// guards state that stays consistent between statements, and a panicking
/// run is caught and failed by its worker, so the lock's data is still
/// good.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Test-only failpoints: a site armed for a plan hash panics the next
/// time it runs for that hash, once.
#[cfg(test)]
pub(crate) mod failpoint {
    use std::sync::Mutex;

    static ARMED: Mutex<Vec<(&'static str, u64)>> = Mutex::new(Vec::new());

    /// Make `site` panic once for plan hash `hash`.
    pub(crate) fn arm(site: &'static str, hash: u64) {
        crate::lock(&ARMED).push((site, hash));
    }

    /// Panic if `site` is armed for `hash`, disarming it.
    pub(crate) fn hit(site: &'static str, hash: u64) {
        let mut armed = crate::lock(&ARMED);
        if let Some(i) = armed.iter().position(|&a| a == (site, hash)) {
            armed.swap_remove(i);
            drop(armed);
            panic!("failpoint {site} hit for plan {hash:#018x}");
        }
    }
}
