//! Aggregate statistics of a simulation run.

use crate::trace::StallBreakdown;
use serde::{Deserialize, Serialize};

/// Measured quantities of one host simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Number of guest cells (databases).
    pub guest_cells: u32,
    /// Guest steps simulated (`t` in the paper).
    pub guest_steps: u32,
    /// Host processors.
    pub host_procs: u32,
    /// Tick at which the last pebble was computed.
    pub makespan: u64,
    /// `makespan / guest_steps` — the paper's slowdown.
    pub slowdown: f64,
    /// Pebbles computed across all processors (counts redundancy).
    pub total_compute: u64,
    /// Pebbles the guest itself computes (`cells × steps`).
    pub guest_work: u64,
    /// Average database copies per cell.
    pub redundancy: f64,
    /// Maximum databases on one processor (§2's load).
    pub load: usize,
    /// Processors holding at least one database.
    pub active_procs: usize,
    /// Column pebbles sent over subscriptions.
    pub messages: u64,
    /// Total link traversals by pebbles.
    pub pebble_hops: u64,
    /// Number of (consumer, column) subscriptions.
    pub subscriptions: usize,
    /// Link bandwidth used (pebbles/tick).
    pub bandwidth_per_link: u32,
    /// Pebble injections on the busiest directed link (0 when no traffic).
    pub busiest_link_pebbles: u64,
    /// Mean pebble injections per directed link that carried any traffic.
    pub mean_link_pebbles: f64,
    /// Events dispatched by the engine's queue (compute completions, route
    /// hops, deliveries) — the denominator for events/sec throughput.
    #[serde(default)]
    pub events_processed: u64,
    /// Largest number of simultaneously pending events. It bounds the
    /// event calendar's ring storage: the calendar's slab never holds
    /// more slots than events were pending at once. The stepped oracle
    /// counts the same depth over its own queue, so both engines report
    /// the same value.
    #[serde(default)]
    pub peak_queue_depth: u64,
    /// Past-tick pushes the event calendar had to clamp forward to its
    /// cursor — an anomaly counter, always zero on a healthy run. A
    /// non-zero value means an engine tried to schedule work in the past
    /// (silent time-travel); debug builds assert instead of counting.
    #[serde(default)]
    pub queue_clamped_pushes: u64,
    /// Fault-recovery counters (all zero when the run had no fault plan).
    #[serde(default)]
    pub faults: FaultStats,
    /// Stall attribution totals, populated only by traced runs
    /// ([`Engine::run_traced`](crate::engine::Engine::run_traced)) —
    /// `None` otherwise, so untraced stats compare equal across engines.
    #[serde(default)]
    pub stalls: Option<StallBreakdown>,
    /// Memory-budget eviction/reload accounting (all zero when the run had
    /// no [`MemBudget`](crate::engine::MemBudget), so equality with
    /// unbounded-memory engines is unaffected).
    #[serde(default)]
    pub mem: MemStats,
}

/// Counters for the red-blue pebbling memory budget: how often database
/// copies were evicted from a processor's fast memory and how many extra
/// ticks reloads cost. All zero for unbounded runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    /// Database copies evicted from fast memory.
    pub evictions: u64,
    /// Copies reloaded into fast memory after an eviction.
    pub reloads: u64,
    /// Extra compute ticks charged for reloads (summed over processors).
    pub reload_ticks: u64,
}

/// Counters describing how much fault recovery a run performed. All zero
/// for a fault-free run, so `RunStats` equality with fault-free engines is
/// unaffected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Transfer attempts that timed out on a downed link and were retried.
    pub retries: u64,
    /// Subscriptions rerouted to a surviving holder after a crash.
    pub rerouted_subscriptions: u64,
    /// Extra ticks pebbles spent waiting out timeouts and backoff —
    /// latency attributable to faults, summed over retried transfers.
    pub fault_stall_ticks: u64,
    /// Processors that crashed during the run.
    pub crashed_procs: u32,
    /// Database copies lost to crashes.
    pub lost_copies: u32,
}

impl RunStats {
    /// Work efficiency: guest work per host processor-tick consumed.
    /// `efficiency = guest_work / (host_procs × makespan)`; a
    /// *work-preserving* simulation keeps this Ω(1/polylog).
    pub fn efficiency(&self) -> f64 {
        if self.makespan == 0 || self.host_procs == 0 {
            return 0.0;
        }
        self.guest_work as f64 / (self.host_procs as f64 * self.makespan as f64)
    }

    /// Redundant-work overhead: host compute / guest work.
    pub fn work_overhead(&self) -> f64 {
        if self.guest_work == 0 {
            return 0.0;
        }
        self.total_compute as f64 / self.guest_work as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> RunStats {
        RunStats {
            guest_cells: 8,
            guest_steps: 10,
            host_procs: 4,
            makespan: 40,
            slowdown: 4.0,
            total_compute: 120,
            guest_work: 80,
            redundancy: 1.5,
            load: 3,
            active_procs: 4,
            messages: 60,
            pebble_hops: 70,
            subscriptions: 6,
            bandwidth_per_link: 2,
            busiest_link_pebbles: 30,
            mean_link_pebbles: 10.0,
            events_processed: 250,
            peak_queue_depth: 12,
            queue_clamped_pushes: 0,
            faults: FaultStats::default(),
            stalls: None,
            mem: MemStats::default(),
        }
    }

    #[test]
    fn efficiency_formula() {
        let s = stats();
        assert!((s.efficiency() - 80.0 / 160.0).abs() < 1e-12);
    }

    #[test]
    fn work_overhead_formula() {
        let s = stats();
        assert!((s.work_overhead() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases_are_zero() {
        let mut s = stats();
        s.makespan = 0;
        assert_eq!(s.efficiency(), 0.0);
        s.guest_work = 0;
        assert_eq!(s.work_overhead(), 0.0);
    }
}
