//! Stall attribution: *where* does a run's slowdown come from?
//!
//! The paper's whole argument is about where latency goes — OVERLAP
//! (Theorem 2) wins because pebble `(i, t)` stalls on dependencies,
//! bandwidth, or database-update order, and the deadlines `s_t^{(k)}`
//! bound those stalls. `RunStats` alone cannot say *why* a slowdown is
//! `4.2×` instead of `3.1×`. This module attributes every tick of every
//! copy's lifetime to exactly one category:
//!
//! * **compute** — the pebble was being computed (`cost_of(p)` ticks);
//! * **dependency** — the copy's next pebble could not start because a
//!   producer (local sibling or remote holder) had not yet *computed* the
//!   value it needs;
//! * **bandwidth** — the last missing dependency was computed but still in
//!   flight: link latency plus pipelined-injection slot waits
//!   (`d + ⌈P/bw⌉ − 1`, the paper's bandwidth law);
//! * **db-order** — the pebble was ready but queued behind the same
//!   processor's other columns (§2's in-order database updates serialize
//!   one pebble per tick per processor);
//! * **fault** — timeout and exponential-backoff ticks of the last missing
//!   dependency's transfer (zero without a fault plan);
//! * **drained** — the copy had finished all its steps and idled until the
//!   run's makespan.
//!
//! The categories partition `[0, makespan)` for every copy, so the
//! conservation invariant
//!
//! ```text
//! compute + dependency + bandwidth + db_order + fault + drained
//!     == makespan × copies
//! ```
//!
//! holds exactly for every completed run — it is cross-checked against the
//! classic oracle engine in the test suite and in `exp_stall_attribution`.
//!
//! # Mechanics
//!
//! The engine's dispatch loop is generic over a [`Tracer`]; the default
//! [`NoopTracer`] has empty `#[inline]` hooks, so the untraced engine
//! monomorphizes to the exact event schedule it had before this module
//! existed (the golden determinism tests pin this bit-for-bit).
//! [`StallTracer`] implements the attribution: for each copy it records
//! when a pebble became *ready* (and why — [`ReadyCause`]), when it was
//! *popped* for compute, and when it *finished*; the window between two
//! completions is then split as
//!
//! ```text
//! done(s−1) ····· send ········ ready ······ start ········ done(s)
//!           │ dependency │ bw+fault │ db-order │  compute  │
//! ```
//!
//! where `send` is the completion tick of the last-arriving dependency on
//! its producer copy. Per-link occupancy and per-processor ready-queue
//! depth are additionally sampled into time series at a configurable
//! stride ([`TraceConfig::series_stride`]).
//!
//! The `done` ticks are a tracer of their own: `TimingTracer` keeps the
//! completion tick of every step on every copy and the crashed
//! processors, and nothing else, so it accepts every plan the event
//! engine runs (memory budgets and non-uniform task graphs included). It
//! backs [`Engine::run_timed`](crate::engine::Engine::run_timed), and
//! [`StallTracer`] embeds it, which is why a traced run carries
//! `RunOutcome::timing` too.

use crate::engine::TimingTrace;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of an opt-in traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Bin width, in ticks, of the per-link occupancy and per-processor
    /// queue-depth time series (≥ 1). Attribution totals are exact
    /// regardless of the stride; only the series are sampled.
    pub series_stride: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self { series_stride: 64 }
    }
}

/// Where every tick of every copy went, summed over copies. Produced by a
/// traced run; see the module docs for the category definitions and the
/// conservation invariant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallBreakdown {
    /// Ticks spent computing pebbles.
    pub compute_ticks: u64,
    /// Ticks stalled because a producer had not yet computed the needed
    /// value (includes waits on same-processor sibling columns).
    pub stall_dependency: u64,
    /// Ticks the last missing dependency spent in flight: link latency
    /// plus bandwidth-slot waits.
    pub stall_bandwidth: u64,
    /// Ticks a ready pebble waited behind the same processor's other
    /// columns (in-order database updates, one pebble per tick).
    pub stall_db_order: u64,
    /// Timeout + backoff ticks of the last missing dependency's transfer.
    pub stall_fault: u64,
    /// Ticks after a copy finished all steps, waiting for the makespan.
    pub stall_drained: u64,
}

impl StallBreakdown {
    /// Sum of every category — equals `makespan × copies` for a completed
    /// traced run.
    pub fn total(&self) -> u64 {
        self.compute_ticks
            + self.stall_dependency
            + self.stall_bandwidth
            + self.stall_db_order
            + self.stall_fault
            + self.stall_drained
    }

    /// Sum of the four stall categories (everything but compute and the
    /// post-completion drain).
    pub fn total_stalled(&self) -> u64 {
        self.stall_dependency + self.stall_bandwidth + self.stall_db_order + self.stall_fault
    }

    /// Accumulate another breakdown into this one.
    pub fn add(&mut self, other: &StallBreakdown) {
        self.compute_ticks += other.compute_ticks;
        self.stall_dependency += other.stall_dependency;
        self.stall_bandwidth += other.stall_bandwidth;
        self.stall_db_order += other.stall_db_order;
        self.stall_fault += other.stall_fault;
        self.stall_drained += other.stall_drained;
    }
}

/// Identifies one in-flight pebble message for fault accounting: a
/// subscription (or multicast tree) carrying one step's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKey {
    /// Unicast (or dynamic) subscription `sub` carrying step `step`.
    Sub {
        /// Subscription id (dynamic re-subscriptions extend the id space).
        sub: u32,
        /// The pebble step being carried.
        step: u32,
    },
    /// Multicast tree `tree` carrying step `step`.
    Tree {
        /// Multicast tree id.
        tree: u32,
        /// The pebble step being carried.
        step: u32,
    },
}

/// Why a pebble became ready — the event that flipped its last unmet
/// dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadyCause {
    /// Progress on the same processor (seed-time readiness or a local
    /// sibling column completing).
    Local,
    /// A remote dependency was delivered by this message.
    Delivered(MsgKey),
}

/// Hooks the engine's dispatch loop calls on a traced run. Every method
/// has an empty `#[inline]` default, so a no-op implementor compiles to
/// the untraced engine.
///
/// Ticks are engine event ticks; `proc`/`own_idx` identify a copy the way
/// the engine does (processor id + index into its held-cell list).
pub trait Tracer {
    /// Copy `(proc, own_idx)`'s step `step` became ready at `tick`.
    #[inline]
    fn on_enqueued(
        &mut self,
        _proc: u32,
        _own_idx: u32,
        _step: u32,
        _tick: u64,
        _cause: ReadyCause,
    ) {
    }

    /// Copy `(proc, own_idx)`'s step `step` was popped from the ready
    /// queue at `tick` and starts computing.
    #[inline]
    fn on_start(&mut self, _proc: u32, _own_idx: u32, _step: u32, _tick: u64) {}

    /// Copy `(proc, own_idx)` finished computing step `step` at `tick`.
    #[inline]
    fn on_compute_done(&mut self, _proc: u32, _own_idx: u32, _step: u32, _tick: u64) {}

    /// A pebble was injected on directed link `link`, departing at
    /// `depart`.
    #[inline]
    fn on_link_inject(&mut self, _link: u32, _depart: u64) {}

    /// Message `msg` timed out on a downed link and will retry: `ticks` =
    /// wasted transfer time plus backoff.
    #[inline]
    fn on_fault_wait(&mut self, _msg: MsgKey, _ticks: u64) {}

    /// Processor `proc` crashed (its copies leave the accounting).
    #[inline]
    fn on_crash(&mut self, _proc: u32) {}

    /// Subscription `sub` now sources from copy `src_idx` of processor
    /// `src_proc` (crash recovery re-subscription; `sub` may be new).
    #[inline]
    fn on_reroute(&mut self, _sub: u32, _src_proc: u32, _src_idx: u32) {}
}

/// The do-nothing tracer: `Engine::run` uses it, and the monomorphized
/// result schedules exactly the same events as the pre-trace engine.
pub struct NoopTracer;

impl Tracer for NoopTracer {}

/// Everything a traced run measured: the totals, the per-copy splits, and
/// the sampled time series.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceReport {
    /// Category totals over all surviving copies.
    pub totals: StallBreakdown,
    /// Per-copy breakdowns, aligned with `RunOutcome::copies`.
    pub per_copy: Vec<StallBreakdown>,
    /// The run's makespan (denominator of the conservation invariant).
    pub makespan: u64,
    /// Bin width of the time series, in ticks.
    pub series_stride: u64,
    /// Pebble injections per directed link per time bin.
    pub link_occupancy: Vec<Vec<u64>>,
    /// Maximum ready-queue depth per processor per time bin (bins without
    /// queue activity carry the depth held through them).
    pub queue_depth: Vec<Vec<u32>>,
}

/// Per-copy bookkeeping of the step currently in flight.
#[derive(Clone, Copy, Default)]
struct Pending {
    /// Tick the step became ready.
    ready: u64,
    /// Completion tick of the last-arriving dependency on its producer.
    send: u64,
    /// Fault (timeout + backoff) ticks of that dependency's transfer.
    fault: u64,
    /// Tick the step was popped for compute.
    start: u64,
}

/// The [`Tracer`] behind per-pebble timing (see the module docs): the
/// completion tick of every step on every copy, and which processors
/// crashed.
pub(crate) struct TimingTracer {
    /// `steps + 1`: stride of the per-copy completion-tick table.
    stride: usize,
    /// Global copy id of processor `p`'s first copy (prefix sums).
    copy_off: Vec<u32>,
    /// Completion tick per copy per step (`done[cid·stride + s]`; step 0
    /// is the initial value, "completed" at tick 0).
    done: Vec<u64>,
    /// Crashed processors (their copies leave the outcome).
    crashed: Vec<bool>,
}

impl TimingTracer {
    /// A tracer for a run of `steps` steps over the engine's copy layout
    /// (`copy_off`: per-processor copy-id prefix sums).
    pub(crate) fn new(steps: u32, copy_off: Vec<u32>) -> Self {
        let n_copies = *copy_off.last().unwrap_or(&0) as usize;
        let n_procs = copy_off.len().saturating_sub(1);
        let stride = steps as usize + 1;
        Self {
            stride,
            copy_off,
            done: vec![0; n_copies * stride],
            crashed: vec![false; n_procs],
        }
    }

    #[inline]
    fn cid(&self, proc: u32, own_idx: u32) -> usize {
        (self.copy_off[proc as usize] + own_idx) as usize
    }

    /// Completion tick of step `step` on copy `cid`.
    #[inline]
    fn done(&self, cid: usize, step: u32) -> u64 {
        self.done[cid * self.stride + step as usize]
    }

    /// Ids of the surviving copies, in `RunOutcome::copies` order.
    fn surviving(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.crashed.len())
            .filter(|&p| !self.crashed[p])
            .flat_map(|p| self.copy_off[p] as usize..self.copy_off[p + 1] as usize)
    }

    /// The surviving copies' completion ticks, steps `1..=T`, aligned with
    /// `RunOutcome::copies`.
    pub(crate) fn finish(&self) -> TimingTrace {
        TimingTrace {
            ticks: self
                .surviving()
                .map(|cid| self.done[cid * self.stride + 1..(cid + 1) * self.stride].to_vec())
                .collect(),
        }
    }
}

impl Tracer for TimingTracer {
    fn on_compute_done(&mut self, proc: u32, own_idx: u32, step: u32, tick: u64) {
        let cid = self.cid(proc, own_idx);
        self.done[cid * self.stride + step as usize] = tick;
    }

    fn on_crash(&mut self, proc: u32) {
        self.crashed[proc as usize] = true;
    }
}

/// The [`Tracer`] implementing stall attribution. Build one with
/// [`Engine::run_traced`](crate::engine::Engine::run_traced) — it needs
/// the engine's interned copy/route tables to map subscriptions to their
/// producing copies. It embeds a `TimingTracer` for the completion
/// ticks its windows are split at, so a traced run also carries timing.
pub struct StallTracer {
    /// Completion ticks and crashes (the window boundaries).
    timing: TimingTracer,
    /// Subscription id → producing copy id (extended by re-subscription).
    sub_src: Vec<u32>,
    /// Multicast tree id → producing copy id.
    tree_src: Vec<u32>,
    /// In-flight step per copy.
    pending: Vec<Pending>,
    /// Accumulated attribution per copy.
    per_copy: Vec<StallBreakdown>,
    /// Fault ticks accumulated per in-flight message (touched only when
    /// faults fire, so the fault-free traced path never hashes).
    fault_ticks: HashMap<MsgKey, u64>,
    /// Series bin width in ticks.
    series_stride: u64,
    /// Injections per link per bin.
    link_occupancy: Vec<Vec<u64>>,
    /// Current ready-queue depth per processor.
    depth: Vec<u32>,
    /// Max ready-queue depth per processor per bin.
    queue_depth: Vec<Vec<u32>>,
}

impl StallTracer {
    /// A tracer for a run of `steps` steps over the given copy layout.
    /// `copy_off` are the engine's per-processor copy-id prefix sums;
    /// `sub_src`/`tree_src` map each route to the copy that feeds it.
    pub(crate) fn new(
        cfg: TraceConfig,
        steps: u32,
        copy_off: Vec<u32>,
        sub_src: Vec<u32>,
        tree_src: Vec<u32>,
        n_links: usize,
    ) -> Self {
        let n_copies = *copy_off.last().unwrap_or(&0) as usize;
        let n_procs = copy_off.len().saturating_sub(1);
        Self {
            timing: TimingTracer::new(steps, copy_off),
            sub_src,
            tree_src,
            pending: vec![Pending::default(); n_copies],
            per_copy: vec![StallBreakdown::default(); n_copies],
            fault_ticks: HashMap::new(),
            series_stride: cfg.series_stride.max(1),
            link_occupancy: vec![Vec::new(); n_links],
            depth: vec![0; n_procs],
            queue_depth: vec![Vec::new(); n_procs],
        }
    }

    /// Record processor `p`'s current queue depth into its series bin,
    /// padding skipped bins with the depth that was held through them.
    fn sample_depth(&mut self, p: usize, tick: u64) {
        let bin = (tick / self.series_stride) as usize;
        let series = &mut self.queue_depth[p];
        if series.len() <= bin {
            let held = series.last().copied().unwrap_or(0).min(self.depth[p]);
            series.resize(bin, held);
            series.push(self.depth[p]);
        } else {
            series[bin] = series[bin].max(self.depth[p]);
        }
    }

    /// Close the books: fold the post-completion drain of every surviving
    /// copy and assemble the report, plus the embedded completion ticks.
    /// `makespan` is the completed run's final tick.
    pub(crate) fn finish(mut self, makespan: u64) -> (TraceReport, TimingTrace) {
        let timing = &self.timing;
        let last = timing.stride as u32 - 1;
        let mut totals = StallBreakdown::default();
        let mut per_copy = Vec::with_capacity(self.per_copy.len());
        for cid in timing.surviving() {
            let mut b = self.per_copy[cid];
            b.stall_drained += makespan - timing.done(cid, last);
            totals.add(&b);
            per_copy.push(b);
        }
        for series in &mut self.link_occupancy {
            if makespan > 0 {
                series.resize(((makespan / self.series_stride) + 1) as usize, 0);
            }
        }
        let report = TraceReport {
            totals,
            per_copy,
            makespan,
            series_stride: self.series_stride,
            link_occupancy: self.link_occupancy,
            queue_depth: self.queue_depth,
        };
        (report, self.timing.finish())
    }
}

impl Tracer for StallTracer {
    fn on_enqueued(&mut self, proc: u32, own_idx: u32, _step: u32, tick: u64, cause: ReadyCause) {
        let cid = self.timing.cid(proc, own_idx);
        let (send, fault) = match cause {
            // Local readiness: the whole pre-ready wait is a dependency
            // stall (a sibling producer on the same processor was late).
            ReadyCause::Local => (tick, 0),
            ReadyCause::Delivered(msg) => {
                let (src, dep_step) = match msg {
                    MsgKey::Sub { sub, step } => (self.sub_src[sub as usize], step),
                    MsgKey::Tree { tree, step } => (self.tree_src[tree as usize], step),
                };
                let send = self.timing.done(src as usize, dep_step);
                let fault = if self.fault_ticks.is_empty() {
                    0
                } else {
                    self.fault_ticks.remove(&msg).unwrap_or(0)
                };
                (send, fault)
            }
        };
        self.pending[cid] = Pending {
            ready: tick,
            send,
            fault,
            start: 0,
        };
        let p = proc as usize;
        self.depth[p] += 1;
        self.sample_depth(p, tick);
    }

    fn on_start(&mut self, proc: u32, own_idx: u32, _step: u32, tick: u64) {
        let cid = self.timing.cid(proc, own_idx);
        self.pending[cid].start = tick;
        let p = proc as usize;
        self.depth[p] -= 1;
        self.sample_depth(p, tick);
    }

    fn on_compute_done(&mut self, proc: u32, own_idx: u32, step: u32, tick: u64) {
        let cid = self.timing.cid(proc, own_idx);
        let prev = self.timing.done(cid, step - 1);
        let Pending {
            ready,
            send,
            fault,
            start,
        } = self.pending[cid];
        let b = &mut self.per_copy[cid];
        b.compute_ticks += tick - start;
        b.stall_db_order += start - ready;
        // Pre-ready wait, split at the last dependency's production tick:
        // before it the pebble waited on compute elsewhere (dependency),
        // after it the value was in flight (bandwidth), minus any fault
        // timeout/backoff ticks the transfer accumulated.
        let pre = ready - prev;
        let dep = send.saturating_sub(prev).min(pre);
        let fault = fault.min(pre - dep);
        b.stall_dependency += dep;
        b.stall_fault += fault;
        b.stall_bandwidth += pre - dep - fault;
        self.timing.on_compute_done(proc, own_idx, step, tick);
    }

    fn on_link_inject(&mut self, link: u32, depart: u64) {
        let bin = (depart / self.series_stride) as usize;
        let series = &mut self.link_occupancy[link as usize];
        if series.len() <= bin {
            series.resize(bin + 1, 0);
        }
        series[bin] += 1;
    }

    fn on_fault_wait(&mut self, msg: MsgKey, ticks: u64) {
        *self.fault_ticks.entry(msg).or_default() += ticks;
    }

    fn on_crash(&mut self, proc: u32) {
        self.timing.on_crash(proc);
    }

    fn on_reroute(&mut self, sub: u32, src_proc: u32, src_idx: u32) {
        let cid = self.timing.cid(src_proc, src_idx) as u32;
        let sub = sub as usize;
        if sub == self.sub_src.len() {
            self.sub_src.push(cid);
        } else {
            self.sub_src[sub] = cid;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two copies on one processor, one remote dependency: drive the
    /// tracer by hand and check the attribution arithmetic.
    #[test]
    fn attribution_splits_the_window() {
        let cfg = TraceConfig { series_stride: 8 };
        // proc 0 holds copies 0 and 1; proc 1 holds copy 2.
        // sub 0 feeds from copy 2.
        let mut tr = StallTracer::new(cfg, 2, vec![0, 2, 3], vec![2], vec![], 2);

        // Seed: copy 0 ready at 0, starts at 0, done at 3.
        tr.on_enqueued(0, 0, 1, 0, ReadyCause::Local);
        tr.on_start(0, 0, 1, 0);
        // Copy 1 becomes ready at 1 (local), but proc busy until 3.
        tr.on_enqueued(0, 1, 1, 1, ReadyCause::Local);
        tr.on_compute_done(0, 0, 1, 3);
        tr.on_start(0, 1, 1, 3);
        tr.on_compute_done(0, 1, 1, 5);

        // Copy 2 on proc 1: done step 1 at tick 2 (its producer role).
        tr.on_enqueued(1, 0, 1, 0, ReadyCause::Local);
        tr.on_start(1, 0, 1, 0);
        tr.on_compute_done(1, 0, 1, 2);

        // Copy 0 step 2 waits on the remote value: produced at 2 (send),
        // delivered at 9 with 3 fault ticks, starts at 10, done at 12.
        tr.on_fault_wait(MsgKey::Sub { sub: 0, step: 1 }, 3);
        tr.on_enqueued(
            0,
            0,
            2,
            9,
            ReadyCause::Delivered(MsgKey::Sub { sub: 0, step: 1 }),
        );
        tr.on_start(0, 0, 2, 10);
        tr.on_compute_done(0, 0, 2, 12);

        let b = tr.per_copy[0];
        // Window [3, 12): send 2 < window start ⇒ dependency 0 for this
        // step, pre-ready wait 9−3 = 6 → fault 3, bandwidth 3; db-order
        // 10−9 = 1; compute 3 (step 1) + 2 (step 2).
        assert_eq!(b.compute_ticks, 5);
        assert_eq!(b.stall_dependency, 0);
        assert_eq!(b.stall_fault, 3);
        assert_eq!(b.stall_bandwidth, 3);
        assert_eq!(b.stall_db_order, 1);

        // Copy 1: ready at 1, started at 3 ⇒ dependency 1 (local wait up
        // to ready), db-order 2, compute 2.
        let b1 = tr.per_copy[1];
        assert_eq!(b1.stall_dependency, 1);
        assert_eq!(b1.stall_db_order, 2);
        assert_eq!(b1.compute_ticks, 2);
    }

    #[test]
    fn finish_drains_to_the_makespan_and_conserves() {
        let cfg = TraceConfig::default();
        let mut tr = StallTracer::new(cfg, 1, vec![0, 1, 2], vec![], vec![], 1);
        for p in 0..2u32 {
            tr.on_enqueued(p, 0, 1, 0, ReadyCause::Local);
            tr.on_start(p, 0, 1, 0);
        }
        tr.on_compute_done(0, 0, 1, 4);
        tr.on_compute_done(1, 0, 1, 10);
        let (report, _) = tr.finish(10);
        assert_eq!(report.per_copy.len(), 2);
        assert_eq!(report.per_copy[0].stall_drained, 6);
        assert_eq!(report.per_copy[1].stall_drained, 0);
        // Conservation: every copy's categories cover [0, makespan).
        assert_eq!(report.totals.total(), 10 * 2);
    }

    #[test]
    fn crashed_processors_leave_the_accounting() {
        let cfg = TraceConfig::default();
        let mut tr = StallTracer::new(cfg, 1, vec![0, 1, 2], vec![], vec![], 1);
        tr.on_enqueued(0, 0, 1, 0, ReadyCause::Local);
        tr.on_start(0, 0, 1, 0);
        tr.on_compute_done(0, 0, 1, 3);
        tr.on_crash(1);
        let (report, timing) = tr.finish(3);
        assert_eq!(report.per_copy.len(), 1);
        assert_eq!(report.totals.total(), 3);
        assert_eq!(timing.ticks, vec![vec![3]]);
    }

    /// The timing tracer alone: completion ticks per surviving copy, in
    /// copy order, with a crashed processor's copies left out.
    #[test]
    fn timing_tracer_keeps_surviving_copies_in_order() {
        // proc 0 holds copies 0 and 1, proc 1 holds copy 2, proc 2 copy 3.
        let mut tr = TimingTracer::new(2, vec![0, 2, 3, 4]);
        for (p, i, s, tick) in [(0, 1, 1, 2), (0, 0, 1, 1), (2, 0, 1, 4), (0, 0, 2, 5)] {
            tr.on_compute_done(p, i, s, tick);
        }
        tr.on_compute_done(0, 1, 2, 7);
        tr.on_compute_done(2, 0, 2, 9);
        tr.on_crash(1);
        assert_eq!(tr.finish().ticks, vec![vec![1, 5], vec![2, 7], vec![4, 9]]);
    }

    #[test]
    fn series_bins_by_stride() {
        let cfg = TraceConfig { series_stride: 10 };
        let mut tr = StallTracer::new(cfg, 1, vec![0, 1], vec![], vec![], 2);
        tr.on_link_inject(0, 3);
        tr.on_link_inject(0, 7);
        tr.on_link_inject(0, 25);
        tr.on_link_inject(1, 99);
        tr.on_enqueued(0, 0, 1, 0, ReadyCause::Local);
        tr.on_start(0, 0, 1, 35);
        tr.on_compute_done(0, 0, 1, 40);
        let (report, _) = tr.finish(99);
        assert_eq!(report.link_occupancy[0][0], 2);
        assert_eq!(report.link_occupancy[0][2], 1);
        assert_eq!(report.link_occupancy[1][9], 1);
        // Same padded length for every link.
        assert_eq!(
            report.link_occupancy[0].len(),
            report.link_occupancy[1].len()
        );
        assert_eq!(report.queue_depth[0][0], 1);
        assert_eq!(report.queue_depth[0][3], 0);
    }

    #[test]
    fn breakdown_totals_and_add() {
        let mut a = StallBreakdown {
            compute_ticks: 1,
            stall_dependency: 2,
            stall_bandwidth: 3,
            stall_db_order: 4,
            stall_fault: 5,
            stall_drained: 6,
        };
        assert_eq!(a.total(), 21);
        assert_eq!(a.total_stalled(), 14);
        let b = a;
        a.add(&b);
        assert_eq!(a.total(), 42);
    }
}
