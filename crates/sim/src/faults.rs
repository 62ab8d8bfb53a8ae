//! Deterministic, seeded fault plans and graceful degradation.
//!
//! Real NOWs do not just have *slow* links — they have links that go down
//! for a while, links whose delay transiently spikes (congestion storms,
//! re-routing), and workstations that die outright. The paper's redundant
//! database copies ("every holder computes every pebble of its columns")
//! are an untapped fault-tolerance mechanism: when a holder crashes, any
//! surviving copy of the same database can serve its subscribers.
//!
//! A [`FaultPlan`] is a fully deterministic schedule of such faults,
//! attached to a lowered plan with `ExecPlan::with_faults` (or the
//! `Simulation` builder's `.faults(..)`) and honoured by the event and
//! stepped engines. Semantics:
//!
//! * **Link outage** `[from, until)`: a pebble whose transfer over the
//!   link overlaps the outage is *lost*. The sender detects the loss after
//!   the transfer's expected latency (a timeout) and retries with
//!   exponential backoff ([`RetryPolicy`]). Failed attempts still consume
//!   the link's injection bandwidth.
//! * **Delay spike** `[from, until)`: transfers injected during the spike
//!   take `factor ×` their base (jittered) delay.
//! * **Processor crash** at tick `t`: the processor computes nothing from
//!   tick `t` on and its database copies are lost. Subscriptions it was
//!   serving are *re-subscribed* at runtime to the nearest surviving
//!   holder of the same database, which backfills every pebble the
//!   consumer has not yet received. If a crash leaves some column with no
//!   surviving copy anywhere, the run aborts with
//!   `RunError::ColumnLost` — the fate of every single-copy layout.
//!   A crash scheduled after an engine's last pebble still destroys the
//!   processor's copies (storage is gone at the fault plan's horizon),
//!   so the surviving set is a function of the plan alone and every
//!   engine reports identical copies regardless of its timing model; a
//!   post-completion crash cannot, however, retroactively abort a run
//!   that already finished.
//!
//! Crashes kill *computation and storage*; the store-and-forward fabric
//! (links, forwarding) stays up, as in a NOW whose switches are separate
//! from the workstations. An **empty plan is free**: the engine's event
//! stream, outcome, and statistics are bit-identical to a run without a
//! plan (property-tested in `tests/faults.rs`).
//!
//! Everything is deterministic: hand-built plans trivially so, and the
//! seeded generators ([`FaultPlan::with_random_outages`],
//! [`FaultPlan::with_random_crashes`]) derive every interval from a
//! SplitMix64 stream keyed by `(seed, link)`.

use crate::engine::RunError;
use overlap_net::{HostGraph, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A link unavailable for `[from, until)` (both directions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct LinkOutage {
    /// One endpoint of the host link.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// First tick of the outage.
    pub from: u64,
    /// First tick after the outage (exclusive).
    pub until: u64,
}

/// A transient delay spike: transfers injected in `[from, until)` take
/// `factor ×` their base delay (both directions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct DelaySpike {
    /// One endpoint of the host link.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// First tick of the spike.
    pub from: u64,
    /// First tick after the spike (exclusive).
    pub until: u64,
    /// Delay multiplier (≥ 1).
    pub factor: u32,
}

/// A permanent processor crash at tick `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ProcCrash {
    /// The dying processor.
    pub proc: NodeId,
    /// Crash tick: no pebble of this processor completes at or after `at`.
    pub at: u64,
}

/// Exponential-backoff retry policy for timed-out transfers: attempt `k`
/// (1-based) waits `min(base · 2^(k−1), cap)` ticks after the timeout
/// before re-injecting; after `max_attempts` failures the run aborts with
/// `RunError::RetriesExhausted`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RetryPolicy {
    /// First backoff in ticks.
    pub base: u64,
    /// Backoff ceiling in ticks.
    pub cap: u64,
    /// Give up (abort the run) after this many failed attempts on one
    /// transfer.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            base: 2,
            cap: 1 << 12,
            max_attempts: 48,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based):
    /// `min(base · 2^(attempt−1), cap)`. A zero `base` always yields zero;
    /// attempts whose exponent would overflow a `u64` shift (`attempt ≥
    /// 65`, where `2^(attempt−1)` already exceeds any cap) return `cap`
    /// directly instead of shifting out of range.
    pub fn backoff(&self, attempt: u32) -> u64 {
        if self.base == 0 {
            return 0;
        }
        let exp = attempt.saturating_sub(1);
        if exp >= 64 {
            return self.cap;
        }
        self.base.saturating_mul(1u64 << exp).min(self.cap)
    }
}

/// A deterministic schedule of link outages, delay spikes, and processor
/// crashes, plus the retry policy used to recover from them.
///
/// ```
/// use overlap_sim::faults::FaultPlan;
/// let plan = FaultPlan::new()
///     .link_down(0, 1, 100, 180)
///     .delay_spike(1, 2, 50, 90, 8)
///     .crash(3, 400);
/// assert!(!plan.is_empty());
/// assert!(FaultPlan::new().is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FaultPlan {
    /// Link outage intervals.
    pub outages: Vec<LinkOutage>,
    /// Transient delay spikes.
    pub spikes: Vec<DelaySpike>,
    /// Permanent processor crashes.
    pub crashes: Vec<ProcCrash>,
    /// Retry/backoff policy (None = [`RetryPolicy::default`]).
    pub retry: Option<RetryPolicy>,
}

impl FaultPlan {
    /// An empty plan (injects nothing; the engine's fast path).
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the plan schedules no fault at all.
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty() && self.spikes.is_empty() && self.crashes.is_empty()
    }

    /// Heap bytes the plan holds (its three fault lists).
    pub(crate) fn heap_bytes(&self) -> usize {
        use crate::vec_bytes;
        vec_bytes(&self.outages) + vec_bytes(&self.spikes) + vec_bytes(&self.crashes)
    }

    /// Take link `a–b` down for `[from, until)`.
    pub fn link_down(mut self, a: NodeId, b: NodeId, from: u64, until: u64) -> Self {
        assert!(from < until, "outage interval must be non-empty");
        self.outages.push(LinkOutage { a, b, from, until });
        self
    }

    /// Multiply link `a–b`'s delay by `factor` for `[from, until)`.
    pub fn delay_spike(mut self, a: NodeId, b: NodeId, from: u64, until: u64, factor: u32) -> Self {
        assert!(from < until, "spike interval must be non-empty");
        assert!(factor >= 1, "spike factor must be ≥ 1");
        self.spikes.push(DelaySpike {
            a,
            b,
            from,
            until,
            factor,
        });
        self
    }

    /// Crash processor `proc` permanently at tick `at`.
    pub fn crash(mut self, proc: NodeId, at: u64) -> Self {
        self.crashes.push(ProcCrash { proc, at });
        self
    }

    /// The effective retry policy.
    pub fn retry(&self) -> RetryPolicy {
        self.retry.unwrap_or_default()
    }

    /// Add seeded random outages to every host link so that each link is
    /// down for roughly `downtime` (a fraction in `(0, 1)`) of
    /// `[0, horizon)`, in outages of mean length `mean_outage` ticks.
    /// Outage starts are phase-shifted per link so the network never loses
    /// every link at once. Fully deterministic in `(seed, link index)`.
    pub fn with_random_outages(
        mut self,
        host: &HostGraph,
        seed: u64,
        downtime: f64,
        mean_outage: u64,
        horizon: u64,
    ) -> Self {
        assert!(
            downtime > 0.0 && downtime < 1.0,
            "downtime must be a fraction in (0, 1)"
        );
        let mean_outage = mean_outage.max(1);
        // mean up-time between outages so that down / (down + up) ≈ downtime
        let mean_up = ((mean_outage as f64) * (1.0 - downtime) / downtime).max(1.0) as u64;
        for (li, l) in host.links().iter().enumerate() {
            let mut rng = SplitMix64::new(seed ^ (0x9E37_79B9 + li as u64));
            // random initial phase inside one up+down period
            let mut t = rng.below(mean_up + mean_outage);
            while t < horizon {
                // outage length in [mean/2, 3·mean/2]
                let len = (mean_outage / 2 + rng.below(mean_outage.max(1))).max(1);
                self.outages.push(LinkOutage {
                    a: l.a,
                    b: l.b,
                    from: t,
                    until: t + len,
                });
                let up = (mean_up / 2 + rng.below(mean_up.max(1))).max(1);
                t += len + up;
            }
        }
        self
    }

    /// Check the plan against a concrete host: every outage and spike must
    /// name an existing link, every crash an existing processor. Called by
    /// [`ExecPlan::with_faults`] and the `Simulation` builder so a typo'd
    /// fault spec surfaces as an error long before lowering (it used to be
    /// a panic inside `FaultRt::build`).
    ///
    /// [`ExecPlan::with_faults`]: crate::plan::ExecPlan::with_faults
    pub fn validate(&self, host: &HostGraph) -> Result<(), RunError> {
        for (a, b) in self
            .outages
            .iter()
            .map(|o| (o.a, o.b))
            .chain(self.spikes.iter().map(|s| (s.a, s.b)))
        {
            if !host.has_link(a, b) {
                return Err(RunError::MissingLink { from: a, to: b });
            }
        }
        let procs = host.num_nodes();
        for c in &self.crashes {
            if c.proc >= procs {
                return Err(RunError::NoSuchProcessor {
                    proc: c.proc,
                    procs,
                });
            }
        }
        Ok(())
    }

    /// Add `count` seeded random crashes among processors `0..procs`,
    /// uniformly spread over `[horizon/4, 3·horizon/4)`. Distinct victims.
    pub fn with_random_crashes(mut self, procs: u32, seed: u64, count: u32, horizon: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0xC2A5u64.rotate_left(17));
        let mut victims: Vec<NodeId> = Vec::new();
        while victims.len() < count.min(procs) as usize {
            let p = rng.below(procs as u64) as NodeId;
            if !victims.contains(&p) {
                victims.push(p);
            }
        }
        for p in victims {
            let at = horizon / 4 + rng.below((horizon / 2).max(1));
            self.crashes.push(ProcCrash { proc: p, at });
        }
        self
    }
}

/// SplitMix64 — the standard 64-bit mixing PRNG; deterministic and
/// dependency-free. The crate's one generator: the random fault
/// schedules here and the fuzzer's scenario draws.
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n = 0` draws as `n = 1`.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Uniform in `[lo, hi]`.
    pub(crate) fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `num / den`.
    pub(crate) fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// The fault plan compiled against a concrete host: per-directed-link
/// interval tables in the engine's link-id space (forward `2i`, reverse
/// `2i+1`, in `host.links()` order), plus the crash schedule.
#[derive(Debug, Clone)]
pub(crate) struct FaultRt {
    /// Sorted, merged down intervals per directed link id.
    down: Vec<Vec<(u64, u64)>>,
    /// Sorted spike intervals `(from, until, factor)` per directed link id.
    spike: Vec<Vec<(u64, u64, u64)>>,
    /// Crash tick per processor (`u64::MAX` = never).
    pub crash_at: Vec<u64>,
    /// Directed link ids by endpoint pair (for building recovery routes).
    pub link_ids: HashMap<(NodeId, NodeId), u32>,
    /// Retry policy.
    pub retry: RetryPolicy,
}

impl FaultRt {
    /// Compile `plan` against `host`. A fault naming a non-existent link
    /// or processor is reported as [`RunError::MissingLink`] /
    /// [`RunError::NoSuchProcessor`] (it used to abort the process).
    pub fn build(plan: &FaultPlan, host: &HostGraph) -> Result<Self, RunError> {
        let mut link_ids: HashMap<(NodeId, NodeId), u32> = HashMap::new();
        let mut num_dirs = 0u32;
        for l in host.links() {
            link_ids.insert((l.a, l.b), num_dirs);
            link_ids.insert((l.b, l.a), num_dirs + 1);
            num_dirs += 2;
        }
        let mut down = vec![Vec::new(); num_dirs as usize];
        for o in &plan.outages {
            for (u, v) in [(o.a, o.b), (o.b, o.a)] {
                let lid = *link_ids
                    .get(&(u, v))
                    .ok_or(RunError::MissingLink { from: u, to: v })?;
                down[lid as usize].push((o.from, o.until));
            }
        }
        for iv in down.iter_mut() {
            iv.sort_unstable();
            // merge overlapping/adjacent intervals
            let mut merged: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
            for &(f, u) in iv.iter() {
                match merged.last_mut() {
                    Some(last) if f <= last.1 => last.1 = last.1.max(u),
                    _ => merged.push((f, u)),
                }
            }
            *iv = merged;
        }
        let mut spike = vec![Vec::new(); num_dirs as usize];
        for s in &plan.spikes {
            for (u, v) in [(s.a, s.b), (s.b, s.a)] {
                let lid = *link_ids
                    .get(&(u, v))
                    .ok_or(RunError::MissingLink { from: u, to: v })?;
                spike[lid as usize].push((s.from, s.until, s.factor as u64));
            }
        }
        for iv in spike.iter_mut() {
            iv.sort_unstable();
        }
        let mut crash_at = vec![u64::MAX; host.num_nodes() as usize];
        for c in &plan.crashes {
            if (c.proc as usize) >= crash_at.len() {
                return Err(RunError::NoSuchProcessor {
                    proc: c.proc,
                    procs: host.num_nodes(),
                });
            }
            let e = &mut crash_at[c.proc as usize];
            *e = (*e).min(c.at);
        }
        Ok(Self {
            down,
            spike,
            crash_at,
            link_ids,
            retry: plan.retry(),
        })
    }

    /// Does any down interval of directed link `lid` intersect the
    /// transfer window `[t0, t1]`?
    #[inline]
    pub fn down_overlap(&self, lid: u32, t0: u64, t1: u64) -> bool {
        let iv = &self.down[lid as usize];
        // first interval ending after t0
        let i = iv.partition_point(|&(_, until)| until <= t0);
        matches!(iv.get(i), Some(&(from, _)) if from <= t1)
    }

    /// Delay multiplier in effect on directed link `lid` at tick `t`
    /// (1 when no spike covers `t`; overlapping spikes take the max).
    #[inline]
    pub fn spike_factor(&self, lid: u32, t: u64) -> u64 {
        let mut f = 1u64;
        for &(from, until, factor) in &self.spike[lid as usize] {
            if from > t {
                break;
            }
            if t < until {
                f = f.max(factor);
            }
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlap_net::topology::linear_array;
    use overlap_net::DelayModel;

    fn host(n: u32) -> HostGraph {
        linear_array(n, DelayModel::constant(3), 0)
    }

    #[test]
    fn empty_plan_is_empty() {
        let p = FaultPlan::new();
        assert!(p.is_empty());
        assert_eq!(p.retry(), RetryPolicy::default());
    }

    #[test]
    fn builder_accumulates_faults() {
        let p = FaultPlan::new()
            .link_down(0, 1, 10, 20)
            .delay_spike(1, 2, 5, 9, 4)
            .crash(2, 100);
        assert!(!p.is_empty());
        assert_eq!(p.outages.len(), 1);
        assert_eq!(p.spikes.len(), 1);
        assert_eq!(p.crashes.len(), 1);
    }

    #[test]
    fn runtime_compiles_both_directions_and_merges() {
        let h = host(4);
        let p = FaultPlan::new()
            .link_down(0, 1, 10, 20)
            .link_down(1, 0, 15, 30) // overlaps, reversed endpoints
            .link_down(0, 1, 50, 60);
        let rt = FaultRt::build(&p, &h).unwrap();
        for lid in [0u32, 1] {
            // both directed ids of link 0–1
            assert!(rt.down_overlap(lid, 12, 13));
            assert!(rt.down_overlap(lid, 25, 26), "merged interval");
            assert!(rt.down_overlap(lid, 5, 10), "touches start");
            assert!(!rt.down_overlap(lid, 30, 49));
            assert!(rt.down_overlap(lid, 55, 100));
            assert!(!rt.down_overlap(lid, 60, 100), "until is exclusive");
        }
        // other links untouched
        assert!(!rt.down_overlap(2, 0, 1000));
    }

    #[test]
    fn spike_factor_applies_inside_interval_only() {
        let h = host(3);
        let p = FaultPlan::new().delay_spike(1, 2, 10, 20, 6);
        let rt = FaultRt::build(&p, &h).unwrap();
        let lid = rt.link_ids[&(1, 2)];
        assert_eq!(rt.spike_factor(lid, 9), 1);
        assert_eq!(rt.spike_factor(lid, 10), 6);
        assert_eq!(rt.spike_factor(lid, 19), 6);
        assert_eq!(rt.spike_factor(lid, 20), 1);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let r = RetryPolicy {
            base: 2,
            cap: 16,
            max_attempts: 10,
        };
        assert_eq!(r.backoff(1), 2);
        assert_eq!(r.backoff(2), 4);
        assert_eq!(r.backoff(3), 8);
        assert_eq!(r.backoff(4), 16);
        assert_eq!(r.backoff(9), 16, "capped");
        // Attempt 0 behaves like attempt 1 (no negative exponent).
        assert_eq!(r.backoff(0), 2);
        // Attempts at and beyond the shift width return the cap cleanly
        // instead of overflowing the `1 << (attempt-1)` exponent.
        assert_eq!(r.backoff(64), 16);
        assert_eq!(r.backoff(65), 16);
        assert_eq!(r.backoff(1000), 16);
        assert_eq!(r.backoff(u32::MAX), 16);
        // A saturated multiply still lands on the cap.
        let wide = RetryPolicy {
            base: u64::MAX,
            cap: 1 << 40,
            max_attempts: 10,
        };
        assert_eq!(wide.backoff(2), 1 << 40);
        // Zero base means "retry immediately" at every attempt, even the
        // deep ones where the exponent path would have returned the cap.
        let zero = RetryPolicy {
            base: 0,
            cap: 16,
            max_attempts: 10,
        };
        assert_eq!(zero.backoff(1), 0);
        assert_eq!(zero.backoff(100), 0);
    }

    #[test]
    fn random_outages_hit_the_requested_downtime() {
        let h = host(8);
        let horizon = 100_000u64;
        let frac = 0.2;
        let p = FaultPlan::new().with_random_outages(&h, 7, frac, 200, horizon);
        assert!(!p.outages.is_empty());
        // per-link measured downtime within a loose band of the target
        for li in 0..7u32 {
            let (a, b) = (li, li + 1);
            let total: u64 = p
                .outages
                .iter()
                .filter(|o| (o.a, o.b) == (a, b))
                .map(|o| o.until.min(horizon) - o.from.min(horizon))
                .sum();
            let measured = total as f64 / horizon as f64;
            assert!(
                (0.25 * frac..=2.5 * frac).contains(&measured),
                "link {a}-{b}: downtime {measured:.3} vs target {frac}"
            );
        }
        // deterministic
        let q = FaultPlan::new().with_random_outages(&h, 7, frac, 200, horizon);
        assert_eq!(p, q);
    }

    #[test]
    fn random_crashes_are_distinct_and_in_window() {
        let p = FaultPlan::new().with_random_crashes(8, 3, 3, 1000);
        assert_eq!(p.crashes.len(), 3);
        let mut procs: Vec<_> = p.crashes.iter().map(|c| c.proc).collect();
        procs.sort_unstable();
        procs.dedup();
        assert_eq!(procs.len(), 3, "victims distinct");
        for c in &p.crashes {
            assert!((250..750).contains(&c.at));
        }
    }

    #[test]
    fn outage_on_missing_link_is_an_error_not_a_panic() {
        let h = host(3);
        let p = FaultPlan::new().link_down(0, 2, 1, 2);
        let err = FaultRt::build(&p, &h).unwrap_err();
        assert!(matches!(err, RunError::MissingLink { from: 0, to: 2 }));
        assert_eq!(p.validate(&h).unwrap_err(), err);
    }

    #[test]
    fn spike_on_missing_link_is_an_error() {
        let h = host(3);
        let p = FaultPlan::new().delay_spike(0, 2, 1, 2, 4);
        assert!(matches!(
            FaultRt::build(&p, &h).unwrap_err(),
            RunError::MissingLink { from: 0, to: 2 }
        ));
        assert!(p.validate(&h).is_err());
    }

    #[test]
    fn crash_on_missing_processor_is_an_error() {
        let h = host(3);
        let p = FaultPlan::new().crash(7, 10);
        let err = FaultRt::build(&p, &h).unwrap_err();
        assert!(matches!(
            err,
            RunError::NoSuchProcessor { proc: 7, procs: 3 }
        ));
        assert_eq!(p.validate(&h).unwrap_err(), err);
        assert!(err.to_string().contains("processor 7"));
    }

    #[test]
    fn validate_accepts_well_formed_plans() {
        let h = host(4);
        let p = FaultPlan::new()
            .link_down(0, 1, 10, 20)
            .delay_spike(2, 3, 5, 9, 4)
            .crash(3, 100);
        assert!(p.validate(&h).is_ok());
        assert!(FaultPlan::new().validate(&h).is_ok());
    }
}
