//! The server-side `ExecPlan` cache.
//!
//! Lowering a scenario — placement, routing tables, interned hot tables —
//! is the expensive, shareable part of a run (`BENCH_plan.json` measures
//! the 2–3× reuse win). The daemon lowers each distinct
//! `(guest, host, assignment, config)` once while cached and keeps the
//! owned plan (`ExecPlan<'static>`) plus the guest's unit-delay
//! [`ReferenceTrace`] (three digests per cell) behind the canonical
//! scenario key from
//! `overlap_sim::scenario_key` (what [`ScenarioSpec::plan_key`] returns).
//! A miss lowers from the assignment admission already placed, so each
//! submission is placed once. A cached entry is never edited: a run
//! takes an `Arc` of it and executes a view from `ExecPlan::share`, with
//! its own fault and compute-cost variant attached.
//!
//! Memory: the cache is an LRU bounded by [`PLAN_CACHE_BYTES`]. Each
//! entry is charged its heap footprint, `ExecPlan::heap_bytes` plus
//! `ReferenceTrace::heap_bytes` (24 bytes per cell) plus its key. The
//! guest, task graph included, is held and charged once, in the plan.
//! Every lookup refreshes its
//! key's recency, and after each insertion the least recently used
//! entries are unlinked until the charged total fits the budget. The
//! entry just inserted is never unlinked, so a plan larger than the whole
//! budget still serves its own sweep. A running session holds an `Arc` of
//! its entry, so eviction never disturbs it (the memory goes when the last
//! run lets go), and an evicted key's next submission is an ordinary miss
//! that lowers again. Resident plans are thus bounded by the budget, plus
//! the newest entry, plus entries that runs in flight still hold or have
//! just evicted.
//!
//! Concurrency: the map lock is only held for lookups, empty-slot
//! insertion and the byte accounting; lowering happens under the per-key
//! slot lock, so a slow lowering never blocks other keys and concurrent
//! first arrivals lower once. Hit or miss is decided under the slot lock,
//! from whether the slot is populated, so a lowering that failed or
//! panicked leaves no entry behind and its key's next lookup is a miss
//! again. Eviction picks its victims from the map's own accounting and
//! takes no slot lock. It only unlinks them: freeing a plan's thousands
//! of small tables takes a few tenths of a millisecond, so
//! `PlanCache::free_evicted` frees them later, outside every lock, when
//! the daemon's worker has published the result of the session whose
//! insertion evicted them. No lock is held while a run executes, so runs
//! of one key proceed in parallel.

use crate::lock;
use overlap_core::{Error, ScenarioSpec};
use overlap_model::{ReferenceRun, ReferenceTrace};
use overlap_sim::{Assignment, ExecPlan};
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Bytes of plans the cache keeps resident: 32 MiB, about 70 of the
/// lowering-heavy mesh and hypercube scenarios and far more than a
/// parameter sweep's working set.
pub const PLAN_CACHE_BYTES: u64 = 32 << 20;

/// A populated cache slot: the base plan (no faults, no cost overrides)
/// and the reference trace every run of this scenario validates against.
/// Shared read-only by every run of the key.
pub(crate) struct Entry {
    pub(crate) plan: ExecPlan<'static>,
    pub(crate) reference: ReferenceTrace,
}

/// One key's slot. Inserted empty under the map lock; populated (lowered)
/// by the first arrival under the slot lock, so concurrent first arrivals
/// lower exactly once and later arrivals wait only for this key's
/// lowering; removed from the map again if that lowering fails or panics,
/// or when the entry is evicted.
type Slot = Arc<Mutex<Option<Arc<Entry>>>>;

/// A slot as the map tracks it.
struct Tracked {
    slot: Slot,
    /// Clock reading of the key's latest lookup.
    used: u64,
    /// The entry's charge; 0 while the slot has no charged entry, which
    /// keeps it out of eviction.
    bytes: u64,
}

/// Everything the map lock guards.
#[derive(Default)]
struct Slots {
    /// Keys are shared so that naming an eviction victim copies no key.
    map: HashMap<Arc<str>, Tracked>,
    /// Lookup clock: each lookup stamps its key with the next reading.
    clock: u64,
    bytes: u64,
    entries: u64,
    evictions: u64,
    /// Unlinked victims not yet freed.
    evicted: Vec<Tracked>,
}

/// Shared plan cache with hit/miss counters.
pub struct PlanCache {
    budget: u64,
    slots: Mutex<Slots>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Cache occupancy and traffic, as reported by `GET /v1/cache`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Lookups that found the key's plan already lowered (lowering
    /// skipped).
    pub hits: u64,
    /// Lookups that had to lower the scenario.
    pub misses: u64,
    /// Distinct plans currently cached.
    pub entries: u64,
    /// Heap bytes charged for the cached plans, their reference traces
    /// and their keys. At most [`PLAN_CACHE_BYTES`] unless the newest
    /// entry alone exceeds it.
    pub bytes: u64,
    /// Entries unlinked so far to keep `bytes` within the budget.
    pub evictions: u64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanCache {
    /// An empty cache bounded by [`PLAN_CACHE_BYTES`].
    pub fn new() -> Self {
        Self::with_budget(PLAN_CACHE_BYTES)
    }

    /// An empty cache bounded by `budget` bytes.
    pub(crate) fn with_budget(budget: u64) -> Self {
        Self {
            budget,
            slots: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let s = lock(&self.slots);
        CacheStats {
            hits: self.hits.load(Ordering::SeqCst),
            misses: self.misses.load(Ordering::SeqCst),
            entries: s.entries,
            bytes: s.bytes,
            evictions: s.evictions,
        }
    }

    /// The cached entry for `key`, lowering `spec` with its placed
    /// `assignment` first if the key is not cached, and whether this
    /// lookup was a cache hit. The slot's lock is released before this
    /// returns. A panic while lowering drops the slot, like a failed
    /// lowering, and then resumes.
    pub(crate) fn get(
        &self,
        key: &str,
        spec: &ScenarioSpec,
        assignment: Assignment,
    ) -> Result<(Arc<Entry>, bool), Error> {
        let slot = self.lookup(key);
        let mut guard = lock(&slot);
        if let Some(entry) = &*guard {
            self.hits.fetch_add(1, Ordering::SeqCst);
            return Ok((Arc::clone(entry), true));
        }
        self.misses.fetch_add(1, Ordering::SeqCst);
        let lowered = panic::catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            crate::failpoint::hit("lower", overlap_sim::fnv1a(key.as_bytes()));
            lower(spec, assignment)
        }));
        let entry = match lowered {
            Ok(Ok(entry)) => Arc::new(entry),
            Ok(Err(e)) => {
                drop(guard);
                self.unlink_empty(key, &slot);
                return Err(e);
            }
            Err(panic) => {
                drop(guard);
                self.unlink_empty(key, &slot);
                panic::resume_unwind(panic)
            }
        };
        *guard = Some(Arc::clone(&entry));
        drop(guard);
        let charge = entry.plan.heap_bytes() + entry.reference.heap_bytes() + key.len();
        self.charge(key, &slot, charge as u64);
        Ok((entry, false))
    }

    /// `key`'s slot, inserted empty if the key has none, stamped as the
    /// most recently used.
    fn lookup(&self, key: &str) -> Slot {
        // Copied before locking, so a miss hashes its (long) key once.
        let key = Arc::from(key);
        let mut s = lock(&self.slots);
        s.clock += 1;
        let used = s.clock;
        let tracked = s.map.entry(key).or_insert_with(|| Tracked {
            slot: Slot::default(),
            used,
            bytes: 0,
        });
        tracked.used = used;
        Arc::clone(&tracked.slot)
    }

    /// Drop `key`'s slot after its lowering failed, unless a later
    /// arrival already replaced it.
    fn unlink_empty(&self, key: &str, slot: &Slot) {
        let mut s = lock(&self.slots);
        if s.map.get(key).is_some_and(|t| Arc::ptr_eq(&t.slot, slot)) {
            s.map.remove(key);
        }
    }

    /// Charge `key`'s freshly populated slot `bytes`, then unlink least
    /// recently used entries other than it until the total fits the
    /// budget, keeping them for [`free_evicted`](Self::free_evicted). A
    /// slot that is no longer the key's (its lowering started before an
    /// earlier one failed) serves its own run uncached and is not charged.
    fn charge(&self, key: &str, slot: &Slot, bytes: u64) {
        let mut s = lock(&self.slots);
        match s.map.get_mut(key) {
            Some(t) if Arc::ptr_eq(&t.slot, slot) => t.bytes = bytes,
            _ => return,
        }
        s.bytes += bytes;
        s.entries += 1;
        while s.bytes > self.budget {
            let victim = s
                .map
                .iter()
                .filter(|(_, t)| t.bytes > 0 && !Arc::ptr_eq(&t.slot, slot))
                .min_by_key(|(_, t)| t.used)
                .map(|(k, _)| Arc::clone(k));
            let Some(victim) = victim else { break };
            let t = s.map.remove(&victim).expect("the victim was just found");
            s.bytes -= t.bytes;
            s.entries -= 1;
            s.evictions += 1;
            s.evicted.push(t);
        }
    }

    /// Free the entries evicted so far, outside the map lock; an entry a
    /// run still holds goes when that run lets go. The daemon's worker
    /// calls this after publishing each session's result, so the cost of
    /// freeing never lands on the latency of the session whose insertion
    /// evicted them.
    pub(crate) fn free_evicted(&self) {
        let evicted = std::mem::take(&mut lock(&self.slots).evicted);
        drop(evicted);
    }
}

/// Lower `spec` from its placed `assignment` and run its reference.
fn lower(spec: &ScenarioSpec, assignment: Assignment) -> Result<Entry, Error> {
    let plan = ExecPlan::build_owned(
        spec.guest.clone(),
        spec.host.clone(),
        assignment,
        spec.config,
    )
    .map_err(Error::Run)?;
    let reference = ReferenceRun::execute(&spec.guest);
    Ok(Entry { plan, reference })
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlap_model::{GuestSpec, ProgramKind, TaskGraph};
    use overlap_net::topology::linear_array;
    use overlap_net::DelayModel;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new(
            GuestSpec::array(12, ProgramKind::KvWorkload, 3, 8),
            linear_array(4, DelayModel::uniform(1, 5), 7),
        )
    }

    /// `spec()` with guest seed `seed`: a distinct key of the same size.
    fn seeded(seed: u64) -> ScenarioSpec {
        let mut s = spec();
        s.guest.seed = seed;
        s
    }

    /// What admission hands the cache: the key and the placed assignment.
    fn admit(spec: &ScenarioSpec) -> (String, Assignment) {
        let key = spec.plan_key().unwrap();
        (key, spec.ready().unwrap().assignment().clone())
    }

    /// Look `spec` up; returns whether it hit.
    fn get(cache: &PlanCache, spec: &ScenarioSpec) -> bool {
        let (key, assignment) = admit(spec);
        cache.get(&key, spec, assignment).unwrap().1
    }

    /// The charge of `spec`'s entry, read off a cache holding only it.
    fn charge_of(spec: &ScenarioSpec) -> u64 {
        let cache = PlanCache::new();
        get(&cache, spec);
        cache.stats().bytes
    }

    #[test]
    fn second_lookup_is_a_hit_and_reuses_the_plan() {
        let cache = PlanCache::new();
        let spec = spec();
        let (key, assignment) = admit(&spec);
        let (first, hit) = cache.get(&key, &spec, assignment.clone()).unwrap();
        assert!(!hit);
        let (second, hit) = cache.get(&key, &spec, assignment).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &second), "a hit shares the entry");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        let charge = first.plan.heap_bytes() + first.reference.heap_bytes() + key.len();
        assert_eq!(s.bytes, charge as u64);
    }

    /// A lowering that fails (here: an assignment missing cells) is a
    /// miss that leaves no entry, so the key's next lookup is a miss that
    /// lowers again, not a hit on an empty slot.
    #[test]
    fn failed_lowering_is_neither_an_entry_nor_a_later_hit() {
        let cache = PlanCache::new();
        let spec = spec();
        let (key, assignment) = admit(&spec);
        let incomplete = Assignment::from_cells_of(4, 12, vec![vec![0], vec![], vec![], vec![]]);
        assert!(cache.get(&key, &spec, incomplete).is_err());
        assert!(lock(&cache.slots).map.is_empty(), "the slot is dropped");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.bytes), (0, 1, 0, 0));
        let (_, hit) = cache.get(&key, &spec, assignment).unwrap();
        assert!(!hit);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 1));
    }

    /// A lowering that panics drops its slot like a failed one: the slot
    /// is neither left poisoned nor left empty, and the key's next lookup
    /// lowers cleanly.
    #[test]
    fn panicked_lowering_drops_its_slot() {
        let cache = PlanCache::new();
        let spec = seeded(101);
        let (key, assignment) = admit(&spec);
        crate::failpoint::arm("lower", overlap_sim::fnv1a(key.as_bytes()));
        let panicked = panic::catch_unwind(AssertUnwindSafe(|| {
            cache.get(&key, &spec, assignment.clone())
        }));
        assert!(panicked.is_err(), "the failpoint panics the lowering");
        assert!(lock(&cache.slots).map.is_empty(), "the slot is dropped");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.bytes), (0, 1, 0, 0));
        let (_, hit) = cache.get(&key, &spec, assignment.clone()).unwrap();
        assert!(!hit);
        let (_, hit) = cache.get(&key, &spec, assignment).unwrap();
        assert!(hit);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
    }

    /// A grid guest's reference is three digests per cell, so its entry
    /// is charged the same bytes at any step count, apart from the key's
    /// longer step number.
    #[test]
    fn a_grid_guests_charge_does_not_grow_with_steps() {
        let at = |steps| {
            ScenarioSpec::new(
                GuestSpec::array(64, ProgramKind::KvWorkload, 3, steps),
                linear_array(4, DelayModel::uniform(1, 5), 7),
            )
        };
        let without_key = |s: &ScenarioSpec| charge_of(s) - s.plan_key().unwrap().len() as u64;
        assert_eq!(without_key(&at(4096)), without_key(&at(16)));
    }

    /// A task-graph guest's reference is charged 24 bytes per cell, by
    /// capacity, so its `TaskGraph` is counted once: in the plan.
    #[test]
    fn a_task_graph_is_charged_once_in_the_plan() {
        let spec = ScenarioSpec::new(
            GuestSpec::dag(
                TaskGraph::layered_random(48, 16, 2, 3, 5),
                ProgramKind::Relaxation,
                2,
            ),
            linear_array(4, DelayModel::uniform(1, 5), 7),
        );
        let cache = PlanCache::new();
        let (key, assignment) = admit(&spec);
        let (entry, _) = cache.get(&key, &spec, assignment).unwrap();
        let cells = spec.guest.num_cells() as usize;
        assert_eq!(entry.reference.heap_bytes(), 3 * 8 * cells);
        assert!(entry.plan.heap_bytes() > spec.guest.heap_bytes());
    }

    #[test]
    fn distinct_keys_get_distinct_slots() {
        let cache = PlanCache::new();
        let a = spec();
        let mut b = spec();
        b.guest.steps += 1;
        for s in [&a, &b] {
            get(&cache, s);
        }
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().misses, 2);
    }

    /// Insert A and B, hit A, then insert C over the budget: B, the least
    /// recently used, is evicted and A stays.
    #[test]
    fn insertion_over_the_budget_evicts_the_least_recently_used() {
        let (a, b, c) = (seeded(1), seeded(2), seeded(3));
        let charge = charge_of(&a);
        assert_eq!(charge_of(&b), charge);
        assert_eq!(charge_of(&c), charge);
        // Room for two entries, not three.
        let cache = PlanCache::with_budget(2 * charge + charge / 2);
        assert!(!get(&cache, &a));
        assert!(!get(&cache, &b));
        assert!(get(&cache, &a));
        assert!(!get(&cache, &c));
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes, s.evictions), (2, 2 * charge, 1));
        assert!(get(&cache, &a), "the recently used entry stays");
        assert!(get(&cache, &c));
        assert!(!get(&cache, &b), "the least recently used entry went");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.evictions), (3, 4, 2, 2));
    }

    /// An entry larger than the whole budget is still cached: eviction
    /// never unlinks the entry just inserted, so it serves its own sweep
    /// until the next insertion.
    #[test]
    fn the_newest_entry_survives_even_over_the_budget() {
        let cache = PlanCache::with_budget(1);
        let (a, b) = (seeded(1), seeded(2));
        assert!(!get(&cache, &a));
        assert!(get(&cache, &a), "an oversized entry still serves hits");
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes, s.evictions), (1, charge_of(&a), 0));
        assert!(!get(&cache, &b));
        assert!(get(&cache, &b));
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes, s.evictions), (1, charge_of(&b), 1));
        assert!(!get(&cache, &a), "the older entry was evicted");
    }

    /// Over a stream of distinct keys, the counters stay consistent: every
    /// miss that lowered is either still an entry or was evicted, and the
    /// bytes are the sum of the cached entries' charges, within budget.
    #[test]
    fn counters_stay_consistent_under_eviction() {
        // Two-digit seeds: keys of one length, so entries of one charge.
        let charge = charge_of(&seeded(10));
        let budget = 5 * charge + charge / 3;
        let cache = PlanCache::with_budget(budget);
        for round in 0..3 {
            for seed in 10..22 {
                get(&cache, &seeded(seed));
                let s = cache.stats();
                assert_eq!(
                    s.entries + s.evictions,
                    s.misses,
                    "round {round} seed {seed}"
                );
                assert_eq!(s.bytes, s.entries * charge);
                assert!(s.bytes <= budget);
            }
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 36, 5));
    }
}
