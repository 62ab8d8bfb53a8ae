//! The server-side `ExecPlan` cache.
//!
//! Lowering a scenario — placement, routing tables, interned hot tables —
//! is the expensive, shareable part of a run (`BENCH_plan.json` measures
//! the 5–8× reuse win). The daemon lowers each distinct
//! `(guest, host, assignment, config)` exactly once and keeps the owned
//! plan (`ExecPlan<'static>`) plus the guest's unit-delay
//! [`ReferenceTrace`] behind the canonical scenario key from
//! `overlap_sim::scenario_key` (what [`ScenarioSpec::plan_key`] returns).
//! A miss lowers from the assignment admission already placed, so each
//! submission is placed once. A cached entry is never edited: a run
//! takes an `Arc` of it and executes a view from `ExecPlan::share`, with
//! its own fault and compute-cost variant attached.
//!
//! Concurrency: the map lock is only held for lookups and empty-slot
//! insertion; lowering happens under the per-key slot lock, so a slow
//! lowering never blocks other keys and concurrent first arrivals lower
//! once. Hit or miss is decided under the slot lock, from whether the
//! slot is populated, so a lowering that failed leaves no entry behind
//! and its key's next lookup is a miss again. No lock is held while a
//! run executes, so runs of one key proceed in parallel.

use overlap_core::{Error, ScenarioSpec};
use overlap_model::{ReferenceRun, ReferenceTrace};
use overlap_sim::{Assignment, ExecPlan};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
/// lowering; removed from the map again if that lowering fails.
type Slot = Arc<Mutex<Option<Arc<Entry>>>>;

/// Shared plan cache with hit/miss counters.
#[derive(Default)]
pub struct PlanCache {
    slots: Mutex<HashMap<String, Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Populated slots (a slot still lowering, or whose lowering failed,
    /// is not an entry).
    entries: AtomicU64,
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
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::SeqCst),
            misses: self.misses.load(Ordering::SeqCst),
            entries: self.entries.load(Ordering::SeqCst),
        }
    }

    /// The cached entry for `key`, lowering `spec` with its placed
    /// `assignment` first if this is the key's first arrival, and whether
    /// this lookup was a cache hit. The slot's lock is released before
    /// this returns.
    pub(crate) fn get(
        &self,
        key: &str,
        spec: &ScenarioSpec,
        assignment: Assignment,
    ) -> Result<(Arc<Entry>, bool), Error> {
        let slot = Arc::clone(
            self.slots
                .lock()
                .expect("the plan-cache map lock is poisoned")
                .entry(key.to_string())
                .or_default(),
        );
        let mut guard = slot
            .lock()
            .expect("a panic while lowering this key poisoned its slot");
        if let Some(entry) = &*guard {
            self.hits.fetch_add(1, Ordering::SeqCst);
            return Ok((Arc::clone(entry), true));
        }
        self.misses.fetch_add(1, Ordering::SeqCst);
        let built = ExecPlan::build_owned(
            spec.guest.clone(),
            spec.host.clone(),
            assignment,
            spec.config,
        );
        let plan = match built {
            Ok(plan) => plan,
            Err(e) => {
                // Drop the empty slot unless a later arrival took it.
                drop(guard);
                let mut map = self
                    .slots
                    .lock()
                    .expect("the plan-cache map lock is poisoned");
                if map.get(key).is_some_and(|s| Arc::ptr_eq(s, &slot)) {
                    map.remove(key);
                }
                return Err(Error::Run(e));
            }
        };
        let reference = ReferenceRun::execute(&spec.guest);
        let entry = Arc::new(Entry { plan, reference });
        *guard = Some(Arc::clone(&entry));
        self.entries.fetch_add(1, Ordering::SeqCst);
        Ok((entry, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlap_model::{GuestSpec, ProgramKind};
    use overlap_net::topology::linear_array;
    use overlap_net::DelayModel;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new(
            GuestSpec::array(12, ProgramKind::KvWorkload, 3, 8),
            linear_array(4, DelayModel::uniform(1, 5), 7),
        )
    }

    /// What admission hands the cache: the key and the placed assignment.
    fn admit(spec: &ScenarioSpec) -> (String, Assignment) {
        let key = spec.plan_key().unwrap();
        (key, spec.ready().unwrap().assignment().clone())
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
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 1, 0));
        let (_, hit) = cache.get(&key, &spec, assignment).unwrap();
        assert!(!hit);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 1));
    }

    #[test]
    fn distinct_keys_get_distinct_slots() {
        let cache = PlanCache::new();
        let a = spec();
        let mut b = spec();
        b.guest.steps += 1;
        for s in [&a, &b] {
            let (key, assignment) = admit(s);
            cache.get(&key, s, assignment).unwrap();
        }
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().misses, 2);
    }
}
