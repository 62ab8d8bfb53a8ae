//! Guest programs: the pluggable per-pebble computation.
//!
//! A [`Program`] defines what pebble `(cell, t)` computes from the cell's
//! database and the predecessor pebble values (in the guest topology's
//! canonical dependency order — `[left, self, right]` for lines/rings,
//! `[W, N, self, S, E]` for meshes). Every program is a pure deterministic
//! function, so redundant computation on multiple host processors (the core
//! technique of the paper) yields bit-identical pebbles, which the validator
//! checks.

use crate::database::{fold64, mix64, Db, DbKind, DbUpdate};
use crate::pebble::PebbleValue;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The result of one pebble computation: the value to propagate and the
/// update to apply to this cell's database.
pub type ComputeResult = (PebbleValue, DbUpdate);

/// A guest program in the database model. `compute` must be a *pure*
/// function of its arguments: the paper's simulation correctness (and our
/// validator) relies on redundant copies producing identical pebbles.
pub trait Program: Send + Sync {
    /// Compute pebble `(cell, step)` given the cell's database and the
    /// dependency pebble values in canonical order.
    fn compute(&self, cell: u32, step: u32, db: &Db, deps: &[PebbleValue]) -> ComputeResult;

    /// The database kind this program operates on.
    fn db_kind(&self) -> DbKind;

    /// Short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Shared, thread-safe handle to a program.
pub type ProgramRef = Arc<dyn Program>;

/// Enumerates the built-in programs, for configuration and serialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub enum ProgramKind {
    /// Pure dataflow stencil: value mixing only, no database update. The
    /// closest analogue of the *dataflow model* of \[2\]; used to contrast
    /// dataflow vs database behaviour.
    StencilSum,
    /// A chaotic rule automaton whose update writes back into a vector db.
    RuleAutomaton {
        /// Vector database size per cell.
        db_size: u32,
    },
    /// Key-value read-modify-write workload: the NOW "local database"
    /// application the paper's introduction motivates.
    KvWorkload,
    /// Iterative relaxation flavoured workload on a counter db (cheap,
    /// useful for very large sweeps).
    Relaxation,
    /// Streaming aggregation: every step adds a neighbour-derived sample
    /// into a histogram bucket of a vector database (add-heavy updates).
    Histogram {
        /// Number of buckets per cell.
        buckets: u32,
    },
    /// Cache-maintenance workload: a bounded working set of keys with
    /// insert/refresh/evict churn (remove-heavy KV updates).
    CacheChurn,
}

impl ProgramKind {
    /// Instantiate the program.
    pub fn instantiate(self) -> ProgramRef {
        match self {
            ProgramKind::StencilSum => Arc::new(StencilSum),
            ProgramKind::RuleAutomaton { db_size } => Arc::new(RuleAutomaton { db_size }),
            ProgramKind::KvWorkload => Arc::new(KvWorkload),
            ProgramKind::Relaxation => Arc::new(Relaxation),
            ProgramKind::Histogram { buckets } => Arc::new(Histogram { buckets }),
            ProgramKind::CacheChurn => Arc::new(CacheChurn),
        }
    }

    /// Derive a program kind deterministically from `bits` (e.g. a PRNG
    /// draw): every variant is reachable and parameters stay in sane,
    /// fuzz-friendly ranges. Used by the differential fuzzer.
    pub fn arbitrary(bits: u64) -> Self {
        match bits % 6 {
            0 => ProgramKind::StencilSum,
            1 => ProgramKind::RuleAutomaton {
                db_size: 1 + (bits >> 3) as u32 % 9,
            },
            2 => ProgramKind::KvWorkload,
            3 => ProgramKind::Relaxation,
            4 => ProgramKind::Histogram {
                buckets: 1 + (bits >> 3) as u32 % 12,
            },
            _ => ProgramKind::CacheChurn,
        }
    }
}

/// Fold a dependency slice into one word, order-sensitively.
#[inline]
fn fold_deps(deps: &[PebbleValue]) -> u64 {
    let mut acc = 0x6f6c6170u64 ^ deps.len() as u64;
    for (i, d) in deps.iter().enumerate() {
        acc = fold64(acc, d.rotate_left((i as u32 * 11) % 63));
    }
    acc
}

/// Pure dataflow: `value = mix(deps, db-read)`, no db update.
struct StencilSum;

impl Program for StencilSum {
    fn compute(&self, cell: u32, step: u32, db: &Db, deps: &[PebbleValue]) -> ComputeResult {
        let state = db.consult(cell, step);
        (fold64(fold_deps(deps), state), DbUpdate::None)
    }

    fn db_kind(&self) -> DbKind {
        DbKind::Counter
    }

    fn name(&self) -> &'static str {
        "stencil-sum"
    }
}

/// Rule automaton: consults a vector database slot, mixes with neighbours,
/// writes the result back to a (value-dependent) slot. Exercises the full
/// read–compute–update cycle of the database model.
struct RuleAutomaton {
    db_size: u32,
}

impl Program for RuleAutomaton {
    fn compute(&self, cell: u32, step: u32, db: &Db, deps: &[PebbleValue]) -> ComputeResult {
        let state = db.consult(cell, step);
        let v = mix64(fold_deps(deps) ^ state);
        let slot = v % self.db_size.max(1) as u64;
        (
            v,
            DbUpdate::Set {
                key: slot,
                value: v,
            },
        )
    }

    fn db_kind(&self) -> DbKind {
        DbKind::Vec { size: self.db_size }
    }

    fn name(&self) -> &'static str {
        "rule-automaton"
    }
}

/// Key-value workload: every step performs a read-modify-write on a key
/// derived from the incoming pebble values — the "updates of large local
/// memories or databases" workload from the paper's abstract.
struct KvWorkload;

impl Program for KvWorkload {
    fn compute(&self, cell: u32, step: u32, db: &Db, deps: &[PebbleValue]) -> ComputeResult {
        let state = db.consult(cell, step);
        let v = fold64(fold_deps(deps), state);
        // Keep the shard bounded: mostly updates to a rotating window of
        // keys, occasionally a removal.
        let key = v % 257;
        let update = if v.is_multiple_of(13) {
            DbUpdate::Remove { key }
        } else if v.is_multiple_of(3) {
            DbUpdate::Set { key, value: v }
        } else {
            DbUpdate::Add { key, delta: v | 1 }
        };
        (v, update)
    }

    fn db_kind(&self) -> DbKind {
        DbKind::Kv
    }

    fn name(&self) -> &'static str {
        "kv-workload"
    }
}

/// Cheap accumulator relaxation; db is a single counter.
struct Relaxation;

impl Program for Relaxation {
    fn compute(&self, cell: u32, step: u32, db: &Db, deps: &[PebbleValue]) -> ComputeResult {
        let state = db.consult(cell, step);
        let mut v = state;
        for d in deps {
            v = v.wrapping_add(d.rotate_left(7)).rotate_left(3);
        }
        (v, DbUpdate::Add { key: v, delta: 1 })
    }

    fn db_kind(&self) -> DbKind {
        DbKind::Counter
    }

    fn name(&self) -> &'static str {
        "relaxation"
    }
}

/// Streaming aggregation: sample = mix(deps); bucket = sample mod buckets;
/// the histogram itself feeds back into the next value via `consult`.
struct Histogram {
    buckets: u32,
}

impl Program for Histogram {
    fn compute(&self, cell: u32, step: u32, db: &Db, deps: &[PebbleValue]) -> ComputeResult {
        let state = db.consult(cell, step);
        let sample = mix64(fold_deps(deps) ^ state.rotate_left(13));
        let bucket = sample % self.buckets.max(1) as u64;
        (
            sample,
            DbUpdate::Add {
                key: bucket,
                delta: (sample >> 32) | 1,
            },
        )
    }

    fn db_kind(&self) -> DbKind {
        DbKind::Vec { size: self.buckets }
    }

    fn name(&self) -> &'static str {
        "histogram"
    }
}

/// Cache churn: keys live in a window of 64 slots; most steps refresh a
/// key (`Set`), a third insert-or-bump (`Add`), and every 5th evicts
/// (`Remove`) — a remove-heavy shard workload.
struct CacheChurn;

impl Program for CacheChurn {
    fn compute(&self, cell: u32, step: u32, db: &Db, deps: &[PebbleValue]) -> ComputeResult {
        let state = db.consult(cell, step);
        let v = fold64(fold_deps(deps), state.rotate_left(29));
        let key = v % 64;
        let update = if v.is_multiple_of(5) {
            DbUpdate::Remove { key }
        } else if v.is_multiple_of(3) {
            DbUpdate::Add { key, delta: v | 1 }
        } else {
            DbUpdate::Set { key, value: v }
        };
        (v, update)
    }

    fn db_kind(&self) -> DbKind {
        DbKind::Kv
    }

    fn name(&self) -> &'static str {
        "cache-churn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<ProgramKind> {
        vec![
            ProgramKind::StencilSum,
            ProgramKind::RuleAutomaton { db_size: 16 },
            ProgramKind::KvWorkload,
            ProgramKind::Relaxation,
            ProgramKind::Histogram { buckets: 12 },
            ProgramKind::CacheChurn,
        ]
    }

    #[test]
    fn programs_are_pure() {
        for kind in all_kinds() {
            let p = kind.instantiate();
            let db = p.db_kind().instantiate(2, 11);
            let a = p.compute(2, 3, &db, &[10, 20, 30]);
            let b = p.compute(2, 3, &db, &[10, 20, 30]);
            assert_eq!(a, b, "{} must be deterministic", p.name());
        }
    }

    #[test]
    fn programs_depend_on_every_dependency_slot() {
        for kind in all_kinds() {
            let p = kind.instantiate();
            let db = p.db_kind().instantiate(1, 5);
            for n in [3usize, 5] {
                let base_deps: Vec<u64> = (1..=n as u64).collect();
                let base = p.compute(1, 1, &db, &base_deps).0;
                for i in 0..n {
                    let mut d = base_deps.clone();
                    d[i] = 999;
                    assert_ne!(base, p.compute(1, 1, &db, &d).0, "{} slot {i}", p.name());
                }
            }
        }
    }

    #[test]
    fn dependency_order_matters() {
        for kind in all_kinds() {
            let p = kind.instantiate();
            let db = p.db_kind().instantiate(1, 5);
            let a = p.compute(1, 1, &db, &[1, 2, 3]).0;
            let b = p.compute(1, 1, &db, &[3, 2, 1]).0;
            assert_ne!(a, b, "{} must be order-sensitive", p.name());
        }
    }

    #[test]
    fn database_state_affects_computation() {
        // Apply an update, recompute: results must change for db-coupled
        // programs (this is what makes the model *not* dataflow).
        for kind in [
            ProgramKind::RuleAutomaton { db_size: 4 },
            ProgramKind::KvWorkload,
            ProgramKind::Relaxation,
            ProgramKind::Histogram { buckets: 4 },
            ProgramKind::CacheChurn,
        ] {
            let p = kind.instantiate();
            let mut db = p.db_kind().instantiate(1, 5);
            let before = p.compute(1, 2, &db, &[1, 2, 3]);
            // Perturb every slot a Vec db might be consulted on, plus the
            // counter/kv state.
            for k in 0..4 {
                db.apply(&DbUpdate::Set {
                    key: k,
                    value: 77 ^ k,
                });
            }
            let after = p.compute(1, 2, &db, &[1, 2, 3]);
            assert_ne!(before, after, "{} must read the database", p.name());
        }
    }

    #[test]
    fn stencil_sum_never_updates() {
        let p = ProgramKind::StencilSum.instantiate();
        let db = p.db_kind().instantiate(1, 1);
        for s in 1..50 {
            let (_, u) = p.compute(1, s, &db, &[s as u64, 2, 3]);
            assert_eq!(u, DbUpdate::None);
        }
    }

    #[test]
    fn kv_workload_emits_varied_updates() {
        let p = ProgramKind::KvWorkload.instantiate();
        let mut db = p.db_kind().instantiate(1, 1);
        let (mut adds, mut sets, mut removes) = (0, 0, 0);
        let mut v = 1u64;
        for s in 1..200 {
            let (nv, u) = p.compute(1, s, &db, &[v, v ^ 1, v ^ 2]);
            match u {
                DbUpdate::Add { .. } => adds += 1,
                DbUpdate::Set { .. } => sets += 1,
                DbUpdate::Remove { .. } => removes += 1,
                DbUpdate::None => {}
            }
            db.apply(&u);
            v = nv;
        }
        assert!(
            adds > 0 && sets > 0 && removes > 0,
            "{adds}/{sets}/{removes}"
        );
    }

    #[test]
    fn cache_churn_evicts_regularly() {
        let p = ProgramKind::CacheChurn.instantiate();
        let mut db = p.db_kind().instantiate(1, 1);
        let mut removes = 0;
        let mut v = 1u64;
        for s in 1..300 {
            let (nv, u) = p.compute(1, s, &db, &[v, v ^ 7, v ^ 9]);
            if matches!(u, DbUpdate::Remove { .. }) {
                removes += 1;
            }
            db.apply(&u);
            v = nv;
        }
        assert!(removes > 20, "expected regular evictions, saw {removes}");
    }

    #[test]
    fn histogram_only_adds() {
        let p = ProgramKind::Histogram { buckets: 8 }.instantiate();
        let db = p.db_kind().instantiate(1, 1);
        for s in 1..100 {
            let (_, u) = p.compute(1, s, &db, &[s as u64, 2, 3]);
            assert!(matches!(u, DbUpdate::Add { .. }));
        }
    }

    #[test]
    fn program_names_are_distinct() {
        let names: Vec<_> = all_kinds().iter().map(|k| k.instantiate().name()).collect();
        for i in 0..names.len() {
            for j in 0..names.len() {
                if i != j {
                    assert_ne!(names[i], names[j]);
                }
            }
        }
    }
}
