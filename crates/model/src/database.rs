//! Databases: the large per-column local state that cannot travel over links.
//!
//! The paper's model (§2) assumes the *initial contents* of each database can
//! be copied before the computation begins (enabling replicated computation),
//! but during the computation only *updates* travel through the network,
//! carried inside pebbles. A host processor holding a copy of `b_i` must
//! apply the updates of pebbles `(i, 1), (i, 2), …` in step order to keep its
//! copy current; the simulator's validator enforces this.
//!
//! Three concrete database kinds are provided. They are deliberately
//! deterministic and digest-comparable so that redundant copies on different
//! host processors can be checked for bit-identical agreement:
//!
//! * [`DbKind::Counter`] — a single accumulator (smallest possible db);
//! * [`DbKind::Vec`] — a fixed-size vector store (array/stencil workloads);
//! * [`DbKind::Kv`] — a key→value shard kept as a sorted vector (NOW
//!   database workloads, the paper's motivating application).

use serde::{Deserialize, Serialize};

/// Multiplier of the 64-bit mix function (splitmix64 finalizer).
const MIX_M1: u64 = 0xff51_afd7_ed55_8ccd;
const MIX_M2: u64 = 0xc4ce_b9fe_1a85_ec53;

/// Deterministic 64-bit mixer used throughout the workspace to fold values
/// into digests. Not cryptographic; stable across platforms.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(MIX_M1);
    x ^= x >> 33;
    x = x.wrapping_mul(MIX_M2);
    x ^= x >> 33;
    x
}

/// Fold `b` into running digest `a` (order-sensitive).
#[inline]
pub fn fold64(a: u64, b: u64) -> u64 {
    mix64(a.rotate_left(17) ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Seed of a database copy's value fold: [`fold64`] over the copy's pebble
/// values in step order, starting here. The reference and every engine
/// fold from it, so their digests compare.
pub const VALUE_FOLD_SEED: u64 = 0xF01D;

/// Seed of a database copy's update-log fold: [`fold64`] over the
/// [`DbUpdate::digest`] of each update it applied, in step order.
pub const UPDATE_FOLD_SEED: u64 = 0xD16;

/// The change one pebble computation makes to its column's database.
///
/// Updates are small (O(1) words) by design: the model forbids shipping
/// whole databases, and the simulator charges link bandwidth per pebble.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DbUpdate {
    /// No change to the database this step.
    None,
    /// Add `delta` to the accumulator (Counter) or to slot `key % len` (Vec)
    /// or to key `key` (Kv).
    Add {
        /// The key / slot selector.
        key: u64,
        /// The increment.
        delta: u64,
    },
    /// Overwrite: slot `key % len` (Vec) or key `key` (Kv) becomes `value`.
    Set {
        /// The key / slot selector.
        key: u64,
        /// The new value.
        value: u64,
    },
    /// Remove key `key` (Kv only; a no-op for other kinds).
    Remove {
        /// The key to delete.
        key: u64,
    },
}

impl DbUpdate {
    /// A stable digest of the update itself (used to fold updates into
    /// pebble values and to compare update logs).
    pub fn digest(&self) -> u64 {
        match *self {
            DbUpdate::None => mix64(1),
            DbUpdate::Add { key, delta } => fold64(fold64(2, key), delta),
            DbUpdate::Set { key, value } => fold64(fold64(3, key), value),
            DbUpdate::Remove { key } => fold64(4, key),
        }
    }
}

/// Which concrete database implementation a guest uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DbKind {
    /// Single accumulator.
    Counter,
    /// Fixed-size vector of `size` slots.
    Vec {
        /// Number of slots.
        size: u32,
    },
    /// Key→value shard, a sorted vector searched by binary search,
    /// unbounded.
    Kv,
}

impl DbKind {
    /// Instantiate the initial database for guest column `col` (1-based).
    /// Initial contents are a deterministic function of `(kind, col, seed)`,
    /// so every host copy of `b_col` starts identical — the paper's
    /// "initial contents of each database can be copied before the
    /// computation begins".
    pub fn instantiate(&self, col: u32, seed: u64) -> Db {
        match *self {
            DbKind::Counter => Db::Counter {
                acc: mix64(seed ^ (col as u64) << 32),
            },
            DbKind::Vec { size } => {
                let n = size.max(1) as usize;
                let mut v = Vec::with_capacity(n);
                for i in 0..n {
                    v.push(mix64(seed ^ ((col as u64) << 32) ^ i as u64));
                }
                Db::Vec { slots: v }
            }
            DbKind::Kv => {
                let mut kv = KvShard::new();
                // A handful of deterministic seed entries per column.
                for i in 0..4u64 {
                    let k = mix64(seed ^ ((col as u64) << 16) ^ i);
                    kv.set(k, fold64(k, col as u64));
                }
                Db::Kv { shard: kv }
            }
        }
    }
}

/// A concrete database instance (one copy of some `b_i`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Db {
    /// Single accumulator.
    Counter {
        /// Current accumulator value.
        acc: u64,
    },
    /// Fixed-size vector store.
    Vec {
        /// Slot contents.
        slots: Vec<u64>,
    },
    /// Key→value shard.
    Kv {
        /// The shard.
        shard: KvShard,
    },
}

impl Db {
    /// Apply one update in place. Updates must be applied in pebble-step
    /// order; the caller (host processor model) is responsible for ordering
    /// and the validator checks it.
    pub fn apply(&mut self, u: &DbUpdate) {
        match (self, *u) {
            (_, DbUpdate::None) => {}
            (Db::Counter { acc }, DbUpdate::Add { key, delta }) => {
                *acc = acc.wrapping_add(delta.wrapping_mul(mix64(key) | 1));
            }
            (Db::Counter { acc }, DbUpdate::Set { key, value }) => {
                *acc = fold64(value, key);
            }
            (Db::Counter { .. }, DbUpdate::Remove { .. }) => {}
            (Db::Vec { slots }, DbUpdate::Add { key, delta }) => {
                let n = slots.len() as u64;
                let i = (key % n) as usize;
                slots[i] = slots[i].wrapping_add(delta);
            }
            (Db::Vec { slots }, DbUpdate::Set { key, value }) => {
                let n = slots.len() as u64;
                let i = (key % n) as usize;
                slots[i] = value;
            }
            (Db::Vec { .. }, DbUpdate::Remove { .. }) => {}
            (Db::Kv { shard }, DbUpdate::Add { key, delta }) => {
                let cur = shard.get(key).unwrap_or(0);
                shard.set(key, cur.wrapping_add(delta));
            }
            (Db::Kv { shard }, DbUpdate::Set { key, value }) => {
                shard.set(key, value);
            }
            (Db::Kv { shard }, DbUpdate::Remove { key }) => {
                shard.remove(key);
            }
        }
    }

    /// Consult the database: a deterministic 64-bit summary of the state
    /// relevant to `(col, step)`. This is what the guest program reads; it
    /// is a pure function of the current contents, so two up-to-date copies
    /// always return the same value.
    pub fn consult(&self, col: u32, step: u32) -> u64 {
        let probe = mix64(((col as u64) << 32) | step as u64);
        match self {
            Db::Counter { acc } => fold64(*acc, probe),
            Db::Vec { slots } => {
                let n = slots.len() as u64;
                let i = (probe % n) as usize;
                fold64(slots[i], probe)
            }
            Db::Kv { shard } => {
                let v = shard.get(probe).unwrap_or(mix64(probe));
                fold64(v, shard.len() as u64)
            }
        }
    }

    /// Order-insensitive digest of the full contents; two copies of the same
    /// column that have applied the same update prefix digest identically.
    pub fn digest(&self) -> u64 {
        match self {
            Db::Counter { acc } => fold64(0xC0, *acc),
            Db::Vec { slots } => {
                let mut d = fold64(0x5645_4300, slots.len() as u64);
                for (i, s) in slots.iter().enumerate() {
                    d = fold64(d, fold64(i as u64, *s));
                }
                d
            }
            Db::Kv { shard } => shard.digest(),
        }
    }

    /// Approximate size in 64-bit words (for load accounting: databases are
    /// "large" — the simulator charges memory, not bandwidth, for copies).
    pub fn words(&self) -> usize {
        match self {
            Db::Counter { .. } => 1,
            Db::Vec { slots } => slots.len(),
            Db::Kv { shard } => shard.len() * 2,
        }
    }
}

/// A deterministic key→value shard. Plain sorted-vec representation: simple,
/// allocation-friendly, and digest order does not depend on insertion order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KvShard {
    entries: Vec<(u64, u64)>,
}

impl KvShard {
    /// Empty shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no keys are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a key.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.entries
            .binary_search_by_key(&key, |e| e.0)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Insert or overwrite a key.
    pub fn set(&mut self, key: u64, value: u64) {
        match self.entries.binary_search_by_key(&key, |e| e.0) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (key, value)),
        }
    }

    /// Remove a key if present; returns the old value.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        match self.entries.binary_search_by_key(&key, |e| e.0) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// Content digest, independent of operation history.
    pub fn digest(&self) -> u64 {
        let mut d = fold64(0x4B56, self.entries.len() as u64);
        for (k, v) in &self.entries {
            d = fold64(d, fold64(*k, *v));
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_nontrivial() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), 42);
        assert_ne!(mix64(1), mix64(2));
    }

    #[test]
    fn instantiate_is_deterministic_per_column() {
        for kind in [DbKind::Counter, DbKind::Vec { size: 16 }, DbKind::Kv] {
            let a = kind.instantiate(3, 99);
            let b = kind.instantiate(3, 99);
            assert_eq!(a.digest(), b.digest());
            let c = kind.instantiate(4, 99);
            assert_ne!(a.digest(), c.digest(), "{kind:?} columns must differ");
        }
    }

    #[test]
    fn same_update_sequence_gives_same_digest() {
        let kind = DbKind::Kv;
        let updates = [
            DbUpdate::Set { key: 10, value: 5 },
            DbUpdate::Add { key: 10, delta: 3 },
            DbUpdate::Add { key: 7, delta: 1 },
            DbUpdate::Remove { key: 10 },
        ];
        let mut a = kind.instantiate(1, 0);
        let mut b = kind.instantiate(1, 0);
        for u in &updates {
            a.apply(u);
            b.apply(u);
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.consult(1, 5), b.consult(1, 5));
    }

    #[test]
    fn update_order_matters_for_set() {
        let kind = DbKind::Vec { size: 8 };
        let mut a = kind.instantiate(1, 0);
        let mut b = kind.instantiate(1, 0);
        a.apply(&DbUpdate::Set { key: 0, value: 1 });
        a.apply(&DbUpdate::Set { key: 0, value: 2 });
        b.apply(&DbUpdate::Set { key: 0, value: 2 });
        b.apply(&DbUpdate::Set { key: 0, value: 1 });
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn kv_set_get_remove_roundtrip() {
        let mut kv = KvShard::new();
        assert!(kv.is_empty());
        kv.set(5, 50);
        kv.set(3, 30);
        kv.set(5, 55);
        assert_eq!(kv.get(5), Some(55));
        assert_eq!(kv.get(3), Some(30));
        assert_eq!(kv.get(4), None);
        assert_eq!(kv.len(), 2);
        assert_eq!(kv.remove(5), Some(55));
        assert_eq!(kv.remove(5), None);
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn kv_digest_is_insertion_order_independent() {
        let mut a = KvShard::new();
        let mut b = KvShard::new();
        for k in 0..20u64 {
            a.set(k, k * 2);
        }
        for k in (0..20u64).rev() {
            b.set(k, k * 2);
        }
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn counter_add_is_commutative_but_set_is_not() {
        let kind = DbKind::Counter;
        let mut a = kind.instantiate(1, 7);
        let mut b = kind.instantiate(1, 7);
        a.apply(&DbUpdate::Add { key: 1, delta: 10 });
        a.apply(&DbUpdate::Add { key: 2, delta: 20 });
        b.apply(&DbUpdate::Add { key: 2, delta: 20 });
        b.apply(&DbUpdate::Add { key: 1, delta: 10 });
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn remove_is_noop_for_counter_and_vec() {
        for kind in [DbKind::Counter, DbKind::Vec { size: 4 }] {
            let mut db = kind.instantiate(2, 1);
            let before = db.digest();
            db.apply(&DbUpdate::Remove { key: 9 });
            assert_eq!(db.digest(), before);
        }
    }

    #[test]
    fn consult_depends_on_col_and_step() {
        let db = DbKind::Vec { size: 64 }.instantiate(1, 3);
        assert_ne!(db.consult(1, 1), db.consult(1, 2));
        assert_ne!(db.consult(1, 1), db.consult(2, 1));
    }

    #[test]
    fn words_reflects_size() {
        assert_eq!(DbKind::Counter.instantiate(1, 0).words(), 1);
        assert_eq!(DbKind::Vec { size: 32 }.instantiate(1, 0).words(), 32);
        assert!(DbKind::Kv.instantiate(1, 0).words() >= 2);
    }

    #[test]
    fn update_digest_distinguishes_variants() {
        let us = [
            DbUpdate::None,
            DbUpdate::Add { key: 1, delta: 2 },
            DbUpdate::Set { key: 1, value: 2 },
            DbUpdate::Remove { key: 1 },
        ];
        for i in 0..us.len() {
            for j in 0..us.len() {
                if i != j {
                    assert_ne!(us[i].digest(), us[j].digest());
                }
            }
        }
    }
}
