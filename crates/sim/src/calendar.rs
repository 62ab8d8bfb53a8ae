//! A bucketed calendar queue for integer-tick discrete-event simulation.
//!
//! The engine's event queue is extremely structured: ticks are integers,
//! events are only ever scheduled at or after the current tick, and almost
//! all of them land within a few link delays of "now". A binary heap pays
//! `O(log q)` comparisons and a cache miss per operation for a generality
//! the workload never uses. This queue instead keeps a ring of
//! `WINDOW` FIFO buckets — one per tick of the near future — plus a
//! spill-over heap for the rare event beyond the horizon:
//!
//! * `push` appends to the bucket `tick % WINDOW` when `tick` lies inside
//!   the window `[now, now + WINDOW)`, else pushes `(tick, seq)` onto the
//!   overflow heap — `O(1)` amortized either way.
//! * `pop` drains the current bucket in FIFO order, then advances the
//!   cursor to the next occupied slot using a 64-bit occupancy bitmap
//!   (one `trailing_zeros` per 64 empty slots), refilling from the
//!   overflow heap whenever the window slides.
//!
//! # Storage
//!
//! The ring's events share one slab of slots, each holding a payload and
//! the index of the next slot in its bucket; a bucket is only the head
//! and tail index of its list. A popped slot goes onto a LIFO free list,
//! so the next push reuses it while it is still in cache, and the slab
//! grows only when every slot is taken. The slab therefore holds exactly
//! as many slots as the ring ever held events at once — never more than
//! the run's `peak_queue_depth` — whereas one buffer per bucket would
//! keep `WINDOW` buffers, each the size of its tick's busiest moment.
//! After warm-up, steady-state operation performs no allocation.
//!
//! # Determinism contract
//!
//! Events are delivered in ascending tick order; **events with equal ticks
//! are delivered in push order** (FIFO). This reproduces exactly the
//! `(tick, sequence-number)` order of a `BinaryHeap<Reverse<(u64, u64)>>`,
//! which is what the seed engine used — see the `matches_reference_heap`
//! test. The invariant that makes the bucket/overflow split safe: the
//! overflow heap only ever holds events with `tick >= cursor + WINDOW`,
//! and the window is refilled *immediately* whenever the cursor advances,
//! so an overflow event always re-enters its bucket before any same-tick
//! event can be pushed directly (pushes happen only while processing
//! events at the cursor tick, with monotonically increasing sequence
//! numbers).

use std::collections::BinaryHeap;

/// Number of near-future tick buckets (must be a power of two). 1024 ticks
/// covers every delay the experiment sweeps use; larger delays simply take
/// the overflow path, which is still `O(log overflow)` only for the rare
/// beyond-horizon event. Public so tests and benchmarks can construct
/// workloads that deliberately straddle the horizon.
pub const WINDOW: u64 = 1024;
const MASK: u64 = WINDOW - 1;
const WORDS: usize = (WINDOW / 64) as usize;

/// No slot: the end of a bucket's list or of the free list.
const NIL: u32 = u32::MAX;

/// Overflow entry ordered by `(tick, seq)` only; the payload rides along.
struct Spill<T> {
    tick: u64,
    seq: u64,
    ev: T,
}

impl<T> PartialEq for Spill<T> {
    fn eq(&self, other: &Self) -> bool {
        self.tick == other.tick && self.seq == other.seq
    }
}
impl<T> Eq for Spill<T> {}
impl<T> PartialOrd for Spill<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Spill<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (other.tick, other.seq).cmp(&(self.tick, self.seq))
    }
}

/// One slab entry: a pending event and the slot after it in its bucket,
/// or, while the slot is free, the next free slot.
#[derive(Clone, Copy)]
struct Slot<T> {
    ev: T,
    next: u32,
}

/// A bucket's FIFO as the first and last slab slot of its list; `head`
/// is `NIL` when the bucket is empty (`tail` is then stale).
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

impl Bucket {
    const EMPTY: Self = Self {
        head: NIL,
        tail: NIL,
    };
}

/// The calendar queue. `T` is the event payload, copied into a slab slot
/// on push and out of it on pop.
pub struct CalendarQueue<T> {
    /// Every event in the ring, each slot linked into its bucket's list
    /// or into the free list.
    slots: Vec<Slot<T>>,
    /// Most recently freed slot (`NIL` when every slot is in use).
    free: u32,
    /// `buckets[tick & MASK]` lists the events of one tick within the
    /// window `[cursor, cursor + WINDOW)`, in push order.
    buckets: Box<[Bucket]>,
    /// Occupancy bitmap over bucket slots (bit `s` = slot `s` non-empty).
    occupied: [u64; WORDS],
    /// The earliest tick any pending event may have.
    cursor: u64,
    /// Events currently in the ring.
    ring_len: usize,
    /// Beyond-horizon events, earliest `(tick, seq)` first.
    overflow: BinaryHeap<Spill<T>>,
    /// Monotone push counter; orders overflow events among themselves.
    seq: u64,
    /// Past-tick pushes clamped up to the cursor (see [`push`](Self::push)).
    clamped: u64,
}

impl<T: Copy> CalendarQueue<T> {
    /// An empty queue with the cursor at tick 0.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: NIL,
            buckets: vec![Bucket::EMPTY; WINDOW as usize].into_boxed_slice(),
            occupied: [0; WORDS],
            cursor: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
            clamped: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `ev` at `tick`. Events must never be scheduled in the past:
    /// an engine pushing below the tick of the most recent `pop` is a bug,
    /// so debug builds assert. Release builds clamp the tick up to the
    /// cursor (delivering at the current tick instead of silently wrapping
    /// into a future ring bucket and corrupting the pop order) **and count
    /// the anomaly** in [`clamped`](Self::clamped), which engines surface
    /// as `RunStats::queue_clamped_pushes` — silent time-travel can no
    /// longer mask a scheduling bug. Callers that push past ticks *by
    /// design* use [`push_clamping`](Self::push_clamping).
    #[inline]
    pub fn push(&mut self, tick: u64, ev: T) {
        debug_assert!(
            tick >= self.cursor,
            "past-tick push: tick {tick} < cursor {}",
            self.cursor
        );
        self.push_clamping(tick, ev);
    }

    /// [`push`](Self::push) without the past-tick debug assertion: the
    /// entry point for callers that *deliberately* schedule at-or-before
    /// the cursor and rely on the documented clamp-to-cursor semantics.
    /// Clamped pushes are still counted.
    #[inline]
    pub fn push_clamping(&mut self, tick: u64, ev: T) {
        if tick < self.cursor {
            self.clamped += 1;
        }
        let tick = tick.max(self.cursor);
        self.seq += 1;
        if tick < self.cursor + WINDOW {
            self.append(tick, ev);
        } else {
            self.overflow.push(Spill {
                tick,
                seq: self.seq,
                ev,
            });
        }
    }

    /// Number of past-tick pushes that were clamped up to the cursor over
    /// this queue's lifetime. Zero on every healthy engine run.
    #[inline]
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Remove and return the earliest event as `(tick, event)`; FIFO among
    /// events of equal tick.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, T)> {
        loop {
            let slot = (self.cursor & MASK) as usize;
            let bucket = &mut self.buckets[slot];
            if bucket.head != NIL {
                let i = bucket.head;
                let Slot { ev, next } = self.slots[i as usize];
                bucket.head = next;
                if next == NIL {
                    self.occupied[slot >> 6] &= !(1u64 << (slot & 63));
                }
                self.slots[i as usize].next = self.free;
                self.free = i;
                self.ring_len -= 1;
                return Some((self.cursor, ev));
            }
            if self.ring_len > 0 {
                // Next occupied slot, circularly after `slot`.
                let delta = self.next_occupied_delta(slot);
                self.cursor += delta;
                self.refill();
            } else if let Some(spill) = self.overflow.peek() {
                self.cursor = spill.tick;
                self.refill();
            } else {
                return None;
            }
        }
    }

    /// Append `ev` to the bucket of `tick`, which lies inside the window,
    /// in the most recently freed slot (a new one only when none is free).
    #[inline]
    fn append(&mut self, tick: u64, ev: T) {
        let new = Slot { ev, next: NIL };
        let i = if self.free == NIL {
            assert!(
                self.slots.len() < NIL as usize,
                "the ring holds fewer than u32::MAX events"
            );
            self.slots.push(new);
            (self.slots.len() - 1) as u32
        } else {
            let i = self.free;
            self.free = self.slots[i as usize].next;
            self.slots[i as usize] = new;
            i
        };
        let slot = (tick & MASK) as usize;
        let bucket = &mut self.buckets[slot];
        if bucket.head == NIL {
            bucket.head = i;
            self.occupied[slot >> 6] |= 1u64 << (slot & 63);
        } else {
            self.slots[bucket.tail as usize].next = i;
        }
        bucket.tail = i;
        self.ring_len += 1;
    }

    /// Distance (in slots, `1..WINDOW`) from `slot` to the next occupied
    /// slot, scanning the bitmap a word at a time.
    #[inline]
    fn next_occupied_delta(&self, slot: usize) -> u64 {
        debug_assert!(self.ring_len > 0);
        // Bits strictly after `slot` in its own word.
        let word = slot >> 6;
        let bit = slot & 63;
        let first = self.occupied[word] & !((1u64 << bit) | ((1u64 << bit) - 1));
        if first != 0 {
            return first.trailing_zeros() as u64 - bit as u64;
        }
        for i in 1..=WORDS {
            let w = (word + i) % WORDS;
            let bits = if w == word {
                // Wrapped fully around: bits up to and including `slot`.
                self.occupied[w] & ((1u64 << bit) | ((1u64 << bit) - 1))
            } else {
                self.occupied[w]
            };
            if bits != 0 {
                let pos = (w << 6) as u64 + bits.trailing_zeros() as u64;
                let cur = slot as u64;
                return if pos > cur {
                    pos - cur
                } else {
                    pos + WINDOW - cur
                };
            }
        }
        unreachable!("ring_len > 0 but no occupied slot");
    }

    /// Move every overflow event whose tick now falls inside the window
    /// into its bucket. Must run on every cursor advance (see module docs).
    #[inline]
    fn refill(&mut self) {
        let horizon = self.cursor + WINDOW;
        while let Some(spill) = self.overflow.peek() {
            if spill.tick >= horizon {
                break;
            }
            let spill = self.overflow.pop().expect("peeked");
            self.append(spill.tick, spill.ev);
        }
    }
}

impl<T: Copy> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;

    #[test]
    fn empty_queue_pops_none() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_within_a_tick() {
        let mut q = CalendarQueue::new();
        for v in 0..10 {
            q.push(5, v);
        }
        for v in 0..10 {
            assert_eq!(q.pop(), Some((5, v)));
        }
    }

    #[test]
    fn ascending_ticks_across_the_horizon() {
        let mut q = CalendarQueue::new();
        // Far beyond the window, out of order, plus some near events.
        q.push(WINDOW * 3 + 17, 'c');
        q.push(2, 'a');
        q.push(WINDOW * 3 + 17, 'd');
        q.push(WINDOW + 5, 'b');
        assert_eq!(q.pop(), Some((2, 'a')));
        assert_eq!(q.pop(), Some((WINDOW + 5, 'b')));
        assert_eq!(q.pop(), Some((WINDOW * 3 + 17, 'c')));
        assert_eq!(q.pop(), Some((WINDOW * 3 + 17, 'd')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaves_overflow_and_direct_pushes_in_seq_order() {
        let mut q = CalendarQueue::new();
        let t = WINDOW + 100;
        q.push(t, 1); // overflow (beyond horizon from cursor 0)
        q.push(1, 0);
        assert_eq!(q.pop(), Some((1, 0)));
        // Cursor at 1: t is still outside [1, 1+WINDOW)? 1124 >= 1025 ⇒ yes.
        // Advance the cursor by draining a nearer event.
        q.push(200, 2);
        assert_eq!(q.pop(), Some((200, 2)));
        // Now t < 200 + WINDOW: overflow refilled. A direct push at t must
        // come after the earlier overflow event.
        q.push(t, 3);
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 3)));
    }

    /// The determinism contract: identical delivery order to the seed
    /// engine's `BinaryHeap<Reverse<(tick, seq)>>` under an adversarial
    /// deterministic workload mixing near, far, and equal ticks.
    #[test]
    fn matches_reference_heap() {
        let mut cal = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut rng = 0x1234_5678_9abc_def0u64;
        let mut next = |m: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % m
        };
        let mut now = 0u64;
        let mut id = 0u32;
        let mut pending = 0u32;
        for _ in 0..200_000 {
            let do_push = pending == 0 || next(3) != 0;
            if do_push {
                // Mix of same-tick, near, window-boundary and far-future.
                let delta = match next(8) {
                    0 => 0,
                    1..=4 => next(16),
                    5 => WINDOW - 1 + next(3), // straddle the horizon
                    6 => next(4 * WINDOW),
                    _ => next(64),
                };
                cal.push(now + delta, id);
                heap.push(Reverse((now + delta, seq, id)));
                seq += 1;
                id += 1;
                pending += 1;
            } else {
                let (t1, v1) = cal.pop().expect("calendar non-empty");
                let Reverse((t2, _, v2)) = heap.pop().expect("heap non-empty");
                assert_eq!((t1, v1), (t2, v2), "diverged at event {v2}");
                now = t1;
                pending -= 1;
            }
            assert_eq!(cal.len() as u32, pending);
        }
        while let Some((t1, v1)) = cal.pop() {
            let Reverse((t2, _, v2)) = heap.pop().expect("heap non-empty");
            assert_eq!((t1, v1), (t2, v2));
        }
        assert!(heap.pop().is_none());
    }

    /// Storage follows the pending events, not the ring: with the cursor
    /// driven around the ring sixteen times, several events per tick, some
    /// beyond the horizon and never more than `K` pending, the slab never
    /// holds more than `K` slots — exactly as many as the ring ever held
    /// at once — and pops keep the reference heap's order.
    #[test]
    fn slab_is_bounded_by_pending_events_as_the_ring_wraps() {
        const K: usize = 64;
        let mut cal = CalendarQueue::new();
        let mut heap = BinaryHeap::new();
        let mut rng = 0x0bad_5eed_dead_beefu64;
        let mut next = |m: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % m
        };
        let (mut now, mut seq, mut id) = (0u64, 0u64, 0u32);
        let mut ring_peak = 0;
        type Heap = BinaryHeap<Reverse<(u64, u64, u32)>>;
        fn check_pop(cal: &mut CalendarQueue<u32>, heap: &mut Heap) -> u64 {
            let (t1, v1) = cal.pop().expect("calendar non-empty");
            let Reverse((t2, _, v2)) = heap.pop().expect("heap non-empty");
            assert_eq!((t1, v1), (t2, v2), "diverged at event {v2}");
            t1
        }
        while now < 16 * WINDOW {
            if cal.is_empty() || (cal.len() < K && next(4) != 0) {
                let far = cal.overflow.len() < K / 8 && next(32) == 0;
                let delta = if far {
                    WINDOW + next(2 * WINDOW)
                } else {
                    next(8)
                };
                cal.push(now + delta, id);
                heap.push(Reverse((now + delta, seq, id)));
                seq += 1;
                id += 1;
            } else {
                now = check_pop(&mut cal, &mut heap);
            }
            ring_peak = ring_peak.max(cal.ring_len);
            assert!(cal.slots.len() <= K, "{} slots", cal.slots.len());
        }
        assert_eq!(cal.slots.len(), ring_peak);
        while !cal.is_empty() {
            check_pop(&mut cal, &mut heap);
        }
        assert_eq!(cal.slots.len(), ring_peak);
        assert!(id as usize > 100 * K, "only {id} events pushed");
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Property version of the determinism contract, biased toward the
        /// overflow path: bursts of events landing at and far beyond the
        /// `WINDOW` horizon (so they spill to the heap and must be
        /// refilled on cursor advances) still pop in bit-identical
        /// `(tick, push-seq)` order to the reference `BinaryHeap`.
        #[test]
        fn overflow_spikes_match_reference_heap_prop(
            ops in proptest::collection::vec(
                (
                    0u8..5,
                    prop_oneof![
                        0u64..4,                    // same-tick / near
                        4u64..64,                   // in-window
                        WINDOW - 2..WINDOW + 2,     // straddle the horizon
                        WINDOW..WINDOW * 8,         // deep overflow spikes
                    ],
                ),
                1..400,
            ),
        ) {
            let mut cal = CalendarQueue::new();
            let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
            let mut now = 0u64;
            let mut seq = 0u64;
            let mut id = 0u32;
            let mut pending = 0u32;
            for &(op, delta) in &ops {
                if op == 0 && pending > 0 {
                    let (t1, v1) = cal.pop().expect("calendar non-empty");
                    let Reverse((t2, _, v2)) = heap.pop().expect("heap non-empty");
                    prop_assert_eq!((t1, v1), (t2, v2));
                    now = t1;
                    pending -= 1;
                } else if op == 4 {
                    // Past-tick push: the calendar clamps to its cursor, so
                    // the reference heap must schedule at `now` instead.
                    // `push_clamping` is the deliberate-past entry point
                    // (plain `push` asserts in debug builds).
                    cal.push_clamping(now.saturating_sub(delta), id);
                    heap.push(Reverse((now, seq, id)));
                    seq += 1;
                    id += 1;
                    pending += 1;
                } else {
                    cal.push(now + delta, id);
                    heap.push(Reverse((now + delta, seq, id)));
                    seq += 1;
                    id += 1;
                    pending += 1;
                }
                prop_assert_eq!(cal.len() as u32, pending);
            }
            while let Some((t1, v1)) = cal.pop() {
                let Reverse((t2, _, v2)) = heap.pop().expect("heap non-empty");
                prop_assert_eq!((t1, v1), (t2, v2));
            }
            prop_assert!(heap.pop().is_none());
        }
    }

    #[test]
    fn past_tick_push_is_clamped_to_cursor() {
        // Before the clamp, a past tick was masked straight into the ring
        // and could land in a *future* bucket (tick & MASK wraps), so
        // release builds popped events out of order. Now it is delivered
        // at the cursor tick, after events already queued there.
        let mut cal = CalendarQueue::new();
        cal.push(0, 'a');
        cal.push(10, 'b');
        assert_eq!(cal.clamped(), 0);
        assert_eq!(cal.pop(), Some((0, 'a'))); // cursor now 0 -> scans to 10
        assert_eq!(cal.pop(), Some((10, 'b'))); // cursor now 10
        cal.push_clamping(3, 'p'); // in the past: clamped to 10
        cal.push(10, 'q');
        cal.push(11, 'r');
        assert_eq!(cal.clamped(), 1, "exactly the past push is counted");
        assert_eq!(cal.pop(), Some((10, 'p')));
        assert_eq!(cal.pop(), Some((10, 'q')));
        assert_eq!(cal.pop(), Some((11, 'r')));
        assert!(cal.pop().is_none());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "past-tick push")]
    fn plain_push_asserts_on_past_ticks_in_debug() {
        let mut cal = CalendarQueue::new();
        cal.push(5, 'a');
        assert_eq!(cal.pop(), Some((5, 'a'))); // cursor now 5
        cal.push(2, 'b'); // engines must never do this
    }

    #[test]
    fn len_tracks_ring_and_overflow() {
        let mut q = CalendarQueue::new();
        q.push(1, 0);
        q.push(WINDOW * 2, 1);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn sparse_far_apart_events_jump_directly() {
        let mut q = CalendarQueue::new();
        let mut t = 0u64;
        for i in 0..100u64 {
            t += 7919 * (i + 1); // strides far beyond the window
            q.push(t, i);
        }
        let mut last = 0;
        let mut n = 0;
        while let Some((tick, _)) = q.pop() {
            assert!(tick > last || n == 0);
            last = tick;
            n += 1;
        }
        assert_eq!(n, 100);
    }
}
