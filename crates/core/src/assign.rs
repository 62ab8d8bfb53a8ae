//! §3.2: assigning databases to live processors.
//!
//! The root's stage-3 label `n'` says how many guest columns the host can
//! simulate. Databases `b_1 … b_{n'}` are assigned recursively: an interval
//! with label `x` holding databases `b_{i+1} … b_{i+x}` gives its left
//! child (label `x₁`) the first `x₁` of them and its right child (label
//! `x₂`) the last `x₂`; the `m_{k+1} = x₁ + x₂ − x` databases in the middle
//! go to **both** children — the overlap that powers redundant computation.
//! At the leaves every live processor is assigned exactly one database
//! (load 1, Thm 2).
//!
//! The work-efficient variant (Thm 3) scales each assigned "slot" to a
//! block of `β = d_ave·log³n` consecutive databases ([`expand_blocks`]).

use crate::killing::KillOutcome;

/// A slot assignment: which guest *slots* (database indices before block
/// expansion) each host array position holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotAssignment {
    /// Number of guest slots (the root's stage-3 label).
    pub num_slots: u32,
    /// Per host position: the held slots, sorted, contiguous.
    pub slots_of_position: Vec<Vec<u32>>,
}

impl SlotAssignment {
    /// Maximum slots per position (1 for the load-1 assignment).
    pub fn load(&self) -> usize {
        self.slots_of_position
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0)
    }

    /// Total slot copies (≥ `num_slots`; the excess is the redundancy).
    pub fn total_copies(&self) -> usize {
        self.slots_of_position.iter().map(Vec::len).sum()
    }
}

/// Run the recursive database assignment on a killing outcome.
///
/// # Panics
/// If the root is removed (host entirely killed) — callers should check
/// `out.root_label() >= 1` first.
pub fn assign_slots(out: &KillOutcome) -> SlotAssignment {
    assert!(!out.removed[0], "entire host was killed");
    let n = out.tree.n;
    let num_slots = out.label3[0];
    assert!(num_slots >= 1, "root label must be positive");
    let mut slots_of_position: Vec<Vec<u32>> = vec![Vec::new(); n as usize];

    // (node id, slot_lo, slot_count)
    let mut stack: Vec<(u32, u32, i64)> = vec![(0, 0, num_slots)];
    while let Some((id, lo, x)) = stack.pop() {
        let node = &out.tree.nodes[id as usize];
        debug_assert!(!out.removed[id as usize]);
        debug_assert_eq!(x, out.label3[id as usize], "range must equal label");
        if node.is_leaf() {
            debug_assert!(out.alive[node.lo as usize]);
            assert_eq!(x, 1, "live leaf must receive exactly one slot");
            slots_of_position[node.lo as usize].push(lo);
            continue;
        }
        let l = node.left.unwrap();
        let r = node.right.unwrap();
        match (!out.removed[l as usize], !out.removed[r as usize]) {
            (true, true) => {
                let x1 = out.label3[l as usize];
                let x2 = out.label3[r as usize];
                assert!(x1 <= x && x2 <= x, "child label exceeds parent range");
                assert!(x1 + x2 >= x, "negative overlap");
                stack.push((l, lo, x1));
                stack.push((r, lo + (x - x2) as u32, x2));
            }
            (true, false) => stack.push((l, lo, x)),
            (false, true) => stack.push((r, lo, x)),
            (false, false) => unreachable!("non-removed node with no live child"),
        }
    }

    SlotAssignment {
        num_slots: num_slots as u32,
        slots_of_position,
    }
}

/// Expand each slot into a block of `block` consecutive guest cells:
/// slot `s` ↦ cells `[s·block, (s+1)·block)`. With `block = 1` this is the
/// identity (Thm 2); with `block = β = d_ave·log³n` it is the
/// work-efficient assignment of Thm 3.
pub fn expand_blocks(assign: &SlotAssignment, block: u32) -> Vec<Vec<u32>> {
    assert!(block >= 1);
    assign
        .slots_of_position
        .iter()
        .map(|slots| {
            let mut cells = Vec::with_capacity(slots.len() * block as usize);
            for &s in slots {
                cells.extend(s * block..(s + 1) * block);
            }
            cells
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::killing::{kill_and_label, KillParams};
    use overlap_net::topology::linear_array;
    use overlap_net::{Delay, DelayModel};

    fn delays_of(n: u32, dm: DelayModel, seed: u64) -> Vec<Delay> {
        linear_array(n, dm, seed)
            .links()
            .iter()
            .map(|l| l.delay)
            .collect()
    }

    fn check_coverage(a: &SlotAssignment) {
        let mut holders = vec![0u32; a.num_slots as usize];
        for slots in &a.slots_of_position {
            for &s in slots {
                holders[s as usize] += 1;
            }
        }
        assert!(holders.iter().all(|&h| h >= 1), "every slot needs a holder");
    }

    #[test]
    fn load_one_and_full_coverage_on_uniform_host() {
        let d = delays_of(128, DelayModel::constant(3), 0);
        let out = kill_and_label(&d, &KillParams::default());
        let a = assign_slots(&out);
        assert_eq!(a.load(), 1);
        let active = a.slots_of_position.iter().filter(|s| !s.is_empty());
        assert_eq!(active.count(), out.live());
        check_coverage(&a);
        // Redundancy: total copies − slots = sum of overlaps ≥ 0.
        assert!(a.total_copies() >= a.num_slots as usize);
    }

    #[test]
    fn coverage_under_adversarial_delays() {
        for seed in 0..10 {
            let d = delays_of(
                200,
                DelayModel::HeavyTail {
                    min: 1,
                    alpha: 0.6,
                    cap: 1 << 24,
                },
                seed,
            );
            let out = kill_and_label(&d, &KillParams::default());
            let a = assign_slots(&out);
            assert_eq!(a.load(), 1, "seed {seed}");
            check_coverage(&a);
            // Dead positions hold nothing.
            for (pos, slots) in a.slots_of_position.iter().enumerate() {
                if !out.alive[pos] {
                    assert!(slots.is_empty(), "dead position {pos} holds slots");
                }
            }
        }
    }

    #[test]
    fn assigned_slot_ranges_are_monotone_along_the_array() {
        // Slots assigned to live positions must be non-decreasing left to
        // right (the recursion assigns lower slots to left subintervals).
        let d = delays_of(128, DelayModel::uniform(1, 50), 7);
        let out = kill_and_label(&d, &KillParams::default());
        let a = assign_slots(&out);
        let mut last = 0u32;
        let mut decreases = 0;
        for slots in a.slots_of_position.iter().filter(|s| !s.is_empty()) {
            // Overlaps allow a position's slot to be ≤ its right
            // neighbour's + m; strict global monotonicity holds for the
            // *lowest* slot of each position up to the overlap size.
            let s = slots[0];
            if s + (a.num_slots / 4).max(4) < last {
                decreases += 1;
            }
            last = last.max(s);
        }
        assert_eq!(decreases, 0);
    }

    #[test]
    fn overlaps_exist_on_large_uniform_hosts() {
        // With n = 1024 and c = 4: m_0 = 1024/(4·10) = 25 — the two root
        // children must share slots.
        let d = delays_of(1024, DelayModel::constant(1), 0);
        let out = kill_and_label(&d, &KillParams::default());
        let a = assign_slots(&out);
        let copies = a.total_copies();
        assert!(
            copies > a.num_slots as usize,
            "expected redundancy: {copies} copies of {} slots",
            a.num_slots
        );
    }

    #[test]
    fn expand_blocks_identity_and_scaling() {
        let d = delays_of(32, DelayModel::constant(2), 0);
        let out = kill_and_label(&d, &KillParams::default());
        let a = assign_slots(&out);
        let id = expand_blocks(&a, 1);
        for (pos, slots) in a.slots_of_position.iter().enumerate() {
            assert_eq!(&id[pos], slots);
        }
        let b4 = expand_blocks(&a, 4);
        for (pos, slots) in a.slots_of_position.iter().enumerate() {
            assert_eq!(b4[pos].len(), slots.len() * 4);
            for (i, &s) in slots.iter().enumerate() {
                assert_eq!(b4[pos][4 * i], s * 4);
                assert_eq!(b4[pos][4 * i + 3], s * 4 + 3);
            }
        }
    }

    #[test]
    fn singleton_host_gets_one_slot() {
        let out = kill_and_label(&[], &KillParams::default());
        let a = assign_slots(&out);
        assert_eq!(a.num_slots, 1);
        assert_eq!(a.slots_of_position, vec![vec![0]]);
    }
}
