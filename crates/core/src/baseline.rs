//! The prior latency-tolerance approaches the paper compares against (§1).
//!
//! * **Lockstep**: "slow down the computation to the point where the
//!   latency is accommodated … the circuit needs to be slowed down to
//!   accommodate the highest latency" — slowdown `Θ(d_max + 1)` per step,
//!   exactly computable without simulation
//!   (`overlap_sim::ExecPlan::lockstep_makespan`, which every
//!   [`SimReport`](crate::SimReport) carries).
//! * **Complementary slackness**: prior approaches "could preserve
//!   efficiency by using only n/d_max of the processors of H" — a blocked
//!   layout over `n/d_max` evenly spaced processors.
//! * **Blocked**: the naive even partition over all processors with no
//!   redundancy (what a programmer gets without latency hiding).
//!
//! The assignment builders live here; [`crate::pipeline::Strategy`]
//! exposes them to the pipeline and experiments.

use overlap_net::{Delay, HostGraph};
use overlap_sim::Assignment;

/// Blocked assignment over every host processor (no redundancy).
pub fn blocked(host: &HostGraph, cells: u32) -> Assignment {
    Assignment::blocked(host.num_nodes(), cells)
}

/// Complementary-slackness assignment: contiguous blocks on
/// `max(1, n/d_max)` evenly spaced processors. Each used processor has
/// `Θ(d_max)` slack (columns) to keep busy while waiting.
pub fn slackness(host: &HostGraph, cells: u32, d_max: Delay) -> Assignment {
    let n = host.num_nodes();
    let used = ((n as u64) / d_max.max(1)).clamp(1, n as u64) as u32;
    let mut cells_of = vec![Vec::new(); n as usize];
    for u in 0..used {
        let pos = (u as u64 * n as u64 / used as u64) as usize;
        let lo = (u as u64 * cells as u64 / used as u64) as u32;
        let hi = ((u as u64 + 1) * cells as u64 / used as u64) as u32;
        cells_of[pos].extend(lo..hi);
    }
    Assignment::from_cells_of(n, cells, cells_of)
}

/// Speed-weighted blocked assignment for heterogeneous hosts: processor
/// `p` with compute cost `costs[p]` (ticks per pebble) receives a
/// contiguous block of cells proportional to its speed `1/costs[p]`, so
/// every processor needs roughly the same wall-clock per guest step.
/// With uniform costs this degenerates to [`blocked`].
pub fn weighted_blocked(costs: &[u32], cells: u32) -> Assignment {
    assert!(!costs.is_empty() && costs.iter().all(|&c| c >= 1));
    let n = costs.len() as u32;
    let speeds: Vec<f64> = costs.iter().map(|&c| 1.0 / c as f64).collect();
    let total: f64 = speeds.iter().sum();
    // Cumulative speed share → contiguous cell ranges.
    let mut cells_of = vec![Vec::new(); n as usize];
    let mut acc = 0.0;
    let mut next_cell = 0u32;
    for (p, &sp) in speeds.iter().enumerate() {
        acc += sp;
        let hi = ((acc / total) * cells as f64).round() as u32;
        let hi = hi.min(cells);
        cells_of[p].extend(next_cell..hi);
        next_cell = hi;
    }
    // Rounding may leave a tail; give it to the last processor.
    cells_of[n as usize - 1].extend(next_cell..cells);
    Assignment::from_cells_of(n, cells, cells_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlap_net::topology::linear_array;
    use overlap_net::DelayModel;

    #[test]
    fn blocked_uses_all_processors() {
        let host = linear_array(8, DelayModel::constant(1), 0);
        let a = blocked(&host, 64);
        assert_eq!(a.active_procs(), 8);
        assert_eq!(a.redundancy(), 1.0);
        assert!(a.is_complete());
    }

    #[test]
    fn slackness_uses_n_over_dmax_processors() {
        let host = linear_array(64, DelayModel::constant(1), 0);
        let a = slackness(&host, 128, 8);
        assert_eq!(a.active_procs(), 8); // 64/8
        assert!(a.is_complete());
        assert_eq!(a.redundancy(), 1.0);
        assert_eq!(a.load(), 16); // 128 cells / 8 procs
    }

    #[test]
    fn weighted_blocked_matches_blocked_for_uniform_costs() {
        let w = weighted_blocked(&[1; 8], 64);
        let b = Assignment::blocked(8, 64);
        assert_eq!(w.load(), b.load());
        assert!(w.is_complete());
        assert_eq!(w.redundancy(), 1.0);
    }

    #[test]
    fn weighted_blocked_gives_slow_processors_less() {
        let costs = vec![1, 1, 4, 1];
        let a = weighted_blocked(&costs, 130);
        assert!(a.is_complete());
        let loads: Vec<usize> = (0..4).map(|p| a.cells_of(p).len()).collect();
        // Processor 2 is 4× slower: about a quarter of the others' share.
        assert!(loads[2] * 3 < loads[0], "{loads:?}");
        // Wall-clock per step is balanced: load × cost within 2× across procs.
        let work: Vec<usize> = loads
            .iter()
            .zip(&costs)
            .map(|(&l, &c)| l * c as usize)
            .collect();
        let max = *work.iter().max().unwrap();
        let min = *work.iter().filter(|&&w| w > 0).min().unwrap();
        assert!(max <= 2 * min, "{work:?}");
    }

    #[test]
    fn weighted_blocked_covers_all_cells_for_odd_sizes() {
        for cells in [1u32, 7, 33, 100] {
            let a = weighted_blocked(&[1, 3, 2, 5, 1], cells);
            assert!(a.is_complete(), "cells={cells}");
            assert_eq!(a.total_copies() as u32, cells);
        }
    }

    #[test]
    fn slackness_degenerates_gracefully() {
        let host = linear_array(4, DelayModel::constant(1), 0);
        // d_max larger than n: a single processor.
        let a = slackness(&host, 12, 100);
        assert_eq!(a.active_procs(), 1);
        assert!(a.is_complete());
        // d_max = 1: all processors.
        let b = slackness(&host, 12, 1);
        assert_eq!(b.active_procs(), 4);
    }
}
