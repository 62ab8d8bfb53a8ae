//! Theorem 5: composing OVERLAP with the uniform-delay simulation.
//!
//! "We make use of an intermediate network H₀, which is a linear array of
//! n·log³n processors and has a delay of d_ave on every link. Theorem 4
//! implies that H₀ can simulate G with a slowdown of O(√d_ave). Theorem 2
//! implies that H can simulate H₀ with a slowdown of O(log³n). The
//! combined slowdown is thus O(√d_ave·log³n)."
//!
//! Concretely the composition is on assignments: OVERLAP (with block
//! expansion) maps host positions to intermediate `H₀` positions;
//! Theorem 4's halo regions map `H₀` positions to guest cells; the
//! composite maps host positions to guest cells.

use crate::overlap::{plan_overlap, OverlapError};
use crate::uniform;
use overlap_net::Delay;

/// Compose two levels of placement: `outer[p]` = intermediate ids held by
/// position `p`; `inner[q]` = final ids held by intermediate id `q`. The
/// result is deduplicated and sorted per position; ids ≥ `clip` are
/// dropped (used to trim halo overshoot at array ends).
pub fn compose(outer: &[Vec<u32>], inner: &[Vec<u32>], clip: u32) -> Vec<Vec<u32>> {
    outer
        .iter()
        .map(|mids| {
            let mut out: Vec<u32> = mids
                .iter()
                .flat_map(|&q| inner[q as usize].iter().copied())
                .filter(|&c| c < clip)
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        })
        .collect()
}

/// A Theorem 5 plan: host positions → guest cells through the
/// intermediate uniform array.
#[derive(Debug, Clone)]
pub struct CombinedPlan {
    /// Intermediate array width `n₀ = n'·expansion`.
    pub n0: u32,
    /// Theorem 4 block width on the intermediate array.
    pub r: u32,
    /// Final guest cells (`≤ n₀·r`, as requested).
    pub guest_cells: u32,
    /// Host position → guest cells.
    pub cells_of_position: Vec<Vec<u32>>,
    /// Predicted slowdown `O(√d_ave · polylog)`.
    pub predicted_slowdown: f64,
}

/// Plan the Theorem 5 composition for `guest_cells` cells on a host array
/// with the given link delays. `expansion` plays the role of `log³n`.
pub fn plan_combined(
    delays: &[Delay],
    c: f64,
    expansion: u32,
    guest_cells: u32,
) -> Result<CombinedPlan, OverlapError> {
    let overlap = plan_overlap(delays, c, expansion)?;
    let n0 = overlap.guest_cells;
    let r = guest_cells.div_ceil(n0).max(1);
    let h0_regions = uniform::halo_assignment(n0, r, 1);
    let cells_of_position = compose(&overlap.cells_of_position, &h0_regions, guest_cells);
    let n = delays.len() as u32 + 1;
    let d_ave = overlap.kill.d_ave;
    let predicted = crate::theory::t5_predicted(n, d_ave, c, expansion);
    Ok(CombinedPlan {
        n0,
        r,
        guest_cells,
        cells_of_position,
        predicted_slowdown: predicted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlap_net::topology::linear_array;
    use overlap_net::DelayModel;

    fn delays_of(n: u32, dm: DelayModel, seed: u64) -> Vec<Delay> {
        linear_array(n, dm, seed)
            .links()
            .iter()
            .map(|l| l.delay)
            .collect()
    }

    #[test]
    fn compose_unions_and_dedups() {
        let outer = vec![vec![0, 1], vec![1, 2]];
        let inner = vec![vec![0, 1], vec![1, 2], vec![2, 3]];
        let out = compose(&outer, &inner, 10);
        assert_eq!(out[0], vec![0, 1, 2]);
        assert_eq!(out[1], vec![1, 2, 3]);
    }

    #[test]
    fn compose_clips() {
        let out = compose(&[vec![0]], &[vec![5, 6, 7]], 6);
        assert_eq!(out[0], vec![5]);
    }

    #[test]
    fn combined_plan_covers_guest() {
        let d = delays_of(64, DelayModel::uniform(2, 20), 3);
        let plan = plan_combined(&d, 4.0, 4, 500).unwrap();
        let mut covered = vec![false; plan.guest_cells as usize];
        for cells in &plan.cells_of_position {
            for &c in cells {
                covered[c as usize] = true;
            }
        }
        assert!(covered.iter().all(|&b| b), "some guest cell uncovered");
    }

    #[test]
    fn combined_load_scales_with_expansion_and_r() {
        let d = delays_of(64, DelayModel::constant(9), 0);
        let plan = plan_combined(&d, 4.0, 4, 512).unwrap();
        let load = plan.cells_of_position.iter().map(Vec::len).max().unwrap();
        // load ≈ expansion × 3r (halo regions of 3 blocks each, partially
        // shared between consecutive H0 positions).
        assert!(load >= plan.r as usize, "load {load} < r {}", plan.r);
        assert!(
            load <= 5 * 3 * plan.r as usize * 4_usize,
            "load {load} way too high"
        );
    }

    #[test]
    fn compose_with_empty_levels() {
        assert!(compose(&[], &[vec![0]], 5).is_empty());
        let out = compose(&[vec![]], &[vec![0]], 5);
        assert_eq!(out, vec![Vec::<u32>::new()]);
    }

    #[test]
    fn combined_plan_survives_heavy_tail_hosts() {
        for seed in 0..5 {
            let d = delays_of(
                100,
                DelayModel::HeavyTail {
                    min: 1,
                    alpha: 0.6,
                    cap: 1 << 20,
                },
                seed,
            );
            let plan = plan_combined(&d, 4.0, 2, 600).unwrap();
            let mut covered = vec![false; plan.guest_cells as usize];
            for cells in &plan.cells_of_position {
                for &c in cells {
                    covered[c as usize] = true;
                }
            }
            assert!(covered.iter().all(|&b| b), "seed {seed}");
        }
    }

    #[test]
    fn r_grows_with_guest_size() {
        let d = delays_of(64, DelayModel::constant(4), 0);
        let small = plan_combined(&d, 4.0, 2, 128).unwrap();
        let large = plan_combined(&d, 4.0, 2, 4096).unwrap();
        assert!(large.r > small.r);
        assert_eq!(
            small.n0, large.n0,
            "intermediate width is guest-independent"
        );
    }

    #[test]
    fn combined_prediction_beats_overlap_for_high_delays() {
        let n = 128u32;
        let d_hi = delays_of(n, DelayModel::constant(400), 0);
        let overlap_only = plan_overlap(&d_hi, 4.0, 1).unwrap().predicted_slowdown;
        let combined = plan_combined(&d_hi, 4.0, 4, 4096)
            .unwrap()
            .predicted_slowdown;
        assert!(
            combined < overlap_only,
            "combined {combined} should beat overlap {overlap_only} at d=400"
        );
    }
}
