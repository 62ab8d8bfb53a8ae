//! §5, Theorems 7–8: simulating 2-D arrays on linear hosts and NOWs.
//!
//! Theorem 7 simulates an `m × m` guest array on an intermediate linear
//! array `H₀` by assigning whole mesh *columns* (strips) to processors:
//! with `m ≤ n₀` one strip per processor (slowdown `O(m)` — computing a
//! strip dominates the link delay), otherwise `m/n₀` strips per processor
//! (slowdown `O(m²/n₀)`). Theorem 8 composes this with OVERLAP through
//! the dilation-3 embedding, exactly like Theorem 5, giving
//! `O(√N·log³N + N^{1/4}·√d_ave·log³N)` for an `N`-cell guest.

use crate::combined::compose;
use crate::overlap::{plan_overlap, OverlapError};
use overlap_model::{mesh3d_slabs, mesh_columns, torus_fold, GuestTopology, SlotMap};

/// Theorem 7 strip placement: distribute the `w` mesh columns over `n0`
/// line positions, blocked: position `p` gets strips
/// `[p·w/n_use, (p+1)·w/n_use)` for `n_use = min(w, n0)` active positions.
pub fn strips_on_line(w: u32, n0: u32) -> Vec<Vec<u32>> {
    let n_use = w.min(n0).max(1);
    let mut out = vec![Vec::new(); n0 as usize];
    for s in 0..w {
        let p = (s as u64 * n_use as u64 / w as u64) as usize;
        out[p].push(s);
    }
    out
}

/// Theorem 7 predicted slowdown for an `m × m` guest on an `n0`-processor
/// uniform line: `O(m + m²/n0)`.
pub fn t7_predicted(m: u32, n0: u32) -> f64 {
    let m = m as f64;
    m + m * m / n0.max(1) as f64
}

/// A Theorem 8 mesh plan on an arbitrary host.
#[derive(Debug, Clone)]
pub struct MeshPlan {
    /// Host position → guest cells.
    pub cells_of_position: Vec<Vec<u32>>,
    /// Predicted slowdown (Theorem 8 form).
    pub predicted_slowdown: f64,
}

/// The line-slot grouping of a grid guest: column strips for a mesh, the
/// ring-folded column pairs for a torus, `x`-slabs for a 3-D mesh.
/// `None` for non-grid guests.
pub fn grid_slot_map(topo: &GuestTopology) -> Option<SlotMap> {
    match *topo {
        GuestTopology::Mesh2D { w, h } => Some(mesh_columns(w, h)),
        GuestTopology::Torus2D { w, h } => Some(torus_fold(w, h)),
        GuestTopology::Mesh3D { w, h, d } => Some(mesh3d_slabs(w, h, d)),
        _ => None,
    }
}

/// Plan the Theorem 8 composition: host array (via embedding) → OVERLAP
/// with block `expansion` → strips/slabs of the grid guest. The builder
/// places every grid guest through this
/// ([`plan_placement`](crate::pipeline::plan_placement)).
pub fn plan_mesh(
    delays: &[u64],
    c: f64,
    expansion: u32,
    topo: &GuestTopology,
) -> Result<MeshPlan, OverlapError> {
    let slot_map = grid_slot_map(topo).expect("grid guest");
    let overlap = plan_overlap(delays, c, expansion)?;
    let n0 = overlap.guest_cells;
    let strips = strips_on_line(slot_map.len() as u32, n0);
    // strips → cells
    let strip_cells: Vec<Vec<u32>> = strips
        .iter()
        .map(|ss| {
            let mut cells: Vec<u32> = ss
                .iter()
                .flat_map(|&s| slot_map.slots[s as usize].iter().copied())
                .collect();
            cells.sort_unstable();
            cells
        })
        .collect();
    let num_cells = topo.num_cells();
    let cells_of_position = compose(&overlap.cells_of_position, &strip_cells, num_cells);
    let predicted = crate::theory::t8_predicted(num_cells as u64, overlap.kill.d_ave);
    Ok(MeshPlan {
        cells_of_position,
        predicted_slowdown: predicted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::SimReport;
    use crate::Simulation;
    use overlap_model::{GuestSpec, ProgramKind};
    use overlap_net::topology::{linear_array, mesh2d};
    use overlap_net::{DelayModel, HostGraph};

    /// A grid guest through the builder's default (Theorem 8) placement.
    fn simulate(guest: &GuestSpec, host: &HostGraph) -> SimReport {
        Simulation::of(guest)
            .on(host)
            .build()
            .and_then(|sim| sim.run())
            .unwrap()
    }

    #[test]
    fn strips_one_per_position_when_they_fit() {
        let s = strips_on_line(4, 8);
        assert_eq!(s[0], vec![0]);
        assert_eq!(s[3], vec![3]);
        assert!(s[4].is_empty());
    }

    #[test]
    fn strips_block_when_host_is_small() {
        let s = strips_on_line(8, 3);
        let total: usize = s.iter().map(Vec::len).sum();
        assert_eq!(total, 8);
        assert!(s.iter().take(3).all(|v| !v.is_empty()));
        // contiguity
        for v in &s {
            for w in v.windows(2) {
                assert_eq!(w[1], w[0] + 1);
            }
        }
    }

    #[test]
    fn t7_prediction_case_split() {
        // m ≤ n0: O(m) dominates.
        assert!(t7_predicted(16, 1024) < 17.0);
        // m ≫ n0: O(m²/n0) dominates.
        assert!(t7_predicted(1024, 4) > 260_000.0);
    }

    #[test]
    fn mesh_plan_covers_all_cells() {
        let host = linear_array(16, DelayModel::uniform(1, 6), 2);
        let delays: Vec<u64> = host.links().iter().map(|l| l.delay).collect();
        let topo = GuestTopology::Mesh2D { w: 10, h: 6 };
        let plan = plan_mesh(&delays, 4.0, 2, &topo).unwrap();
        let mut covered = [false; 60];
        for cells in &plan.cells_of_position {
            for &c in cells {
                covered[c as usize] = true;
            }
        }
        assert!(covered.iter().all(|&b| b));
    }

    #[test]
    fn mesh_simulation_validates_on_line_host() {
        let guest = GuestSpec::mesh(8, 6, ProgramKind::KvWorkload, 5, 8);
        let host = linear_array(6, DelayModel::uniform(1, 4), 3);
        let r = simulate(&guest, &host);
        assert!(r.validated, "{} mismatches", r.mismatches);
    }

    #[test]
    fn mesh_simulation_validates_on_mesh_host() {
        let guest = GuestSpec::mesh(6, 6, ProgramKind::RuleAutomaton { db_size: 4 }, 1, 6);
        let host = mesh2d(3, 3, DelayModel::uniform(1, 5), 7);
        let r = simulate(&guest, &host);
        assert!(r.validated);
        assert!(r.dilation >= 1);
    }

    #[test]
    fn torus_guest_validates() {
        let guest = GuestSpec::torus(6, 4, ProgramKind::KvWorkload, 3, 8);
        let host = linear_array(4, DelayModel::uniform(1, 5), 1);
        let r = simulate(&guest, &host);
        assert!(r.validated, "{} mismatches", r.mismatches);
    }

    #[test]
    fn mesh3d_guest_validates() {
        let guest = GuestSpec::mesh3(4, 3, 3, ProgramKind::RuleAutomaton { db_size: 4 }, 9, 6);
        let host = linear_array(4, DelayModel::uniform(1, 5), 2);
        let r = simulate(&guest, &host);
        assert!(r.validated, "{} mismatches", r.mismatches);
    }

    #[test]
    fn mesh3d_guest_validates_on_mesh_host() {
        let guest = GuestSpec::mesh3(3, 3, 2, ProgramKind::Relaxation, 4, 6);
        let host = mesh2d(3, 3, DelayModel::uniform(1, 4), 6);
        let r = simulate(&guest, &host);
        assert!(r.validated);
    }
}
