//! §7's closing wish, executed: simulating *tree* guests on a NOW.
//!
//! "Ultimately, one is interested in simulating efficiently types of
//! networks that appear often in the architectures of parallel computers,
//! like trees, arrays, butterflies and hypercubes, on a network of
//! workstations with arbitrary link delays."
//!
//! A complete binary tree does not fold onto a line with the SlotMap
//! property (a parent and its deep descendants sit far apart in any
//! linearization), so OVERLAP's interval machinery does not apply
//! directly. The simulation engine, however, handles arbitrary guest
//! dependency structures given any complete assignment; what matters for
//! performance is *locality*: how many tree edges cross processor
//! boundaries, weighted by host delays. This module provides two
//! placements —
//!
//! * [`dfs_blocks`]: contiguous blocks of the DFS (pre-order) traversal,
//!   which keeps subtrees together (few crossing edges, the classical
//!   graph-partition heuristic for trees);
//! * [`bfs_blocks`]: contiguous blocks of the BFS (level) order, which
//!   scatters subtrees (many crossing edges) — the locality ablation.
//!
//! The builder places a tree guest with [`dfs_blocks`] under
//! `Strategy::Auto` and [`bfs_blocks`] under `Strategy::Blocked`, one block
//! per position of the host's embedded line order
//! ([`plan_placement`](crate::pipeline::plan_placement)). Experiment E15
//! measures both on NOW hosts.

/// Pre-order DFS traversal of the heap-ordered complete binary tree.
pub fn dfs_order(levels: u32) -> Vec<u32> {
    let n = (1u32 << levels) - 1;
    let mut out = Vec::with_capacity(n as usize);
    let mut stack = vec![0u32];
    while let Some(c) = stack.pop() {
        out.push(c);
        let (l, r) = (2 * c + 1, 2 * c + 2);
        // push right first so left is visited first
        if r < n {
            stack.push(r);
        }
        if l < n {
            stack.push(l);
        }
    }
    out
}

/// Partition an ordering into `parts` contiguous blocks.
fn blocks_of(order: &[u32], parts: u32) -> Vec<Vec<u32>> {
    let n = order.len() as u64;
    (0..parts as u64)
        .map(|p| {
            let lo = (p * n / parts as u64) as usize;
            let hi = ((p + 1) * n / parts as u64) as usize;
            let mut b = order[lo..hi].to_vec();
            b.sort_unstable();
            b
        })
        .collect()
}

/// Subtree-preserving placement: DFS-contiguous blocks, one per processor.
pub fn dfs_blocks(levels: u32, parts: u32) -> Vec<Vec<u32>> {
    blocks_of(&dfs_order(levels), parts)
}

/// Locality-hostile placement: BFS(heap)-contiguous blocks.
pub fn bfs_blocks(levels: u32, parts: u32) -> Vec<Vec<u32>> {
    let n = (1u32 << levels) - 1;
    let order: Vec<u32> = (0..n).collect();
    blocks_of(&order, parts)
}

/// Count tree edges whose endpoints land on different blocks — the
/// communication demand of a placement.
pub fn crossing_edges(levels: u32, cells_of: &[Vec<u32>]) -> usize {
    let n = (1u32 << levels) - 1;
    let mut owner = vec![u32::MAX; n as usize];
    for (p, cells) in cells_of.iter().enumerate() {
        for &c in cells {
            owner[c as usize] = p as u32;
        }
    }
    (1..n)
        .filter(|&c| owner[c as usize] != owner[((c - 1) / 2) as usize])
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{SimReport, Strategy};
    use crate::Simulation;
    use overlap_model::{GuestSpec, ProgramKind, ReferenceRun, ReferenceTrace};
    use overlap_net::topology::{linear_array, mesh2d};
    use overlap_net::{DelayModel, HostGraph};

    /// A tree guest through the builder: subtree blocks when `locality`,
    /// heap-order blocks otherwise.
    fn simulate(
        guest: &GuestSpec,
        host: &HostGraph,
        locality: bool,
        trace: &ReferenceTrace,
    ) -> SimReport {
        Simulation::of(guest)
            .on(host)
            .strategy(if locality {
                Strategy::Auto
            } else {
                Strategy::Blocked
            })
            .build()
            .and_then(|sim| sim.run_with_trace(trace))
            .unwrap_or_else(|e| panic!("{}: {e}", host.name()))
    }

    #[test]
    fn dfs_order_is_a_preorder_permutation() {
        let o = dfs_order(4);
        assert_eq!(o.len(), 15);
        let mut sorted = o.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..15).collect::<Vec<_>>());
        // Pre-order starts at the root and goes left first.
        assert_eq!(&o[..4], &[0, 1, 3, 7]);
    }

    #[test]
    fn dfs_blocks_cross_fewer_edges_than_bfs_blocks() {
        let levels = 8; // 255 cells
        let parts = 8;
        let dfs = dfs_blocks(levels, parts);
        let bfs = bfs_blocks(levels, parts);
        let cd = crossing_edges(levels, &dfs);
        let cb = crossing_edges(levels, &bfs);
        assert!(cd < cb / 2, "dfs {cd} vs bfs {cb} crossing edges");
    }

    #[test]
    fn tree_guest_validates_on_line_and_mesh_hosts() {
        let guest = GuestSpec::tree(5, ProgramKind::KvWorkload, 3, 10);
        let trace = ReferenceRun::execute(&guest);
        for host in [
            linear_array(6, DelayModel::uniform(1, 8), 2),
            mesh2d(3, 2, DelayModel::uniform(1, 8), 2),
        ] {
            for locality in [true, false] {
                let r = simulate(&guest, &host, locality, &trace);
                assert!(r.validated, "{} locality={locality}", host.name());
            }
        }
    }

    #[test]
    fn locality_reduces_traffic() {
        let guest = GuestSpec::tree(8, ProgramKind::Relaxation, 5, 12);
        let host = linear_array(8, DelayModel::constant(8), 0);
        let trace = ReferenceRun::execute(&guest);
        let dfs = simulate(&guest, &host, true, &trace);
        let bfs = simulate(&guest, &host, false, &trace);
        assert!(dfs.validated && bfs.validated);
        assert!(
            dfs.stats.messages < bfs.stats.messages,
            "dfs {} vs bfs {} messages",
            dfs.stats.messages,
            bfs.stats.messages
        );
    }
}
