//! Spanning trees of host networks.
//!
//! The dilation-3 linear-array embedding (Fact 3) operates on a spanning
//! tree: a BFS tree, which keeps hop-depth low.

use crate::graph::{HostGraph, NodeId};
use std::collections::VecDeque;

/// A rooted spanning tree of a host graph.
#[derive(Debug, Clone)]
pub struct SpanningTree {
    /// Root node.
    pub root: NodeId,
    /// `parent[v]` (`u32::MAX` for the root).
    pub parent: Vec<NodeId>,
    /// Tree adjacency (children and parent merged; undirected view).
    pub adj: Vec<Vec<NodeId>>,
}

impl SpanningTree {
    fn from_parents(root: NodeId, parent: Vec<NodeId>) -> Self {
        let n = parent.len();
        let mut adj = vec![Vec::new(); n];
        for (v, &p) in parent.iter().enumerate() {
            if p != u32::MAX {
                adj[v].push(p);
                adj[p as usize].push(v as NodeId);
            }
        }
        Self { root, parent, adj }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
    }

    /// Number of tree edges (n − 1 for a connected graph).
    pub fn num_edges(&self) -> usize {
        self.parent.iter().filter(|&&p| p != u32::MAX).count()
    }

    /// Hop distance between two nodes *within the tree* (BFS on tree
    /// adjacency). Used to verify embedding dilation.
    pub fn tree_distance(&self, a: NodeId, b: NodeId) -> u32 {
        if a == b {
            return 0;
        }
        let mut dist = vec![u32::MAX; self.num_nodes()];
        let mut q = VecDeque::new();
        dist[a as usize] = 0;
        q.push_back(a);
        while let Some(v) = q.pop_front() {
            if v == b {
                return dist[v as usize];
            }
            for &w in &self.adj[v as usize] {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = dist[v as usize] + 1;
                    q.push_back(w);
                }
            }
        }
        u32::MAX
    }

    /// The unique tree path between two nodes (inclusive).
    pub fn tree_path(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        // Walk both nodes to the root, then splice at the meeting point.
        let up = |mut v: NodeId| -> Vec<NodeId> {
            let mut path = vec![v];
            while self.parent[v as usize] != u32::MAX {
                v = self.parent[v as usize];
                path.push(v);
            }
            path
        };
        let pa = up(a);
        let pb = up(b);
        // Find lowest common ancestor by comparing reversed root paths.
        let mut i = pa.len();
        let mut j = pb.len();
        while i > 0 && j > 0 && pa[i - 1] == pb[j - 1] {
            i -= 1;
            j -= 1;
        }
        // pa[..=i] runs from a down to the LCA; pb[..j] from b to just below
        // the LCA.
        let mut path: Vec<NodeId> = pa[..=i].to_vec();
        let mut tail: Vec<NodeId> = pb[..j].to_vec();
        tail.reverse();
        path.extend(tail);
        path
    }
}

/// Breadth-first spanning tree rooted at `root` (minimizes hop depth).
///
/// # Panics
/// If the graph is disconnected.
pub fn bfs_tree(g: &HostGraph, root: NodeId) -> SpanningTree {
    let n = g.num_nodes() as usize;
    let mut parent = vec![u32::MAX; n];
    let mut seen = vec![false; n];
    let mut q = VecDeque::new();
    seen[root as usize] = true;
    q.push_back(root);
    let mut count = 1;
    while let Some(v) = q.pop_front() {
        for &(w, _) in g.neighbours(v) {
            if !seen[w as usize] {
                seen[w as usize] = true;
                parent[w as usize] = v;
                count += 1;
                q.push_back(w);
            }
        }
    }
    assert_eq!(count, n, "graph is disconnected");
    SpanningTree::from_parents(root, parent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delays::DelayModel;
    use crate::topology::{linear_array, mesh2d, ring};

    #[test]
    fn bfs_tree_of_line_is_the_line() {
        let g = linear_array(5, DelayModel::constant(1), 0);
        let t = bfs_tree(&g, 0);
        assert_eq!(t.num_edges(), 4);
        assert_eq!(t.parent[3], 2);
        assert_eq!(t.tree_distance(0, 4), 4);
    }

    #[test]
    fn bfs_tree_of_ring_cuts_one_edge() {
        let g = ring(6, DelayModel::constant(1), 0);
        let t = bfs_tree(&g, 0);
        assert_eq!(t.num_edges(), 5);
    }

    #[test]
    fn tree_path_goes_through_lca() {
        let g = mesh2d(3, 3, DelayModel::constant(1), 0);
        let t = bfs_tree(&g, 0);
        let p = t.tree_path(2, 6);
        assert_eq!(p.first(), Some(&2));
        assert_eq!(p.last(), Some(&6));
        // consecutive nodes are tree edges
        for w in p.windows(2) {
            assert!(
                t.adj[w[0] as usize].contains(&w[1]),
                "{}-{} not a tree edge",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn tree_path_between_node_and_itself() {
        let g = linear_array(4, DelayModel::constant(1), 0);
        let t = bfs_tree(&g, 0);
        assert_eq!(t.tree_path(2, 2), vec![2]);
    }

    #[test]
    fn tree_path_ancestor_descendant() {
        let g = linear_array(5, DelayModel::constant(1), 0);
        let t = bfs_tree(&g, 0);
        assert_eq!(t.tree_path(1, 4), vec![1, 2, 3, 4]);
        assert_eq!(t.tree_path(4, 1), vec![4, 3, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn bfs_tree_panics_on_disconnected() {
        let mut g = HostGraph::new("g", 3);
        g.add_link(0, 1, 1);
        bfs_tree(&g, 0);
    }

    #[test]
    fn tree_distance_symmetry() {
        let g = mesh2d(4, 4, DelayModel::constant(1), 0);
        let t = bfs_tree(&g, 5);
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(t.tree_distance(a, b), t.tree_distance(b, a));
            }
        }
    }
}
