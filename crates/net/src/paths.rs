//! Delay-weighted shortest paths (Dijkstra).
//!
//! Used for routing pebble messages in the simulator and for the
//! lower-bound delay certificates (Fact 4, Theorem 9/10 arguments).

use crate::graph::{Delay, HostGraph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Single-source shortest path result.
#[derive(Debug, Clone)]
pub struct PathResult {
    /// Source node.
    pub src: NodeId,
    /// `dist[v]` = minimum total delay from `src` to `v` (`Delay::MAX` if
    /// unreachable).
    pub dist: Vec<Delay>,
    /// `parent[v]` = predecessor of `v` on a shortest path (`u32::MAX` for
    /// the source and unreachable nodes).
    pub parent: Vec<NodeId>,
}

impl PathResult {
    /// Reconstruct the node path `src → dst` (inclusive). `None` if
    /// unreachable.
    pub fn path_to(&self, dst: NodeId) -> Option<Vec<NodeId>> {
        if self.dist[dst as usize] == Delay::MAX {
            return None;
        }
        let mut path = vec![dst];
        let mut v = dst;
        while v != self.src {
            v = self.parent[v as usize];
            path.push(v);
        }
        path.reverse();
        Some(path)
    }
}

/// A reusable single-source Dijkstra workspace that settles one node per
/// [`settle_next`](Self::settle_next) call, so a caller can stop as soon as
/// the nodes it cares about are settled.
///
/// Delays are ≥ 1 and heap keys are `(dist, id)`, so nodes settle in
/// increasing `(dist, id)` order, and a settled node's `dist` and `parent`
/// never change afterwards. A search stopped early therefore reports, for
/// every settled node, exactly what a full [`dijkstra`] from the same source
/// does. [`start`](Self::start) resets only the entries the previous search
/// touched, so many short searches cost what they visit, not `n` each.
#[derive(Debug)]
pub struct Search<'g> {
    g: &'g HostGraph,
    paths: PathResult,
    heap: BinaryHeap<Reverse<(Delay, NodeId)>>,
    touched: Vec<NodeId>,
}

impl<'g> Search<'g> {
    /// An idle workspace sized for `g`; call [`start`](Self::start) next.
    pub fn new(g: &'g HostGraph) -> Self {
        let n = g.num_nodes() as usize;
        Self {
            g,
            paths: PathResult {
                src: 0,
                dist: vec![Delay::MAX; n],
                parent: vec![u32::MAX; n],
            },
            heap: BinaryHeap::new(),
            touched: Vec::new(),
        }
    }

    /// Begin a new search from `src`, discarding the previous one.
    pub fn start(&mut self, src: NodeId) {
        for &v in &self.touched {
            self.paths.dist[v as usize] = Delay::MAX;
            self.paths.parent[v as usize] = u32::MAX;
        }
        self.touched.clear();
        self.heap.clear();
        self.paths.src = src;
        self.paths.dist[src as usize] = 0;
        self.touched.push(src);
        self.heap.push(Reverse((0, src)));
    }

    /// Settle the next-closest node (ties by id) and relax its links.
    /// `None` once every node reachable from the source is settled.
    pub fn settle_next(&mut self) -> Option<NodeId> {
        let PathResult { dist, parent, .. } = &mut self.paths;
        while let Some(Reverse((d, v))) = self.heap.pop() {
            if d > dist[v as usize] {
                continue;
            }
            for &(w, delay) in self.g.neighbours(v) {
                let nd = d + delay;
                if nd < dist[w as usize] {
                    if dist[w as usize] == Delay::MAX {
                        self.touched.push(w);
                    }
                    dist[w as usize] = nd;
                    parent[w as usize] = v;
                    self.heap.push(Reverse((nd, w)));
                }
            }
            return Some(v);
        }
        None
    }

    /// Distances and parents so far: final for every settled node (and so
    /// for every node on a settled node's `path_to`), tentative or
    /// `Delay::MAX` for the rest.
    pub fn paths(&self) -> &PathResult {
        &self.paths
    }
}

/// Dijkstra from `src` over link delays.
pub fn dijkstra(g: &HostGraph, src: NodeId) -> PathResult {
    let mut search = Search::new(g);
    search.start(src);
    while search.settle_next().is_some() {}
    search.paths
}

/// Shortest delay and path between two nodes. `None` if unreachable.
pub fn shortest_path(g: &HostGraph, a: NodeId, b: NodeId) -> Option<(Delay, Vec<NodeId>)> {
    let r = dijkstra(g, a);
    r.path_to(b).map(|p| (r.dist[b as usize], p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delays::DelayModel;
    use crate::topology::{linear_array, mesh2d};

    #[test]
    fn line_distances_accumulate() {
        let g = linear_array(5, DelayModel::constant(3), 0);
        let r = dijkstra(&g, 0);
        assert_eq!(r.dist, vec![0, 3, 6, 9, 12]);
        assert_eq!(r.path_to(4), Some(vec![0, 1, 2, 3, 4]));
    }

    #[test]
    fn dijkstra_prefers_low_delay_routes() {
        // 0-1 (10), 1-2 (10), 0-2 (25): direct edge loses.
        let mut g = HostGraph::new("g", 3);
        g.add_link(0, 1, 10);
        g.add_link(1, 2, 10);
        g.add_link(0, 2, 25);
        let r = dijkstra(&g, 0);
        assert_eq!(r.dist[2], 20);
        assert_eq!(r.path_to(2), Some(vec![0, 1, 2]));
    }

    #[test]
    fn unreachable_nodes_are_reported() {
        let mut g = HostGraph::new("g", 3);
        g.add_link(0, 1, 1);
        let r = dijkstra(&g, 0);
        assert_eq!(r.dist[2], Delay::MAX);
        assert_eq!(r.path_to(2), None);
    }

    #[test]
    fn mesh_shortest_path_is_manhattan_with_unit_delays() {
        let g = mesh2d(5, 5, DelayModel::constant(1), 0);
        let (d, p) = shortest_path(&g, 0, 24).unwrap();
        assert_eq!(d, 8);
        assert_eq!(p.len(), 9);
        assert_eq!(p[0], 0);
        assert_eq!(*p.last().unwrap(), 24);
    }

    #[test]
    fn stopped_search_agrees_with_full_dijkstra_on_settled_nodes() {
        let g = mesh2d(6, 5, DelayModel::uniform(1, 9), 4);
        let mut search = Search::new(&g);
        for src in [0, 17, 29, 3] {
            let full = dijkstra(&g, src);
            search.start(src);
            let mut settled = Vec::new();
            while settled.len() < 12 {
                settled.push(search.settle_next().unwrap());
            }
            let order: Vec<_> = settled
                .iter()
                .map(|&v| (full.dist[v as usize], v))
                .collect();
            assert!(
                order.windows(2).all(|w| w[0] < w[1]),
                "not (dist, id) order"
            );
            for &v in &settled {
                assert_eq!(search.paths().dist[v as usize], full.dist[v as usize]);
                assert_eq!(search.paths().path_to(v), full.path_to(v));
            }
        }
        // Run to exhaustion after reuse: a full search again.
        search.start(8);
        while search.settle_next().is_some() {}
        let full = dijkstra(&g, 8);
        assert_eq!(search.paths().dist, full.dist);
        assert_eq!(search.paths().parent, full.parent);
    }

    #[test]
    fn path_to_self_is_singleton() {
        let g = linear_array(3, DelayModel::constant(1), 0);
        let r = dijkstra(&g, 1);
        assert_eq!(r.path_to(1), Some(vec![1]));
        assert_eq!(r.dist[1], 0);
    }
}
