//! Static subscription routing.
//!
//! For every (consumer processor, non-held dependency column) pair, the
//! consumer subscribes to the *nearest holder* of that column (minimum
//! shortest-path delay, ties broken by processor id), and all pebbles of
//! that column travel a fixed shortest-delay route. Intermediate processors
//! forward; every link traversal is charged against the link's bandwidth.
//!
//! This mirrors the paper's simulations, where interval endpoints exchange
//! boundary columns with the nearest processors of the adjacent interval
//! (§3.2), generalized to arbitrary hosts.
//!
//! The table is built with one early-exit search per consumer: a shortest-
//! path search from the consumer that stops once every one of its
//! dependency columns has had a holder settled (DESIGN.md §11.1). The result
//! equals what full per-consumer Dijkstra searches would choose.

use crate::assignment::Assignment;
use overlap_model::GuestTopology;
use overlap_net::{HostGraph, NodeId, Search};
use std::collections::BTreeSet;

/// One column subscription: `source` computes column `cell` and streams its
/// pebbles to `dest` along `path` (inclusive of both endpoints).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subscription {
    /// The guest column being streamed.
    pub cell: u32,
    /// The holder that computes and sends.
    pub source: NodeId,
    /// The consumer.
    pub dest: NodeId,
    /// Route `source → dest` (node ids, length ≥ 2).
    pub path: Vec<NodeId>,
    /// Total delay of the route.
    pub delay: u64,
}

/// All subscriptions for one (host, assignment, guest-topology) triple.
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    /// All subscriptions, indexed by id.
    pub subs: Vec<Subscription>,
    /// For each processor, the ids of subscriptions it *sends* (it is the
    /// source), grouped for fast fan-out at compute time.
    pub outbound: Vec<Vec<u32>>,
    /// For each processor, `outbound` grouped by source column: sorted
    /// `(cell, sub ids)` pairs, sub ids in `outbound` order. Lets the
    /// engine fan out a completed pebble without scanning every
    /// subscription of the processor.
    pub outbound_by_cell: Vec<Vec<(u32, Vec<u32>)>>,
    /// For each processor, `(cell, sub_id)` pairs it *receives*.
    pub inbound: Vec<Vec<(u32, u32)>>,
}

impl RoutingTable {
    /// Build the routing table. For each processor `p`, the *dependency
    /// columns* are the guest-neighbours of its held cells that it does not
    /// hold itself; each is served by the nearest holder.
    ///
    /// # Panics
    /// If some dependency column has no holder anywhere (incomplete
    /// assignment) or the host is disconnected between a consumer and every
    /// holder of one of its columns.
    pub fn build(host: &HostGraph, topo: &GuestTopology, assign: &Assignment) -> Self {
        Self::build_with(host, assign, |c| topo.neighbours(c))
    }

    /// Build the routing table from an arbitrary per-cell dependency
    /// closure: `dep_cells_of(c)` lists the distinct cells whose pebbles
    /// `c` ever reads (excluding `c`). This is what task-graph guests use
    /// (their dependency sets vary per layer; routing subscribes to the
    /// union); [`RoutingTable::build`] is the static-topology wrapper.
    pub fn build_with(
        host: &HostGraph,
        assign: &Assignment,
        dep_cells_of: impl Fn(u32) -> Vec<u32>,
    ) -> Self {
        let n = host.num_nodes();
        assert_eq!(n, assign.num_procs(), "host/assignment size mismatch");
        let mut subs: Vec<Subscription> = Vec::new();
        let mut outbound = vec![Vec::new(); n as usize];
        let mut inbound = vec![Vec::new(); n as usize];
        let mut search = Search::new(host);
        // Per consumer: `(holder, dep index)` pairs sorted by holder, and the
        // chosen holder of each dependency column (`u32::MAX` = open).
        let mut wanted: Vec<(NodeId, u32)> = Vec::new();
        let mut best: Vec<NodeId> = Vec::new();

        for p in 0..n {
            let own = assign.cells_of(p);
            if own.is_empty() {
                continue;
            }
            // Dependency columns: guest neighbours of held cells, minus held.
            let own_set: BTreeSet<u32> = own.iter().copied().collect();
            let mut dep_cells: BTreeSet<u32> = BTreeSet::new();
            for &c in own {
                for nb in dep_cells_of(c) {
                    if !own_set.contains(&nb) {
                        dep_cells.insert(nb);
                    }
                }
            }
            if dep_cells.is_empty() {
                continue;
            }
            wanted.clear();
            for (k, &c) in dep_cells.iter().enumerate() {
                let holders = assign.holders(c);
                assert!(
                    !holders.is_empty(),
                    "column {c} needed by processor {p} has no holder"
                );
                wanted.extend(holders.iter().map(|&q| (q, k as u32)));
            }
            wanted.sort_unstable();
            best.clear();
            best.resize(dep_cells.len(), u32::MAX);
            // One early-exit search from the consumer serves all its columns
            // (undirected graph: dist symmetric, reversed path valid). Nodes
            // settle in `(dist, id)` order, so the first settled holder of a
            // column is its nearest, lowest-id one; stop once all are found.
            let mut open = dep_cells.len();
            search.start(p);
            while open > 0 {
                let Some(v) = search.settle_next() else { break };
                let from = wanted.partition_point(|&(q, _)| q < v);
                for &(_, k) in wanted[from..].iter().take_while(|&&(q, _)| q == v) {
                    if best[k as usize] == u32::MAX {
                        best[k as usize] = v;
                        open -= 1;
                    }
                }
            }
            let sp = search.paths();
            for (&c, &source) in dep_cells.iter().zip(&best) {
                assert!(
                    source != u32::MAX,
                    "no route from processor {p} to any holder of column {c}"
                );
                let mut path = sp.path_to(source).expect("settled");
                path.reverse(); // source → dest
                let id = subs.len() as u32;
                subs.push(Subscription {
                    cell: c,
                    source,
                    dest: p,
                    path,
                    delay: sp.dist[source as usize],
                });
                outbound[source as usize].push(id);
                inbound[p as usize].push((c, id));
            }
        }
        let outbound_by_cell = group_by_cell(&outbound, |sid| subs[sid as usize].cell);
        Self {
            subs,
            outbound,
            outbound_by_cell,
            inbound,
        }
    }

    /// Total number of subscriptions.
    pub fn num_subscriptions(&self) -> usize {
        self.subs.len()
    }

    /// Heap bytes the table holds: subscriptions with their paths, and the
    /// outbound, by-cell and inbound indexes.
    pub(crate) fn heap_bytes(&self) -> usize {
        use crate::{nested_bytes, vec_bytes};
        vec_bytes(&self.subs)
            + self.subs.iter().map(|s| vec_bytes(&s.path)).sum::<usize>()
            + nested_bytes(&self.outbound)
            + by_cell_bytes(&self.outbound_by_cell)
            + nested_bytes(&self.inbound)
    }
}

/// Heap bytes of an `outbound_by_cell` index (shared with the multicast
/// table, which has the same shape).
pub(crate) fn by_cell_bytes(by_cell: &Vec<Vec<(u32, Vec<u32>)>>) -> usize {
    use crate::vec_bytes;
    vec_bytes(by_cell)
        + by_cell
            .iter()
            .map(|cells| {
                vec_bytes(cells) + cells.iter().map(|(_, ids)| vec_bytes(ids)).sum::<usize>()
            })
            .sum::<usize>()
}

/// Group each processor's outbound route ids by source column: sorted
/// `(cell, ids)` association lists, ids kept in their original (increasing)
/// order within each cell — the order the engine's fan-out must preserve.
pub(crate) fn group_by_cell(
    outbound: &[Vec<u32>],
    cell_of: impl Fn(u32) -> u32,
) -> Vec<Vec<(u32, Vec<u32>)>> {
    outbound
        .iter()
        .map(|out| {
            let mut by_cell: Vec<(u32, Vec<u32>)> = Vec::new();
            for &id in out {
                let cell = cell_of(id);
                match by_cell.iter_mut().find(|(c, _)| *c == cell) {
                    Some((_, ids)) => ids.push(id),
                    None => by_cell.push((cell, vec![id])),
                }
            }
            by_cell.sort_by_key(|&(c, _)| c);
            by_cell
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlap_net::topology::linear_array;
    use overlap_net::DelayModel;

    fn line_host(n: u32, d: u64) -> HostGraph {
        linear_array(n, DelayModel::constant(d), 0)
    }

    #[test]
    fn blocked_line_subscribes_to_adjacent_blocks() {
        // 4 procs, 8 cells blocked: proc 1 holds {2,3}; needs 1 (proc 0)
        // and 4 (proc 2).
        let host = line_host(4, 5);
        let topo = GuestTopology::Line { m: 8 };
        let a = Assignment::blocked(4, 8);
        let rt = RoutingTable::build(&host, &topo, &a);
        let inb: Vec<_> = rt.inbound[1].iter().map(|&(c, _)| c).collect();
        assert_eq!(inb, vec![1, 4]);
        // Each sub route is the single host link, delay 5.
        for &(_, id) in &rt.inbound[1] {
            let s = &rt.subs[id as usize];
            assert_eq!(s.path.len(), 2);
            assert_eq!(s.delay, 5);
            assert_eq!(s.dest, 1);
        }
    }

    #[test]
    fn redundant_copies_remove_subscriptions() {
        // Proc 1 holds {2,3,4}: overlap means cell 4 is held both by 1 and 2;
        // proc 1 no longer subscribes to 4.
        let host = line_host(4, 5);
        let topo = GuestTopology::Line { m: 8 };
        let a = Assignment::from_cells_of(
            4,
            8,
            vec![vec![0, 1], vec![2, 3, 4], vec![4, 5], vec![6, 7]],
        );
        let rt = RoutingTable::build(&host, &topo, &a);
        let inb: Vec<_> = rt.inbound[1].iter().map(|&(c, _)| c).collect();
        assert_eq!(inb, vec![1, 5]);
    }

    #[test]
    fn nearest_holder_is_chosen() {
        // Cell 0 held by procs 0 and 3; consumer 1 holds cell 1 and must
        // pick proc 0 (distance 1 link vs 2).
        let host = line_host(4, 2);
        let topo = GuestTopology::Line { m: 2 };
        let a = Assignment::from_cells_of(4, 2, vec![vec![0], vec![1], vec![], vec![0]]);
        let rt = RoutingTable::build(&host, &topo, &a);
        let (_, id) = rt.inbound[1][0];
        assert_eq!(rt.subs[id as usize].source, 0);
    }

    #[test]
    fn self_sufficient_processor_has_no_inbound() {
        let host = line_host(2, 1);
        let topo = GuestTopology::Line { m: 4 };
        let a = Assignment::from_cells_of(2, 4, vec![vec![0, 1, 2, 3], vec![]]);
        let rt = RoutingTable::build(&host, &topo, &a);
        assert_eq!(rt.num_subscriptions(), 0);
        assert!(rt.inbound[0].is_empty());
    }

    #[test]
    fn ring_topology_wraps_subscriptions() {
        let host = line_host(2, 3);
        let topo = GuestTopology::Ring { m: 4 };
        let a = Assignment::blocked(2, 4); // proc0: {0,1}, proc1: {2,3}
        let rt = RoutingTable::build(&host, &topo, &a);
        // proc 0 needs cells 2 (right neighbour of 1) and 3 (left of 0).
        let inb: Vec<_> = rt.inbound[0].iter().map(|&(c, _)| c).collect();
        assert_eq!(inb, vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "no holder")]
    fn missing_holder_panics() {
        let host = line_host(2, 1);
        let topo = GuestTopology::Line { m: 3 };
        let a = Assignment::from_cells_of(2, 3, vec![vec![0], vec![2]]);
        RoutingTable::build(&host, &topo, &a);
    }

    #[test]
    fn outbound_by_cell_partitions_outbound() {
        let host = line_host(4, 2);
        let topo = GuestTopology::Line { m: 8 };
        let a = Assignment::from_cells_of(
            4,
            8,
            vec![vec![0, 1, 2], vec![2, 3, 4], vec![4, 5, 6], vec![6, 7]],
        );
        let rt = RoutingTable::build(&host, &topo, &a);
        for p in 0..4usize {
            // Same multiset of ids, grouped, cells sorted, ids in sid order.
            let mut flat: Vec<u32> = Vec::new();
            let mut last_cell = None;
            for (cell, ids) in &rt.outbound_by_cell[p] {
                assert!(last_cell < Some(*cell), "cells not strictly sorted");
                last_cell = Some(*cell);
                assert!(!ids.is_empty());
                for &id in ids {
                    assert_eq!(rt.subs[id as usize].cell, *cell);
                    flat.push(id);
                }
                assert!(ids.windows(2).all(|w| w[0] < w[1]));
            }
            let mut expect = rt.outbound[p].clone();
            flat.sort_unstable();
            expect.sort_unstable();
            assert_eq!(flat, expect, "proc {p} grouping lost or invented ids");
        }
    }

    #[test]
    fn routes_avoid_expensive_links() {
        // Host: 0-1 delay 100, 0-2 delay 1, 2-1 delay 1. Consumer 1 needs a
        // column held at 0: the route must go through 2.
        let mut host = HostGraph::new("tri", 3);
        host.add_link(0, 1, 100);
        host.add_link(0, 2, 1);
        host.add_link(2, 1, 1);
        let topo = GuestTopology::Line { m: 2 };
        let a = Assignment::from_cells_of(3, 2, vec![vec![0], vec![1], vec![]]);
        let rt = RoutingTable::build(&host, &topo, &a);
        let (_, id) = rt.inbound[1][0];
        let s = &rt.subs[id as usize];
        assert_eq!(s.path, vec![0, 2, 1]);
        assert_eq!(s.delay, 2);
    }
}
