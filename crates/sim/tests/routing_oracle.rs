//! Differential test of nearest-holder routing.
//!
//! `RoutingTable::build_with` and `MulticastTable::build_with` stop each
//! shortest-path search as soon as the nodes they need are settled. The
//! oracle below is the straightforward builder they must agree with: one
//! *full* Dijkstra per consumer (and per multicast source), the nearest
//! holder picked by `min_by_key((dist, id))`, with its own copy of a plain
//! Dijkstra so it shares no search code with the builders. Both are run on
//! random hosts, placements and guests, and compared field by field.

use overlap_core::pipeline::plan_placement;
use overlap_core::Strategy;
use overlap_model::{GuestSpec, ProgramKind, TaskGraph};
use overlap_net::paths::PathResult;
use overlap_net::topology::{
    binary_tree, hypercube, linear_array, mesh2d, random_regular, ring, torus2d,
};
use overlap_net::{DelayModel, HostGraph, NodeId};
use overlap_sim::multicast::{MulticastTable, MulticastTree};
use overlap_sim::routing::Subscription;
use overlap_sim::{Assignment, RoutingTable};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

/// Plain full single-source Dijkstra over link delays.
fn dijkstra(g: &HostGraph, src: NodeId) -> PathResult {
    let n = g.num_nodes() as usize;
    let mut dist = vec![u64::MAX; n];
    let mut parent = vec![u32::MAX; n];
    let mut heap = BinaryHeap::new();
    dist[src as usize] = 0;
    heap.push(Reverse((0u64, src)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for &(w, delay) in g.neighbours(v) {
            let nd = d + delay;
            if nd < dist[w as usize] {
                dist[w as usize] = nd;
                parent[w as usize] = v;
                heap.push(Reverse((nd, w)));
            }
        }
    }
    PathResult { src, dist, parent }
}

/// Unicast routes as the full-search builder computes them:
/// `(subs, outbound, inbound)`.
type Unicast = (Vec<Subscription>, Vec<Vec<u32>>, Vec<Vec<(u32, u32)>>);

fn oracle_unicast(
    host: &HostGraph,
    assign: &Assignment,
    deps: &dyn Fn(u32) -> Vec<u32>,
) -> Unicast {
    let n = host.num_nodes();
    let mut subs: Vec<Subscription> = Vec::new();
    let mut outbound = vec![Vec::new(); n as usize];
    let mut inbound = vec![Vec::new(); n as usize];
    for p in 0..n {
        let own: BTreeSet<u32> = assign.cells_of(p).iter().copied().collect();
        let dep_cells: BTreeSet<u32> = own
            .iter()
            .flat_map(|&c| deps(c))
            .filter(|c| !own.contains(c))
            .collect();
        if dep_cells.is_empty() {
            continue;
        }
        let sp = dijkstra(host, p);
        for c in dep_cells {
            let &best = assign
                .holders(c)
                .iter()
                .min_by_key(|&&q| (sp.dist[q as usize], q))
                .expect("holder");
            let mut path = sp.path_to(best).expect("reachable");
            path.reverse();
            let id = subs.len() as u32;
            subs.push(Subscription {
                cell: c,
                source: best,
                dest: p,
                path,
                delay: sp.dist[best as usize],
            });
            outbound[best as usize].push(id);
            inbound[p as usize].push((c, id));
        }
    }
    (subs, outbound, inbound)
}

/// Multicast trees as the full-search builder computes them:
/// `(trees, outbound, inbound)`.
type Multicast = (Vec<MulticastTree>, Vec<Vec<u32>>, Vec<Vec<(u32, u32)>>);

fn oracle_multicast(
    host: &HostGraph,
    assign: &Assignment,
    deps: &dyn Fn(u32) -> Vec<u32>,
) -> Multicast {
    let (subs, _, _) = oracle_unicast(host, assign, deps);
    let n = host.num_nodes() as usize;
    let mut groups: HashMap<(NodeId, u32), Vec<NodeId>> = HashMap::new();
    for sub in &subs {
        groups
            .entry((sub.source, sub.cell))
            .or_default()
            .push(sub.dest);
    }
    let mut keys: Vec<(NodeId, u32)> = groups.keys().copied().collect();
    keys.sort_unstable();
    let mut trees = Vec::new();
    let mut outbound = vec![Vec::new(); n];
    let mut inbound = vec![Vec::new(); n];
    for (source, cell) in keys {
        let dests = &groups[&(source, cell)];
        let sp = dijkstra(host, source);
        let mut index_of: HashMap<NodeId, u32> = HashMap::new();
        let mut nodes: Vec<NodeId> = Vec::new();
        let mut parent_of: HashMap<NodeId, NodeId> = HashMap::new();
        let mut add = |v: NodeId, nodes: &mut Vec<NodeId>| {
            index_of.entry(v).or_insert_with(|| {
                nodes.push(v);
                nodes.len() as u32 - 1
            });
        };
        add(source, &mut nodes);
        for &d in dests {
            let path = sp.path_to(d).expect("subscriber reachable");
            for w in path.windows(2) {
                add(w[0], &mut nodes);
                add(w[1], &mut nodes);
                parent_of.entry(w[1]).or_insert(w[0]);
            }
        }
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); nodes.len()];
        let mut parent: Vec<u32> = vec![u32::MAX; nodes.len()];
        for (&ch, &pa) in &parent_of {
            children[index_of[&pa] as usize].push(index_of[&ch]);
            parent[index_of[&ch] as usize] = index_of[&pa];
        }
        for ch in &mut children {
            ch.sort_unstable();
        }
        let tid = trees.len() as u32;
        for &d in dests {
            inbound[d as usize].push((cell, tid));
        }
        outbound[source as usize].push(tid);
        trees.push(MulticastTree {
            cell,
            source,
            root: index_of[&source],
            deliver: nodes.iter().map(|v| dests.contains(v)).collect(),
            nodes,
            children,
            parent,
            index_of,
        });
    }
    for inb in &mut inbound {
        inb.sort_unstable();
    }
    (trees, outbound, inbound)
}

fn check(
    case: &str,
    host: &HostGraph,
    assign: &Assignment,
    deps: &dyn Fn(u32) -> Vec<u32>,
) -> usize {
    let rt = RoutingTable::build_with(host, assign, deps);
    let (subs, outbound, inbound) = oracle_unicast(host, assign, deps);
    assert_eq!(rt.subs.len(), subs.len(), "{case}: subscription count");
    for (id, (got, want)) in rt.subs.iter().zip(&subs).enumerate() {
        assert_eq!(got.cell, want.cell, "{case}: sub {id} cell");
        assert_eq!(got.source, want.source, "{case}: sub {id} source");
        assert_eq!(got.dest, want.dest, "{case}: sub {id} dest");
        assert_eq!(got.path, want.path, "{case}: sub {id} path");
        assert_eq!(got.delay, want.delay, "{case}: sub {id} delay");
    }
    assert_eq!(rt.outbound, outbound, "{case}: unicast outbound");
    assert_eq!(rt.inbound, inbound, "{case}: unicast inbound");

    let mt = MulticastTable::build_with(host, assign, deps);
    let (trees, outbound, inbound) = oracle_multicast(host, assign, deps);
    assert_eq!(mt.trees.len(), trees.len(), "{case}: tree count");
    for (tid, (got, want)) in mt.trees.iter().zip(&trees).enumerate() {
        assert_eq!(got.cell, want.cell, "{case}: tree {tid} cell");
        assert_eq!(got.source, want.source, "{case}: tree {tid} source");
        assert_eq!(got.nodes, want.nodes, "{case}: tree {tid} nodes");
        assert_eq!(got.children, want.children, "{case}: tree {tid} children");
        assert_eq!(got.parent, want.parent, "{case}: tree {tid} parent");
        assert_eq!(got.root, want.root, "{case}: tree {tid} root");
        assert_eq!(got.deliver, want.deliver, "{case}: tree {tid} deliver");
        assert_eq!(got.index_of, want.index_of, "{case}: tree {tid} index_of");
    }
    assert_eq!(mt.outbound, outbound, "{case}: multicast outbound");
    assert_eq!(mt.inbound, inbound, "{case}: multicast inbound");
    subs.len()
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every host family, with random (few ties) or constant (tie-heavy)
/// delays.
fn hosts(seed: u64) -> Vec<HostGraph> {
    let mut out = Vec::new();
    for delays in [
        DelayModel::uniform(1, 9),
        DelayModel::constant(1),
        DelayModel::constant(3),
    ] {
        out.push(mesh2d(6, 5, delays, seed));
        out.push(torus2d(5, 5, delays, seed));
        out.push(random_regular(24, 3, delays, seed));
        out.push(hypercube(5, delays, seed));
        out.push(binary_tree(5, delays, seed));
        out.push(linear_array(16, delays, seed));
        out.push(ring(20, delays, seed));
    }
    out
}

/// Line, ring and non-uniform DAG guests sized relative to the host.
fn guests(n: u32, seed: u64) -> Vec<GuestSpec> {
    vec![
        GuestSpec::array(2 * n, ProgramKind::KvWorkload, seed, 4),
        GuestSpec::ring(3 * n + 1, ProgramKind::KvWorkload, seed, 4),
        GuestSpec::dag(
            TaskGraph::layered_random(n + n / 2, 6, 2, 3, seed),
            ProgramKind::KvWorkload,
            seed,
        ),
    ]
}

/// Each cell on 1–3 random processors, about a third of the processors
/// holding nothing: many equal-distance holders, many consumers without
/// dependency columns.
fn random_redundant(n: u32, cells: u32, rng: &mut u64) -> Assignment {
    let mut cells_of = vec![Vec::new(); n as usize];
    let live: Vec<u32> = (0..n)
        .filter(|_| !splitmix(rng).is_multiple_of(3))
        .collect();
    let live = if live.is_empty() { vec![0] } else { live };
    for c in 0..cells {
        for _ in 0..1 + splitmix(rng) % 3 {
            let p = live[(splitmix(rng) % live.len() as u64) as usize];
            if !cells_of[p as usize].contains(&c) {
                cells_of[p as usize].push(c);
            }
        }
    }
    Assignment::from_cells_of(n, cells, cells_of)
}

#[test]
fn early_exit_routing_matches_full_search_oracle() {
    let strategies = [
        Strategy::Blocked,
        Strategy::Auto,
        Strategy::Overlap { c: 4.0 },
        Strategy::Combined {
            c: 4.0,
            expansion: 2,
        },
    ];
    let mut cases = 0;
    let mut routes = 0;
    let mut rng = 0x5EED;
    for seed in [1, 7] {
        for host in hosts(seed) {
            let n = host.num_nodes();
            for guest in guests(n, seed) {
                let deps = |c: u32| guest.dep_union(c);
                for strategy in strategies {
                    let assign = plan_placement(&guest, &host, strategy)
                        .unwrap_or_else(|e| panic!("{} {strategy:?}: {e}", host.name()))
                        .assignment;
                    let case = format!(
                        "{} seed {seed} {:?} {strategy:?}",
                        host.name(),
                        guest.topology
                    );
                    routes += check(&case, &host, &assign, &deps);
                    cases += 1;
                }
                let assign = random_redundant(n, guest.num_cells(), &mut rng);
                let case = format!("{} seed {seed} {:?} random", host.name(), guest.topology);
                routes += check(&case, &host, &assign, &deps);
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 2 * 21 * 3 * 5);
    assert!(routes > 10 * cases, "too few routes to be a test: {routes}");
}

#[test]
fn processors_without_dependency_columns_get_no_routes() {
    // Everything on processor 3, and a blocked layout with more
    // processors than cells: idle and self-sufficient consumers alike.
    let host = mesh2d(4, 4, DelayModel::constant(2), 0);
    let guest = GuestSpec::array(8, ProgramKind::KvWorkload, 0, 4);
    let deps = |c: u32| guest.dep_union(c);
    let mut all = vec![Vec::new(); 16];
    all[3] = (0..8).collect();
    let one = Assignment::from_cells_of(16, 8, all);
    assert_eq!(check("all on one", &host, &one, &deps), 0);
    let sparse = Assignment::blocked(16, 8);
    assert_eq!(check("blocked, idle procs", &host, &sparse, &deps), 14);
}
