//! The compiled execution plan: lower once, run anywhere.
//!
//! The paper's whole pipeline is *plan once, execute*: an assignment is
//! computed by the placement algorithms and then executed unchanged. The
//! simulator mirrors that split. [`ExecPlan::build`] lowers a
//! `(GuestSpec, HostGraph, Assignment, EngineConfig)` quadruple into the
//! interned, dense-index tables every executor needs:
//!
//! * **directed link ids** — forward `2i`, reverse `2i+1`, in
//!   `host.links()` order (jitter phases key on the id, so this order is
//!   part of the determinism contract the goldens pin);
//! * the **routing structure** — the unicast [`RoutingTable`] or the
//!   multicast fan-out trees, with per-copy outbound route lists in
//!   deterministic bandwidth-arbitration order;
//! * **per-processor tables** — held cells, subscribed dependency
//!   columns, CSR-flattened dependency-gather / readiness-check /
//!   dependent lists (`ProcTables`), and per-subscription link-id
//!   arrays.
//!
//! Both engines consume a `&ExecPlan` ([`Engine::from_plan`],
//! [`run_stepped`]) instead of re-lowering, and so does the lockstep
//! baseline ([`ExecPlan::lockstep_makespan`]), so a sweep can build the
//! plan once per `(host, strategy)` point and share it across repeats,
//! engines, and fault variants. The plan also carries the
//! run's compute costs and fault schedule, the only place they live.
//! [`ExecPlan::share`] hands out a view that borrows the lowering and
//! brings its own costs and faults, so runs of many variants share one
//! base read-only; [`ExecPlan::apply_delta`] edits a plan (or a view,
//! copying on write) without re-lowering.
//!
//! [`Engine::from_plan`]: crate::engine::Engine::from_plan
//! [`run_stepped`]: crate::stepped::run_stepped

use crate::assignment::Assignment;
use crate::engine::{EngineConfig, RunError};
use crate::faults::FaultPlan;
use crate::multicast::MulticastTable;
use crate::routing::RoutingTable;
use overlap_model::{Dep, GuestSpec, Side};
use overlap_net::{Delay, HostGraph, NodeId};
use std::borrow::Cow;
use std::collections::HashMap;

/// Marks a readiness-check entry as a subscription (vs. held-cell) index.
pub(crate) const SUB_BIT: u32 = 1 << 31;

/// Where one dependency-gather slot reads its value from: resolved once at
/// plan build, so the per-event gather is pure array indexing.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DepSrc {
    /// Virtual boundary column (computed on the fly).
    Boundary { side: Side, offset: u32 },
    /// Held cell `own index` on the same processor (previous step).
    Own(u32),
    /// Subscribed column `dep index` (receive buffer, previous step).
    Sub(u32),
}

/// Immutable per-processor lookup tables (flattened CSR-style: `xs[off[i]
/// .. off[i+1]]` are the entries of held cell `i`).
///
/// Static guests (grid topologies and *uniform* task graphs) use the
/// per-cell `gather`/`checks` tables — one dependency list per cell, valid
/// at every step. Non-uniform task graphs additionally fill the `dyn_*`
/// tables, indexed per `(cell, step)`; the [`gather_at`](Self::gather_at) /
/// [`checks_at`](Self::checks_at) accessors dispatch on which family is
/// populated, so engines are oblivious to the difference. The dependent
/// wake lists (`own_dependents`/`dep_dependents`) always hold the **union**
/// over steps: a superset wake is harmless (`try_enqueue` re-checks
/// readiness against the step's actual check list) and cannot miss (every
/// readiness change flows through a dependency that is in the union).
#[derive(Clone)]
pub(crate) struct ProcTables {
    /// Held cells (sorted).
    pub(crate) cells: Vec<u32>,
    /// Subscribed dependency columns, in inbound order.
    pub(crate) dep_cells: Vec<u32>,
    /// Dependency sources per held cell, in canonical dependency order.
    pub(crate) gather: Vec<DepSrc>,
    pub(crate) gather_off: Vec<u32>,
    /// Readiness checks per held cell: non-self cell dependencies, encoded
    /// as `own index` or `dep index | SUB_BIT`.
    pub(crate) checks: Vec<u32>,
    pub(crate) check_off: Vec<u32>,
    /// For each held cell: held cells whose pebbles depend on it.
    pub(crate) own_dependents: Vec<u32>,
    pub(crate) own_dep_off: Vec<u32>,
    /// For each dependency column: held cells depending on it.
    pub(crate) dep_dependents: Vec<u32>,
    pub(crate) dep_dep_off: Vec<u32>,
    /// Guest steps (the dyn tables' inner dimension).
    pub(crate) steps: u32,
    /// Per-(cell, step) dependency sources for non-uniform task graphs,
    /// indexed `i * steps + (s - 1)`. Empty for static guests.
    pub(crate) dyn_gather: Vec<DepSrc>,
    pub(crate) dyn_gather_off: Vec<u32>,
    /// Per-(cell, step) readiness checks (same encoding as `checks`).
    pub(crate) dyn_checks: Vec<u32>,
    pub(crate) dyn_check_off: Vec<u32>,
}

impl ProcTables {
    fn heap_bytes(&self) -> usize {
        use crate::vec_bytes;
        vec_bytes(&self.cells)
            + vec_bytes(&self.dep_cells)
            + vec_bytes(&self.gather)
            + vec_bytes(&self.gather_off)
            + vec_bytes(&self.checks)
            + vec_bytes(&self.check_off)
            + vec_bytes(&self.own_dependents)
            + vec_bytes(&self.own_dep_off)
            + vec_bytes(&self.dep_dependents)
            + vec_bytes(&self.dep_dep_off)
            + vec_bytes(&self.dyn_gather)
            + vec_bytes(&self.dyn_gather_off)
            + vec_bytes(&self.dyn_checks)
            + vec_bytes(&self.dyn_check_off)
    }

    /// Dependency sources of held cell `i` at step `s`.
    #[inline]
    pub(crate) fn gather_at(&self, i: usize, s: u32) -> &[DepSrc] {
        if self.dyn_gather_off.is_empty() {
            &self.gather[self.gather_off[i] as usize..self.gather_off[i + 1] as usize]
        } else {
            let k = i * self.steps as usize + (s as usize - 1);
            &self.dyn_gather[self.dyn_gather_off[k] as usize..self.dyn_gather_off[k + 1] as usize]
        }
    }

    /// Readiness checks of held cell `i` at step `s`.
    #[inline]
    pub(crate) fn checks_at(&self, i: usize, s: u32) -> &[u32] {
        if self.dyn_check_off.is_empty() {
            &self.checks[self.check_off[i] as usize..self.check_off[i + 1] as usize]
        } else {
            let k = i * self.steps as usize + (s as usize - 1);
            &self.dyn_checks[self.dyn_check_off[k] as usize..self.dyn_check_off[k + 1] as usize]
        }
    }
}

/// All interned hot-path tables, built once per plan.
#[derive(Clone)]
pub(crate) struct Hot {
    /// Delay per directed link id.
    pub(crate) link_delay: Vec<Delay>,
    /// Per-processor dependency tables.
    pub(crate) procs: Vec<ProcTables>,
    /// Global copy id of processor `p`'s first copy (prefix sums).
    pub(crate) copy_off: Vec<u32>,
    /// Outbound route ids (sub ids or tree ids) per copy:
    /// `out_ids[out_off[copy] .. out_off[copy+1]]`.
    pub(crate) out_ids: Vec<u32>,
    pub(crate) out_off: Vec<u32>,
    /// Per subscription: directed link ids along the route (hop `h` uses
    /// `sub_links[sub_link_off[sid] + h]`).
    pub(crate) sub_links: Vec<u32>,
    pub(crate) sub_link_off: Vec<u32>,
    /// Per subscription: consumer processor and its dep-column index.
    pub(crate) sub_dest: Vec<u32>,
    pub(crate) sub_dest_dep: Vec<u32>,
    /// Per tree, per node: link id of the parent→node edge (`u32::MAX` at
    /// the root).
    pub(crate) tree_edge_lid: Vec<Vec<u32>>,
    /// Per tree, per node: dep-column index at the node's processor if the
    /// node is a delivery target, else `u32::MAX`.
    pub(crate) tree_deliver_dep: Vec<Vec<u32>>,
}

impl Hot {
    fn heap_bytes(&self) -> usize {
        use crate::{nested_bytes, vec_bytes};
        vec_bytes(&self.link_delay)
            + vec_bytes(&self.procs)
            + self.procs.iter().map(ProcTables::heap_bytes).sum::<usize>()
            + vec_bytes(&self.copy_off)
            + vec_bytes(&self.out_ids)
            + vec_bytes(&self.out_off)
            + vec_bytes(&self.sub_links)
            + vec_bytes(&self.sub_link_off)
            + vec_bytes(&self.sub_dest)
            + vec_bytes(&self.sub_dest_dep)
            + nested_bytes(&self.tree_edge_lid)
            + nested_bytes(&self.tree_deliver_dep)
    }

    fn build(guest: &GuestSpec, host: &HostGraph, assign: &Assignment, routes: &Routes) -> Self {
        let n = host.num_nodes();
        let is_static = guest.is_static();
        let steps = guest.steps;

        // Directed link ids: forward 2i, reverse 2i+1, in host.links()
        // order. Jitter phases depend on the id, so this order is part of
        // the determinism contract.
        let mut link_delay: Vec<Delay> = Vec::new();
        let mut link_src: Vec<NodeId> = Vec::new();
        let mut link_dst: Vec<NodeId> = Vec::new();
        for l in host.links() {
            for (u, v) in [(l.a, l.b), (l.b, l.a)] {
                link_delay.push(l.delay);
                link_src.push(u);
                link_dst.push(v);
            }
        }
        let link_id = LinkIndex::new(n, &link_src, &link_dst);

        // Per-processor dependency tables.
        let mut procs: Vec<ProcTables> = Vec::with_capacity(n as usize);
        let mut copy_off: Vec<u32> = Vec::with_capacity(n as usize + 1);
        copy_off.push(0);
        for p in 0..n {
            let cells = assign.cells_of(p).to_vec();
            let own_pos: HashMap<u32, u32> = cells
                .iter()
                .enumerate()
                .map(|(i, &c)| (c, i as u32))
                .collect();
            let dep_cells: Vec<u32> = routes.inbound(p as usize).iter().map(|&(c, _)| c).collect();
            let dep_pos: HashMap<u32, u32> = dep_cells
                .iter()
                .enumerate()
                .map(|(i, &c)| (c, i as u32))
                .collect();
            let mut gather = Vec::new();
            let mut gather_off = vec![0u32];
            let mut checks = Vec::new();
            let mut check_off = vec![0u32];
            let mut dyn_gather = Vec::new();
            let mut dyn_gather_off = vec![0u32];
            let mut dyn_checks = Vec::new();
            let mut dyn_check_off = vec![0u32];
            let mut own_dependents_v: Vec<Vec<u32>> = vec![Vec::new(); cells.len()];
            let mut dep_dependents_v: Vec<Vec<u32>> = vec![Vec::new(); dep_cells.len()];
            // Lower one dependency list (of cell `c` = held index `i`) into
            // the given gather/check tables, wiring the union dependents.
            let lower_deps = |i: usize,
                              c: u32,
                              d: Dep,
                              gather: &mut Vec<DepSrc>,
                              checks: &mut Vec<u32>,
                              own_v: &mut Vec<Vec<u32>>,
                              dep_v: &mut Vec<Vec<u32>>| {
                match d {
                    Dep::Boundary { side, offset } => {
                        gather.push(DepSrc::Boundary { side, offset })
                    }
                    Dep::Cell(c2) => {
                        if let Some(&j) = own_pos.get(&c2) {
                            gather.push(DepSrc::Own(j));
                            if c2 != c {
                                checks.push(j);
                                if !own_v[j as usize].contains(&(i as u32)) {
                                    own_v[j as usize].push(i as u32);
                                }
                            }
                        } else if let Some(&k) = dep_pos.get(&c2) {
                            gather.push(DepSrc::Sub(k));
                            checks.push(k | SUB_BIT);
                            if !dep_v[k as usize].contains(&(i as u32)) {
                                dep_v[k as usize].push(i as u32);
                            }
                        } else {
                            unreachable!(
                                "cell {c2} needed by {c} on proc {p} neither held nor subscribed"
                            );
                        }
                    }
                }
            };
            for (i, &c) in cells.iter().enumerate() {
                if is_static {
                    // One list per cell, valid at every step. For a uniform
                    // task graph layer 1 is that list, so uniform graphs
                    // lower through tables byte-identical to a grid guest's.
                    guest.visit_deps(c, 1, |d| {
                        lower_deps(
                            i,
                            c,
                            d,
                            &mut gather,
                            &mut checks,
                            &mut own_dependents_v,
                            &mut dep_dependents_v,
                        )
                    });
                    gather_off.push(gather.len() as u32);
                    check_off.push(checks.len() as u32);
                } else {
                    // Non-uniform task graph: one list per (cell, step).
                    for s in 1..=steps {
                        guest.visit_deps(c, s, |d| {
                            lower_deps(
                                i,
                                c,
                                d,
                                &mut dyn_gather,
                                &mut dyn_checks,
                                &mut own_dependents_v,
                                &mut dep_dependents_v,
                            )
                        });
                        dyn_gather_off.push(dyn_gather.len() as u32);
                        dyn_check_off.push(dyn_checks.len() as u32);
                    }
                    gather_off.push(0);
                    check_off.push(0);
                }
            }
            if is_static {
                dyn_gather_off.clear();
                dyn_check_off.clear();
            }
            let flatten = |vs: Vec<Vec<u32>>| {
                let mut flat = Vec::new();
                let mut off = vec![0u32];
                for v in vs {
                    flat.extend_from_slice(&v);
                    off.push(flat.len() as u32);
                }
                (flat, off)
            };
            let (own_dependents, own_dep_off) = flatten(own_dependents_v);
            let (dep_dependents, dep_dep_off) = flatten(dep_dependents_v);
            copy_off.push(copy_off.last().unwrap() + cells.len() as u32);
            procs.push(ProcTables {
                cells,
                dep_cells,
                gather,
                gather_off,
                checks,
                check_off,
                own_dependents,
                own_dep_off,
                dep_dependents,
                dep_dep_off,
                steps,
                dyn_gather,
                dyn_gather_off,
                dyn_checks,
                dyn_check_off,
            });
        }

        // Outbound route ids per copy, from the build-time by-cell index.
        let mut out_ids: Vec<u32> = Vec::new();
        let mut out_off: Vec<u32> = vec![0];
        for (p, pt) in procs.iter().enumerate() {
            let by_cell = match routes {
                Routes::Unicast(rt) => &rt.outbound_by_cell[p],
                Routes::Multicast(mt) => &mt.outbound_by_cell[p],
            };
            for &c in &pt.cells {
                if let Ok(ix) = by_cell.binary_search_by_key(&c, |&(cell, _)| cell) {
                    out_ids.extend_from_slice(&by_cell[ix].1);
                }
                out_off.push(out_ids.len() as u32);
            }
        }

        // Per-subscription link-id arrays and delivery targets.
        let mut sub_links: Vec<u32> = Vec::new();
        let mut sub_link_off: Vec<u32> = vec![0];
        let mut sub_dest: Vec<u32> = Vec::new();
        let mut sub_dest_dep: Vec<u32> = Vec::new();
        if let Routes::Unicast(rt) = routes {
            for sub in &rt.subs {
                for w in sub.path.windows(2) {
                    sub_links.push(link_id.get(w[0], w[1]));
                }
                sub_link_off.push(sub_links.len() as u32);
                sub_dest.push(sub.dest);
            }
            // A subscription's dep index is its position in its consumer's
            // inbound list.
            sub_dest_dep = vec![u32::MAX; rt.subs.len()];
            for inb in &rt.inbound {
                for (k, &(_, sid)) in inb.iter().enumerate() {
                    sub_dest_dep[sid as usize] = k as u32;
                }
            }
        }

        // Per-tree-edge link ids and per-node delivery targets.
        let mut tree_edge_lid: Vec<Vec<u32>> = Vec::new();
        let mut tree_deliver_dep: Vec<Vec<u32>> = Vec::new();
        if let Routes::Multicast(mt) = routes {
            for (tid, t) in mt.trees.iter().enumerate() {
                let mut lids = vec![u32::MAX; t.nodes.len()];
                for (v, &pa) in t.parent.iter().enumerate() {
                    if pa != u32::MAX {
                        lids[v] = link_id.get(t.nodes[pa as usize], t.nodes[v]);
                    }
                }
                // Inbound lists are sorted and hold one entry per cell.
                let deliver_dep = t
                    .nodes
                    .iter()
                    .zip(&t.deliver)
                    .map(|(&v, &del)| {
                        if del {
                            mt.inbound[v as usize]
                                .binary_search(&(t.cell, tid as u32))
                                .expect("delivery registered inbound")
                                as u32
                        } else {
                            u32::MAX
                        }
                    })
                    .collect();
                tree_edge_lid.push(lids);
                tree_deliver_dep.push(deliver_dep);
            }
        }

        Self {
            link_delay,
            procs,
            copy_off,
            out_ids,
            out_off,
            sub_links,
            sub_link_off,
            sub_dest,
            sub_dest_dep,
            tree_edge_lid,
            tree_deliver_dep,
        }
    }
}

/// Directed link ids by endpoint: `out[u]` holds `(v, id)` for every link
/// `u → v`, sorted by `v`.
struct LinkIndex {
    out: Vec<Vec<(NodeId, u32)>>,
}

impl LinkIndex {
    fn new(n: u32, link_src: &[NodeId], link_dst: &[NodeId]) -> Self {
        let mut out = vec![Vec::new(); n as usize];
        for (id, (&u, &v)) in link_src.iter().zip(link_dst).enumerate() {
            out[u as usize].push((v, id as u32));
        }
        for links in &mut out {
            links.sort_unstable();
        }
        Self { out }
    }

    /// Id of the directed link `u → v`.
    fn get(&self, u: NodeId, v: NodeId) -> u32 {
        let out = &self.out[u as usize];
        let i = out
            .binary_search_by_key(&v, |&(w, _)| w)
            .expect("route hop is a host link");
        out[i].1
    }
}

/// Which route structure a plan uses.
#[derive(Clone)]
pub(crate) enum Routes {
    Unicast(RoutingTable),
    Multicast(MulticastTable),
}

impl Routes {
    pub(crate) fn inbound(&self, p: usize) -> &[(u32, u32)] {
        match self {
            Routes::Unicast(r) => &r.inbound[p],
            Routes::Multicast(m) => &m.inbound[p],
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Routes::Unicast(r) => r.heap_bytes(),
            Routes::Multicast(m) => m.heap_bytes(),
        }
    }

    pub(crate) fn num_subscriptions(&self) -> usize {
        match self {
            Routes::Unicast(r) => r.num_subscriptions(),
            Routes::Multicast(m) => m
                .trees
                .iter()
                .map(|t| t.deliver.iter().filter(|&&d| d).count())
                .sum(),
        }
    }
}

/// An incremental mutation of an already-lowered [`ExecPlan`], applied by
/// [`ExecPlan::apply_delta`]. Fault and compute-cost deltas never touch
/// the lowering; a link-delay delta re-lowers only when the stored routes
/// could actually change (see [`ExecPlan::apply_delta`]).
#[derive(Debug, Clone, PartialEq)]
pub enum PlanDelta {
    /// Set the delay of the undirected host link `a`–`b`.
    LinkDelay {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// New delay in ticks (≥ 1).
        delay: Delay,
    },
    /// Replace (or clear, with `None`) the plan's fault schedule.
    Faults(Option<FaultPlan>),
    /// Replace (or clear, with `None`) the per-processor compute costs.
    ComputeCosts(Option<Vec<u32>>),
}

/// Receipt of a successful [`ExecPlan::apply_delta`].
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedDelta {
    /// The delta that undoes this one — applying it restores the plan to
    /// its prior state (a delay sweep uses this to walk a neighbourhood
    /// of plans without re-lowering). A run that only needs a fault or
    /// cost variant of a shared plan attaches it to a
    /// [`share`](ExecPlan::share)d view instead, which needs no undo.
    pub inverse: PlanDelta,
    /// True when the delta forced the routes and interned tables to be
    /// rebuilt (still in place, sharing the guest and assignment).
    pub relowered: bool,
}

/// A fully lowered simulation: routing, interning, and dependency tables
/// built once from `(GuestSpec, HostGraph, Assignment, EngineConfig)`,
/// shared read-only by every executor.
///
/// ```
/// use overlap_sim::plan::ExecPlan;
/// use overlap_sim::engine::{Engine, EngineConfig};
/// use overlap_sim::{run_stepped, Assignment};
/// use overlap_model::{GuestSpec, ProgramKind};
/// use overlap_net::{topology, DelayModel};
///
/// let guest = GuestSpec::array(8, ProgramKind::StencilSum, 1, 6);
/// let host = topology::linear_array(4, DelayModel::uniform(1, 6), 2);
/// let assign = Assignment::blocked(4, 8);
/// let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap();
/// // Both engines execute the same lowered plan, and the lockstep
/// // baseline is read off it.
/// let ev = Engine::from_plan(&plan).run().unwrap();
/// let st = run_stepped(&plan).unwrap();
/// assert_eq!(ev.copies.len(), st.copies.len());
/// assert!(ev.stats.makespan <= plan.lockstep_makespan().unwrap());
/// ```
pub struct ExecPlan<'a> {
    /// Borrowed from the caller by [`build`](Self::build) and from the
    /// base plan by [`share`](Self::share); owned after
    /// [`into_owned`](Self::into_owned) / [`build_owned`](Self::build_owned)
    /// (the daemon's plan cache stores `ExecPlan<'static>` entries).
    pub(crate) guest: Cow<'a, GuestSpec>,
    /// Borrowed until the first [`apply_delta`](Self::apply_delta) that
    /// edits a link delay, which clones the host into the plan.
    pub(crate) host: Cow<'a, HostGraph>,
    pub(crate) assign: Cow<'a, Assignment>,
    pub(crate) config: EngineConfig,
    /// What rides on the plan: never borrowed, so a view's variant is
    /// its own.
    pub(crate) compute_costs: Option<Vec<u32>>,
    pub(crate) faults: Option<FaultPlan>,
    /// The lowering. Owned by a built plan; borrowed by a shared view
    /// until a link-delay delta copies it on write.
    pub(crate) routes: Cow<'a, Routes>,
    pub(crate) hot: Cow<'a, Hot>,
}

impl std::fmt::Debug for ExecPlan<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPlan")
            .field("cells", &self.guest.num_cells())
            .field("steps", &self.guest.steps)
            .field("procs", &self.host.num_nodes())
            .field("multicast", &self.config.multicast)
            .field("subscriptions", &self.num_subscriptions())
            .finish_non_exhaustive()
    }
}

impl<'a> ExecPlan<'a> {
    /// Lower the inputs into an executable plan. The routing structure
    /// (unicast table or multicast trees, per `config.multicast`) and
    /// every interned table are built here — engines only read them.
    ///
    /// Fails with [`RunError::IncompleteAssignment`] when some guest cell
    /// has no database copy anywhere.
    pub fn build(
        guest: &'a GuestSpec,
        host: &'a HostGraph,
        assign: &'a Assignment,
        config: EngineConfig,
    ) -> Result<Self, RunError> {
        let uncovered = assign.uncovered_cells();
        if !uncovered.is_empty() {
            return Err(RunError::IncompleteAssignment(uncovered));
        }
        assert_eq!(
            matches!(guest.topology, overlap_model::GuestTopology::Dag { .. }),
            guest.graph.is_some(),
            "Dag topology and GuestSpec::graph must come together (use GuestSpec::dag)"
        );
        // Subscriptions cover the union of dependency cells over all steps
        // (for static guests that union IS the per-step neighbour set, so
        // the lowering is unchanged).
        let routes = if config.multicast {
            Routes::Multicast(MulticastTable::build_with(host, assign, |c| {
                guest.dep_union(c)
            }))
        } else {
            Routes::Unicast(RoutingTable::build_with(host, assign, |c| {
                guest.dep_union(c)
            }))
        };
        let hot = Hot::build(guest, host, assign, &routes);
        Ok(Self {
            guest: Cow::Borrowed(guest),
            host: Cow::Borrowed(host),
            assign: Cow::Borrowed(assign),
            config,
            compute_costs: None,
            faults: None,
            routes: Cow::Owned(routes),
            hot: Cow::Owned(hot),
        })
    }

    /// Lower owned inputs into a fully owned plan (`ExecPlan<'static>`).
    /// The interned tables are built exactly as by [`build`](Self::build);
    /// the inputs are then moved (not cloned) into the plan, so long-lived
    /// plan caches can hold entries with no external borrows.
    pub fn build_owned(
        guest: GuestSpec,
        host: HostGraph,
        assign: Assignment,
        config: EngineConfig,
    ) -> Result<ExecPlan<'static>, RunError> {
        let ExecPlan { routes, hot, .. } = ExecPlan::build(&guest, &host, &assign, config)?;
        let (routes, hot) = (routes.into_owned(), hot.into_owned());
        Ok(ExecPlan {
            guest: Cow::Owned(guest),
            host: Cow::Owned(host),
            assign: Cow::Owned(assign),
            config,
            compute_costs: None,
            faults: None,
            routes: Cow::Owned(routes),
            hot: Cow::Owned(hot),
        })
    }

    /// Detach the plan from its borrowed inputs, cloning whatever is still
    /// borrowed. The lowered tables are moved, never rebuilt, and the
    /// result is bit-identical to the source plan on every engine.
    pub fn into_owned(self) -> ExecPlan<'static> {
        ExecPlan {
            guest: Cow::Owned(self.guest.into_owned()),
            host: Cow::Owned(self.host.into_owned()),
            assign: Cow::Owned(self.assign.into_owned()),
            config: self.config,
            compute_costs: self.compute_costs,
            faults: self.faults,
            routes: Cow::Owned(self.routes.into_owned()),
            hot: Cow::Owned(self.hot.into_owned()),
        }
    }

    /// A view of this plan for one run: it borrows the inputs, routes and
    /// interned tables and carries its own copy of the compute costs and
    /// fault plan. Attach the run's variant to the view with
    /// [`with_faults`](Self::with_faults) /
    /// [`with_compute_costs`](Self::with_compute_costs). Nothing done to
    /// a view reaches its base ([`apply_delta`](Self::apply_delta) copies
    /// what it edits), so runs of many variants can share one base in
    /// parallel, read-only. A view runs bit-identically to the base with
    /// the same variant attached.
    pub fn share(&self) -> ExecPlan<'_> {
        ExecPlan {
            guest: Cow::Borrowed(&self.guest),
            host: Cow::Borrowed(&self.host),
            assign: Cow::Borrowed(&self.assign),
            config: self.config,
            compute_costs: self.compute_costs.clone(),
            faults: self.faults.clone(),
            routes: Cow::Borrowed(&self.routes),
            hot: Cow::Borrowed(&self.hot),
        }
    }

    /// Attach per-processor compute costs (ticks per pebble, ≥ 1) to the
    /// plan: heterogeneous workstation speeds, beyond the paper's
    /// unit-speed model. Costs do not affect the lowering, only execution.
    /// Panics on a table whose length is not the host's processor count or
    /// that holds a zero, as [`apply_delta`](Self::apply_delta) does.
    pub fn with_compute_costs(mut self, costs: Vec<u32>) -> Self {
        self.apply_delta(PlanDelta::ComputeCosts(Some(costs)))
            .expect("a compute-cost delta never fails");
        self
    }

    /// Attach a deterministic fault plan (link outages, delay spikes,
    /// processor crashes). Faults do not affect the lowering (routes and
    /// tables are for the healthy network; recovery re-routes at
    /// runtime), so fault variants of one lowering are
    /// [`PlanDelta::Faults`] swaps. An empty plan runs bit-identically to
    /// no plan.
    ///
    /// The plan is validated against the host here, as by
    /// [`apply_delta`](Self::apply_delta): an outage or spike on a link
    /// the host does not have fails with [`RunError::MissingLink`], a
    /// crash of a non-existent processor with
    /// [`RunError::NoSuchProcessor`] — a typo'd fault spec used to abort
    /// the process deep inside fault lowering.
    pub fn with_faults(mut self, plan: FaultPlan) -> Result<Self, RunError> {
        self.apply_delta(PlanDelta::Faults(Some(plan)))?;
        Ok(self)
    }

    /// The guest this plan lowers.
    pub fn guest(&self) -> &GuestSpec {
        &self.guest
    }

    /// The host NOW this plan targets (possibly delta-edited, in which
    /// case it is a private copy owned by the plan).
    pub fn host(&self) -> &HostGraph {
        &self.host
    }

    /// The database assignment baked into the plan.
    pub fn assignment(&self) -> &Assignment {
        &self.assign
    }

    /// The engine configuration the plan was lowered for.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// The plan's compute-cost table, if any.
    pub fn compute_costs(&self) -> Option<&[u32]> {
        self.compute_costs.as_deref()
    }

    /// The plan's fault schedule, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Heap bytes this plan owns: the guest, host and assignment, the
    /// routes and interned tables, and the faults and compute costs, each
    /// counted by the capacities it allocated, not estimated. A part a
    /// [`share`](Self::share)d view borrows from its base counts 0, so a
    /// view owns only its variant.
    pub fn heap_bytes(&self) -> usize {
        let mut bytes = self.compute_costs.as_ref().map_or(0, crate::vec_bytes)
            + self.faults.as_ref().map_or(0, FaultPlan::heap_bytes);
        if let Cow::Owned(guest) = &self.guest {
            bytes += guest.heap_bytes();
        }
        if let Cow::Owned(host) = &self.host {
            bytes += host.heap_bytes();
        }
        if let Cow::Owned(assign) = &self.assign {
            bytes += assign.heap_bytes();
        }
        if let Cow::Owned(routes) = &self.routes {
            bytes += routes.heap_bytes();
        }
        if let Cow::Owned(hot) = &self.hot {
            bytes += hot.heap_bytes();
        }
        bytes
    }

    /// The unicast routing table (for reporting); `None` when the plan
    /// was lowered for multicast trees.
    pub fn routing(&self) -> Option<&RoutingTable> {
        match &*self.routes {
            Routes::Unicast(r) => Some(r),
            Routes::Multicast(_) => None,
        }
    }

    /// Number of subscriptions (unicast routes or multicast deliveries).
    pub fn num_subscriptions(&self) -> usize {
        self.routes.num_subscriptions()
    }

    /// Apply an incremental change to this plan, returning the inverse
    /// delta that undoes it.
    ///
    /// Fault-plan swaps and compute-cost overrides never touch the
    /// lowering: they are validated and stored ([`with_faults`] and
    /// [`with_compute_costs`] are these deltas on a fresh plan).
    ///
    /// [`with_faults`]: Self::with_faults
    /// [`with_compute_costs`]: Self::with_compute_costs
    ///
    /// A [`PlanDelta::LinkDelay`] keeps the interned tables when the
    /// stored routes provably cannot change (DESIGN.md §15.3):
    ///
    /// * on a **tree host** every route is forced, so only the per-link
    ///   delay table (and unicast route totals) are patched;
    /// * otherwise, only when the delay **grew** and **no lowered route
    ///   crosses the link** — every stored route keeps its old length
    ///   while alternatives can only lengthen, and the deterministic
    ///   tie-breaks (`(dist, proc)` holder choice, Dijkstra's parent
    ///   order) resolve as before, so a fresh lowering would reproduce
    ///   the stored tables verbatim.
    ///
    /// Any other delay change rebuilds routes and tables in place
    /// (`relowered: true` in the receipt) — still cheaper than a fresh
    /// [`build`](Self::build) call site, and the plan's identity (guest,
    /// assignment, config, attached faults/costs) is preserved.
    ///
    /// On a [`share`](Self::share)d view, a delay change copies the host
    /// and the tables it edits first, so the base never sees it.
    ///
    /// The receipt's [`inverse`](AppliedDelta::inverse) restores the
    /// prior plan state; a delta-applied plan is always bit-identical to
    /// a fresh lowering of the same inputs, on every engine.
    ///
    /// Fails with [`RunError::MissingLink`] when the named link does not
    /// exist; a fault plan naming a missing link or processor fails with
    /// [`RunError::MissingLink`] / [`RunError::NoSuchProcessor`]. Panics on
    /// a cost table of the wrong length or with a zero cost.
    pub fn apply_delta(&mut self, delta: PlanDelta) -> Result<AppliedDelta, RunError> {
        match delta {
            PlanDelta::Faults(fp) => {
                if let Some(p) = &fp {
                    p.validate(&self.host)?;
                }
                let old = std::mem::replace(&mut self.faults, fp);
                Ok(AppliedDelta {
                    inverse: PlanDelta::Faults(old),
                    relowered: false,
                })
            }
            PlanDelta::ComputeCosts(costs) => {
                if let Some(c) = &costs {
                    assert_eq!(c.len() as u32, self.host.num_nodes());
                    assert!(c.iter().all(|&x| x >= 1), "costs must be ≥ 1");
                }
                let old = std::mem::replace(&mut self.compute_costs, costs);
                Ok(AppliedDelta {
                    inverse: PlanDelta::ComputeCosts(old),
                    relowered: false,
                })
            }
            PlanDelta::LinkDelay { a, b, delay } => {
                assert!(delay >= 1, "zero-delay link {a}-{b}");
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                let Some(li) = self
                    .host
                    .links()
                    .iter()
                    .position(|l| (l.a, l.b) == (lo, hi))
                else {
                    return Err(RunError::MissingLink { from: a, to: b });
                };
                let old = self.host.links()[li].delay;
                let inverse = PlanDelta::LinkDelay {
                    a: lo,
                    b: hi,
                    delay: old,
                };
                if delay == old {
                    return Ok(AppliedDelta {
                        inverse,
                        relowered: false,
                    });
                }
                let n = self.host.num_nodes();
                let is_tree =
                    self.host.num_links() as u32 == n.saturating_sub(1) && self.host.is_connected();
                let fwd = (2 * li) as u32; // directed ids 2i / 2i+1
                let fast = is_tree
                    || (delay > old
                        && matches!(*self.routes, Routes::Unicast(_))
                        && !self.hot.sub_links.iter().any(|&l| l == fwd || l == fwd + 1));
                self.host.to_mut().set_link_delay(lo, hi, delay);
                if fast {
                    // Copy on write: a shared view gets tables of its own.
                    let hot = self.hot.to_mut();
                    hot.link_delay[fwd as usize] = delay;
                    hot.link_delay[fwd as usize + 1] = delay;
                    if let Routes::Unicast(rt) = self.routes.to_mut() {
                        // Patch unicast route totals (tree case; on the
                        // unused-link path every count is zero). Routes are
                        // simple paths, so a link is crossed at most once.
                        for (sid, sub) in rt.subs.iter_mut().enumerate() {
                            let r =
                                hot.sub_link_off[sid] as usize..hot.sub_link_off[sid + 1] as usize;
                            let uses = hot.sub_links[r]
                                .iter()
                                .filter(|&&l| l == fwd || l == fwd + 1)
                                .count() as u64;
                            sub.delay = sub.delay - uses * old + uses * delay;
                        }
                    }
                    Ok(AppliedDelta {
                        inverse,
                        relowered: false,
                    })
                } else {
                    let routes = if self.config.multicast {
                        Routes::Multicast(MulticastTable::build_with(
                            &self.host,
                            &self.assign,
                            |c| self.guest.dep_union(c),
                        ))
                    } else {
                        Routes::Unicast(RoutingTable::build_with(&self.host, &self.assign, |c| {
                            self.guest.dep_union(c)
                        }))
                    };
                    self.hot =
                        Cow::Owned(Hot::build(&self.guest, &self.host, &self.assign, &routes));
                    self.routes = Cow::Owned(routes);
                    Ok(AppliedDelta {
                        inverse,
                        relowered: true,
                    })
                }
            }
        }
    }
}

/// Canonical byte encoding of one plan's lowering inputs: the JSON of
/// `(guest, host, assignment, config)` in declaration order. Two scenarios
/// with equal keys lower to byte-identical plans, so a plan cache may
/// serve both from one entry; fault schedules and compute costs are
/// deliberately **excluded** — they never affect the lowering, and each
/// run attaches its own to a [`ExecPlan::share`]d view of the cached plan.
pub fn scenario_key(
    guest: &GuestSpec,
    host: &HostGraph,
    assign: &Assignment,
    config: EngineConfig,
) -> String {
    let mut key = String::with_capacity(256);
    key.push_str(&serde_json::to_string(guest).expect("guest serializes"));
    key.push('|');
    key.push_str(&serde_json::to_string(host).expect("host serializes"));
    key.push('|');
    key.push_str(&serde_json::to_string(assign).expect("assignment serializes"));
    key.push('|');
    key.push_str(&serde_json::to_string(&config).expect("config serializes"));
    key
}

/// FNV-1a 64-bit over raw bytes (stable across runs and platforms);
/// over a [`scenario_key`] it is the compact plan hash used in reports
/// and cache statistics. Collision handling is the cache's job (it
/// compares full keys); the hash is only a shard/index value.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use overlap_model::ProgramKind;
    use overlap_net::topology::linear_array;
    use overlap_net::DelayModel;

    fn lab() -> (GuestSpec, HostGraph, Assignment) {
        (
            GuestSpec::array(12, ProgramKind::KvWorkload, 3, 8),
            linear_array(4, DelayModel::uniform(1, 7), 5),
            Assignment::blocked(4, 12),
        )
    }

    /// Recompute every interned id of `plan` by direct lookup: link ids
    /// from `host.links()` order, dependency slots and per-copy route lists
    /// by linear search over the routing tables, and readiness checks from
    /// the guest's dependency lists.
    fn assert_interned_ids(plan: &ExecPlan, host: &HostGraph) {
        let mut ids: HashMap<(NodeId, NodeId), u32> = HashMap::new();
        for (i, l) in host.links().iter().enumerate() {
            ids.insert((l.a, l.b), 2 * i as u32);
            ids.insert((l.b, l.a), 2 * i as u32 + 1);
        }
        let dep_pos = |inbound: &[(u32, u32)], cell: u32| {
            inbound.iter().position(|&(c, _)| c == cell).unwrap() as u32
        };
        let (inbound, outbound, route_cell): (_, _, Vec<u32>) = match &*plan.routes {
            Routes::Unicast(rt) => {
                let (mut links, mut deps) = (Vec::new(), Vec::new());
                for s in &rt.subs {
                    links.extend(s.path.windows(2).map(|w| ids[&(w[0], w[1])]));
                    deps.push(dep_pos(&rt.inbound[s.dest as usize], s.cell));
                }
                assert_eq!(plan.hot.sub_links, links);
                assert_eq!(plan.hot.sub_dest_dep, deps);
                (
                    &rt.inbound,
                    &rt.outbound,
                    rt.subs.iter().map(|s| s.cell).collect(),
                )
            }
            Routes::Multicast(mt) => {
                for (tid, t) in mt.trees.iter().enumerate() {
                    for (v, &pa) in t.parent.iter().enumerate() {
                        let node = t.nodes[v];
                        let want = (pa != u32::MAX).then(|| ids[&(t.nodes[pa as usize], node)]);
                        assert_eq!(plan.hot.tree_edge_lid[tid][v], want.unwrap_or(u32::MAX));
                        let want =
                            t.deliver[v].then(|| dep_pos(&mt.inbound[node as usize], t.cell));
                        assert_eq!(plan.hot.tree_deliver_dep[tid][v], want.unwrap_or(u32::MAX));
                    }
                }
                (
                    &mt.inbound,
                    &mt.outbound,
                    mt.trees.iter().map(|t| t.cell).collect(),
                )
            }
        };
        let hot = &plan.hot;
        for (p, pt) in hot.procs.iter().enumerate() {
            for (i, &c) in pt.cells.iter().enumerate() {
                // A copy's routes: its processor's outbound list, this cell's.
                let cid = hot.copy_off[p] as usize + i;
                let want: Vec<u32> = outbound[p]
                    .iter()
                    .copied()
                    .filter(|&id| route_cell[id as usize] == c)
                    .collect();
                let got = &hot.out_ids[hot.out_off[cid] as usize..hot.out_off[cid + 1] as usize];
                assert_eq!(got, &want[..], "routes of cell {c} on proc {p}");
                // Its readiness checks: every other cell it depends on.
                let mut checks = Vec::new();
                plan.guest().visit_deps(c, 1, |d| match d {
                    Dep::Cell(c2) if c2 != c => {
                        checks.push(match pt.cells.iter().position(|&x| x == c2) {
                            Some(j) => j as u32,
                            None => dep_pos(&inbound[p], c2) | SUB_BIT,
                        })
                    }
                    _ => {}
                });
                assert_eq!(
                    pt.checks_at(i, 1),
                    &checks[..],
                    "checks of cell {c} on proc {p}"
                );
            }
        }
    }

    #[test]
    fn interned_link_and_dep_ids_match_direct_lookups() {
        // Redundant overlapping blocks on a mesh: many routes, multi-hop
        // paths and shared multicast trees.
        let guest = GuestSpec::array(32, ProgramKind::KvWorkload, 3, 4);
        let host = overlap_net::topology::mesh2d(4, 4, DelayModel::uniform(1, 7), 9);
        let cells_of = (0..16u32)
            .map(|p| (2 * p..(2 * p + 3).min(32)).collect())
            .collect();
        let assign = Assignment::from_cells_of(16, 32, cells_of);
        let mesh = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap();
        assert!(
            mesh.hot.sub_links.len() > mesh.routing().unwrap().subs.len(),
            "want multi-hop routes"
        );
        let mut inputs = vec![(guest, host, assign)];
        // And seed 0's first 200 fuzz scenarios with static guests.
        for case in 0..200 {
            let spec = crate::fuzz::gen_spec(0, case);
            let guest = spec.build_guest();
            if guest.is_static() {
                inputs.push((guest, spec.build_host(), spec.build_assignment()));
            }
        }
        for (guest, host, assign) in &inputs {
            for multicast in [false, true] {
                let cfg = EngineConfig {
                    multicast,
                    ..Default::default()
                };
                assert_interned_ids(&ExecPlan::build(guest, host, assign, cfg).unwrap(), host);
            }
        }
    }

    #[test]
    fn incomplete_assignment_fails_at_build() {
        let (guest, host, _) = lab();
        let assign = Assignment::from_cells_of(4, 12, vec![vec![0, 1], vec![3], vec![], vec![]]);
        let err = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap_err();
        assert!(matches!(err, RunError::IncompleteAssignment(_)));
    }

    #[test]
    fn one_plan_serves_many_runs_identically() {
        let (guest, host, assign) = lab();
        let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap();
        let a = Engine::from_plan(&plan).run().unwrap();
        let b = Engine::from_plan(&plan).run().unwrap();
        let fresh = Engine::new(&guest, &host, &assign, EngineConfig::default())
            .run()
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a, fresh);
        // Every further run sharing the plan is identical too.
        let shared: Vec<_> = [0u8; 3]
            .iter()
            .map(|_| Engine::from_plan(&plan).run().unwrap())
            .collect();
        assert!(shared.iter().all(|out| *out == a));
    }

    #[test]
    fn plan_exposes_unicast_routing_only_in_unicast_mode() {
        let (guest, host, assign) = lab();
        let uni = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap();
        assert!(uni.routing().is_some());
        assert!(uni.num_subscriptions() > 0);
        let mc_cfg = EngineConfig {
            multicast: true,
            ..Default::default()
        };
        let mc = ExecPlan::build(&guest, &host, &assign, mc_cfg).unwrap();
        assert!(mc.routing().is_none());
    }

    #[test]
    fn costs_and_faults_ride_on_the_plan() {
        let (guest, host, assign) = lab();
        let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default())
            .unwrap()
            .with_compute_costs(vec![1, 2, 1, 3])
            .with_faults(FaultPlan::new().link_down(0, 1, 4, 12))
            .unwrap();
        assert_eq!(plan.compute_costs(), Some(&[1u32, 2, 1, 3][..]));
        assert!(!plan.faults().unwrap().is_empty());
        let out = Engine::from_plan(&plan).run().unwrap();
        assert!(out.stats.makespan > 0);
    }

    #[test]
    fn fault_plan_naming_missing_link_fails_at_attach() {
        let (guest, host, assign) = lab();
        // 0–2 is not a link of the 4-node linear array.
        let err = ExecPlan::build(&guest, &host, &assign, EngineConfig::default())
            .unwrap()
            .with_faults(FaultPlan::new().link_down(0, 2, 1, 9))
            .unwrap_err();
        assert!(matches!(err, RunError::MissingLink { from: 0, to: 2 }));
        let err = ExecPlan::build(&guest, &host, &assign, EngineConfig::default())
            .unwrap()
            .with_faults(FaultPlan::new().crash(99, 5))
            .unwrap_err();
        assert!(matches!(err, RunError::NoSuchProcessor { proc: 99, .. }));
    }
}
