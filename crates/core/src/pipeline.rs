//! High-level simulation pipelines: pick a strategy, build the assignment,
//! run the engine, validate against the unit-delay reference.
//!
//! This is the API examples and experiments use (through the
//! [`Simulation`](crate::Simulation) builder). The flow for any guest on an
//! arbitrary host:
//!
//! 1. view the host as a linear array: directly if it *is* a path, else
//!    through the dilation-3 embedding of Fact 3 (§4);
//! 2. place the guest's databases on that array — the one step that
//!    depends on the guest's shape ([`plan_placement`]): a line, ring or
//!    task graph folds into *line slots* (identity for a line, the
//!    slowdown-2 fold for a ring — §1's "a linear array can simulate a
//!    ring with slowdown 2") placed per the chosen [`Strategy`]; a grid
//!    guest takes Theorem 8's strips; a binary tree takes contiguous
//!    blocks of a tree order;
//! 3. lower `(guest, host, assignment, config)` once into an
//!    `overlap_sim::ExecPlan`, execute it on the chosen engine, and
//!    validate every copy. Sweeps reuse the lowered plan across repeats
//!    and engines instead of re-lowering per run.

use crate::combined::{compose, plan_combined};
use crate::error::Error;
use crate::mesh::plan_mesh;
use crate::overlap::plan_overlap;
use crate::tree_guest::{bfs_blocks, dfs_blocks};
use crate::uniform;
use overlap_model::{line_slots, ring_fold, GuestSpec, GuestTopology, SlotMap};
use overlap_net::embed::embed_linear_array;
use overlap_net::{Delay, HostGraph, NodeId};
use overlap_sim::engine::RunOutcome;
use overlap_sim::{Assignment, RunStats};
use serde::{Deserialize, Serialize};

/// How to place guest databases on the host line. Line, ring and
/// task-graph guests take every strategy; grid and tree guests take the
/// ones [`plan_placement`] lists.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub enum Strategy {
    /// Algorithm OVERLAP, load-1 structure proportionally scaled to the
    /// guest (Theorems 2/3; with a guest larger than the root label the
    /// assignment is the work-efficient blocked variant).
    Overlap {
        /// Killing constant (> 2).
        c: f64,
    },
    /// Theorem 4 halo regions: equal blocks with `halo` redundant blocks
    /// on each side (`halo = 1` is the paper's 3-block region).
    Halo {
        /// Redundant blocks per side.
        halo: u32,
    },
    /// Theorem 5: OVERLAP down to an intermediate uniform array of
    /// `n × expansion` positions, then Theorem 4 regions on it.
    Combined {
        /// Killing constant.
        c: f64,
        /// Intermediate expansion factor (the paper's `log³n`).
        expansion: u32,
    },
    /// Contiguous blocks over all processors, no redundancy (what a naive
    /// parallelization does; suffers the Θ(d) dependency cycle). A binary
    /// tree is cut into blocks of its heap order.
    Blocked,
    /// Complementary slackness: contiguous blocks over only `n / d_max`
    /// evenly spaced processors (prior work's efficiency-preserving
    /// layout; slowdown still Θ(d_max)).
    Slackness,
    /// Everything on one processor (degenerate sanity baseline).
    AllOnOne,
    /// Deterministic work stealing: an offline event simulation over the
    /// embedded host array seeds a blocked partition and lets idle
    /// processors steal chunks of pending slots from the most-loaded
    /// victim, paying the round-trip array delay before the stolen work
    /// may start. The slots each processor ends up computing become its
    /// (redundancy-1) database assignment — see `crate::steal`.
    WorkStealing {
        /// Slots moved per steal; `0` steals half the victim's remainder.
        chunk: u32,
    },
    /// Pick automatically from the host's delay statistics: near-uniform
    /// delays → Theorem 4 halo regions; high average delay → the Theorem 5
    /// combined pipeline; otherwise OVERLAP. A grid guest is placed by
    /// Theorem 8, a binary tree in subtree blocks.
    Auto,
}

impl Strategy {
    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            Strategy::Overlap { c } => format!("overlap(c={c})"),
            Strategy::Halo { halo } => format!("halo({halo})"),
            Strategy::Combined { c, expansion } => {
                format!("combined(c={c},L={expansion})")
            }
            Strategy::Blocked => "blocked".into(),
            Strategy::Slackness => "slackness".into(),
            Strategy::AllOnOne => "all-on-one".into(),
            Strategy::WorkStealing { chunk } => format!("work-stealing(chunk={chunk})"),
            Strategy::Auto => "auto".into(),
        }
    }
}

/// Resolve [`Strategy::Auto`] from the host array's delay statistics.
///
/// * `d_max ≤ 3·d_ave`, small `d_ave`: the host is effectively uniform —
///   Theorem 4's halo regions are optimal up to constants;
/// * `d_max ≤ 3·d_ave`, large `d_ave`: latency dominates everywhere — the
///   Theorem 5 combined pipeline earns its √d_ave factor;
/// * `d_max > 32·d_ave`: a few extreme spikes dominate. OVERLAP only
///   bridges spikes that land near dyadic boundaries wide enough for an
///   integer overlap (and its killing zones scale with `d_ave`, which the
///   spike itself inflates), so uniform halo redundancy — which bridges a
///   spike *anywhere* — wins (measured in E16);
/// * otherwise (moderately varying delays): OVERLAP (Theorem 2/3).
pub fn resolve_auto(delays: &[Delay]) -> Strategy {
    if delays.is_empty() {
        return Strategy::Blocked;
    }
    let d_ave = delays.iter().sum::<u64>() as f64 / delays.len() as f64;
    let d_max = *delays.iter().max().expect("non-empty") as f64;
    // The median is robust against the spikes themselves (a single huge
    // link inflates d_ave arbitrarily).
    let mut sorted = delays.to_vec();
    sorted.sort_unstable();
    let d_median = sorted[sorted.len() / 2] as f64;
    if d_max <= 3.0 * d_ave {
        if d_ave > 16.0 {
            Strategy::Combined {
                c: 4.0,
                expansion: 2,
            }
        } else {
            Strategy::Halo { halo: 1 }
        }
    } else if d_max > 32.0 * d_median {
        Strategy::Halo { halo: 2 }
    } else {
        Strategy::Overlap { c: 4.0 }
    }
}

/// The result of a validated pipeline run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Measured statistics.
    pub stats: RunStats,
    /// All copies matched the unit-delay reference.
    pub validated: bool,
    /// Number of copy mismatches (0 when `validated`).
    pub mismatches: usize,
    /// The strategy's predicted slowdown, when it has one.
    pub predicted_slowdown: Option<f64>,
    /// Strategy label.
    pub strategy: String,
    /// Host name.
    pub host: String,
    /// Host average link delay.
    pub d_ave: f64,
    /// Host maximum link delay.
    pub d_max: Delay,
    /// Embedding dilation when the host was not a path (else 0).
    pub dilation: u32,
    /// The paper's §1 lockstep baseline on the same plan
    /// (`ExecPlan::lockstep_makespan`); `None` where its closed form does
    /// not apply (faults, costs, multicast, jitter, a memory budget or
    /// non-unit task costs).
    pub lockstep_makespan: Option<u64>,
    /// The full engine outcome (per-copy records, optional timing trace,
    /// fault-recovery counters in `stats.faults`).
    pub outcome: RunOutcome,
}

/// View a host as a linear array: `(order, link delays)`. A path graph is
/// used directly; anything else goes through the dilation-3 embedding.
/// Returns the dilation (0 for a genuine path).
pub fn host_as_array(host: &HostGraph) -> (Vec<NodeId>, Vec<Delay>, u32) {
    if let Some((order, delays)) = try_path_order(host) {
        return (order, delays, 0);
    }
    let emb = embed_linear_array(host);
    let delays = emb.array_delays.clone();
    (emb.order, delays, emb.dilation)
}

/// If the host is a simple path, return its natural order and delays.
fn try_path_order(host: &HostGraph) -> Option<(Vec<NodeId>, Vec<Delay>)> {
    let n = host.num_nodes();
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some((vec![0], Vec::new()));
    }
    let mut ends = Vec::new();
    for v in 0..n {
        match host.degree(v) {
            1 => ends.push(v),
            2 => {}
            _ => return None,
        }
    }
    if ends.len() != 2 {
        return None;
    }
    let mut order = Vec::with_capacity(n as usize);
    let mut delays = Vec::with_capacity(n as usize - 1);
    let mut prev = u32::MAX;
    let mut cur = ends[0].min(ends[1]);
    order.push(cur);
    while order.len() < n as usize {
        let mut advanced = false;
        for &(w, d) in host.neighbours(cur) {
            if w != prev {
                delays.push(d);
                order.push(w);
                prev = cur;
                cur = w;
                advanced = true;
                break;
            }
        }
        if !advanced {
            return None; // premature dead end: not a path
        }
    }
    Some((order, delays))
}

/// Proportionally expand `src` slot indices over `m` guest slots:
/// plan-slot `s` of `total` covers guest slots `[s·m/total, (s+1)·m/total)`.
fn proportional(src: &[u32], total: u32, m: u32) -> Vec<u32> {
    let mut out = Vec::new();
    for &s in src {
        let lo = (s as u64 * m as u64 / total as u64) as u32;
        let hi = ((s as u64 + 1) * m as u64 / total as u64) as u32;
        out.extend(lo..hi);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Build the per-position guest-slot lists for a strategy.
fn place_slots(
    strategy: Strategy,
    delays: &[Delay],
    num_slots: u32,
) -> Result<(Vec<Vec<u32>>, Option<f64>), Error> {
    let n = delays.len() as u32 + 1;
    let d_ave = if delays.is_empty() {
        0.0
    } else {
        delays.iter().sum::<u64>() as f64 / delays.len() as f64
    };
    let d_max = delays.iter().copied().max().unwrap_or(0);
    match strategy {
        Strategy::Overlap { c } => {
            let plan = plan_overlap(delays, c, 1)?;
            let total = plan.slots.num_slots;
            let placed = plan
                .slots
                .slots_of_position
                .iter()
                .map(|s| proportional(s, total, num_slots))
                .collect();
            let block = (num_slots as f64 / total as f64).max(1.0);
            let predicted =
                crate::overlap::predicted_slowdown(n, plan.kill.d_ave, c, block.ceil() as u32);
            Ok((placed, Some(predicted)))
        }
        Strategy::Halo { halo } => {
            let r = num_slots.div_ceil(n).max(1);
            let cells = uniform::halo_assignment(n, r, halo);
            // halo_assignment produces n·r slots; clip to num_slots.
            let placed = cells
                .into_iter()
                .map(|cs| cs.into_iter().filter(|&c| c < num_slots).collect())
                .collect();
            Ok((
                placed,
                Some(uniform::predicted_slowdown(d_ave.round() as u64)),
            ))
        }
        Strategy::Combined { c, expansion } => {
            let plan = plan_combined(delays, c, expansion, num_slots)?;
            Ok((plan.cells_of_position, Some(plan.predicted_slowdown)))
        }
        Strategy::Blocked => {
            let a = Assignment::blocked(n, num_slots);
            Ok((
                (0..n).map(|p| a.cells_of(p).to_vec()).collect(),
                Some(crate::theory::blocked_predicted(d_ave)),
            ))
        }
        Strategy::Slackness => {
            let used = ((n as u64) / d_max.max(1)).max(1).min(n as u64) as u32;
            // Evenly spaced positions hold contiguous blocks.
            let mut placed = vec![Vec::new(); n as usize];
            for u in 0..used {
                let pos = (u as u64 * n as u64 / used as u64) as usize;
                let lo = (u as u64 * num_slots as u64 / used as u64) as u32;
                let hi = ((u as u64 + 1) * num_slots as u64 / used as u64) as u32;
                placed[pos].extend(lo..hi);
            }
            Ok((placed, Some(crate::theory::lockstep_predicted(d_max))))
        }
        Strategy::AllOnOne => {
            let mut placed = vec![Vec::new(); n as usize];
            placed[0] = (0..num_slots).collect();
            Ok((placed, Some(num_slots as f64)))
        }
        Strategy::WorkStealing { chunk } => {
            Ok((crate::steal::steal_slots(delays, num_slots, chunk), None))
        }
        Strategy::Auto => place_slots(resolve_auto(delays), delays, num_slots),
    }
}

/// Theorem 8's killing constant `c` for every grid-guest placement.
const MESH_C: f64 = 4.0;
/// Theorem 8's intermediate-array expansion `L` for every grid-guest
/// placement.
const MESH_EXPANSION: u32 = 2;

/// The assignment a placement produces, plus embedding metadata —
/// exposed so callers can run it on the engine of their choice.
#[derive(Debug, Clone)]
pub struct Placement {
    /// The database assignment over host nodes.
    pub assignment: Assignment,
    /// The strategy's predicted slowdown, when it has one.
    pub predicted_slowdown: Option<f64>,
    /// Embedded-array link delays.
    pub array_delays: Vec<Delay>,
    /// Embedding dilation (0 for a genuine path host).
    pub dilation: u32,
}

/// Build the database assignment for `guest` on an arbitrary connected
/// host under `strategy` — the builder's placement step, without
/// executing, and the only step that depends on the guest's shape. The
/// host is viewed as a linear array ([`host_as_array`]); then:
///
/// | guest | strategies | placement |
/// |---|---|---|
/// | line, ring, task graph | all | fold into line slots, place the slots per strategy |
/// | 2-D mesh, torus, 3-D mesh | `Auto` | Theorem 8: OVERLAP (c = 4, L = 2) over column strips or slabs |
/// | binary tree | `Auto`, `Blocked` | subtree (DFS) blocks, heap-order blocks |
///
/// Every other pair is [`Error::InapplicableStrategy`]. A killing constant
/// `c` that is not above 2, or a `Combined` expansion of 0, is
/// [`Error::InvalidConfig`] naming `strategy`.
pub fn plan_placement(
    guest: &GuestSpec,
    host: &HostGraph,
    strategy: Strategy,
) -> Result<Placement, Error> {
    // OVERLAP's killing needs c > 2 and Theorem 5's intermediate array at
    // least one position per host position; a strategy decoded from the
    // wire may carry anything.
    let invalid = match strategy {
        Strategy::Overlap { c } | Strategy::Combined { c, .. } if !(c.is_finite() && c > 2.0) => {
            Some(format!("the killing constant c must exceed 2, not {c}"))
        }
        Strategy::Combined { expansion: 0, .. } => {
            Some("the expansion L must be at least 1".into())
        }
        _ => None,
    };
    if let Some(reason) = invalid {
        return Err(Error::InvalidConfig {
            option: "strategy",
            reason,
        });
    }
    let (order, delays, dilation) = host_as_array(host);
    let positions = order.len() as u32;
    let (cells_of_position, predicted_slowdown) = match (guest.topology, strategy) {
        (GuestTopology::Line { m }, _) => place_line(&line_slots(m), strategy, &delays)?,
        (GuestTopology::Ring { m }, _) => place_line(&ring_fold(m), strategy, &delays)?,
        // Task-graph lanes sit on the line in lane order (identity slots):
        // every line strategy — including work stealing — then applies to
        // dag guests unchanged.
        (GuestTopology::Dag { dbs, .. }, _) => place_line(&line_slots(dbs), strategy, &delays)?,
        (
            GuestTopology::Mesh2D { .. }
            | GuestTopology::Torus2D { .. }
            | GuestTopology::Mesh3D { .. },
            Strategy::Auto,
        ) => {
            let plan = plan_mesh(&delays, MESH_C, MESH_EXPANSION, &guest.topology)?;
            (plan.cells_of_position, Some(plan.predicted_slowdown))
        }
        (GuestTopology::BinaryTree { levels }, Strategy::Auto) => {
            (dfs_blocks(levels, positions), None)
        }
        (GuestTopology::BinaryTree { levels }, Strategy::Blocked) => {
            (bfs_blocks(levels, positions), None)
        }
        _ => return Err(Error::InapplicableStrategy),
    };

    // Map array positions to host nodes.
    let mut cells_of = vec![Vec::new(); host.num_nodes() as usize];
    for (pos, cells) in cells_of_position.into_iter().enumerate() {
        cells_of[order[pos] as usize] = cells;
    }
    Ok(Placement {
        assignment: Assignment::from_cells_of(host.num_nodes(), guest.num_cells(), cells_of),
        predicted_slowdown,
        array_delays: delays,
        dilation,
    })
}

/// Place a guest folded into line slots: the strategy assigns slots to
/// array positions, and each position holds the cells of its slots.
fn place_line(
    slot_map: &SlotMap,
    strategy: Strategy,
    delays: &[Delay],
) -> Result<(Vec<Vec<u32>>, Option<f64>), Error> {
    let (slots_of_position, predicted) = place_slots(strategy, delays, slot_map.len() as u32)?;
    let cells = compose(
        &slots_of_position,
        &slot_map.slots,
        slot_map.slot_of.len() as u32,
    );
    Ok((cells, predicted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::Simulation;
    use overlap_model::ProgramKind;
    use overlap_net::topology::{linear_array, mesh2d};
    use overlap_net::DelayModel;

    /// The builder path every test exercises.
    fn simulate(
        guest: &GuestSpec,
        host: &HostGraph,
        strategy: Strategy,
    ) -> Result<SimReport, Error> {
        Simulation::of(guest)
            .on(host)
            .strategy(strategy)
            .build()?
            .run()
    }

    /// Parameters placement would assert on are typed errors naming the
    /// strategy, on every guest that takes the strategy.
    #[test]
    fn out_of_domain_strategy_parameters_are_invalid_config() {
        let host = linear_array(8, DelayModel::uniform(1, 9), 1);
        for guest in [
            GuestSpec::array(16, ProgramKind::KvWorkload, 1, 4),
            GuestSpec::ring(16, ProgramKind::KvWorkload, 1, 4),
        ] {
            for strategy in [
                Strategy::Overlap { c: 0.0 },
                Strategy::Overlap { c: 2.0 },
                Strategy::Overlap { c: f64::NAN },
                Strategy::Overlap { c: f64::INFINITY },
                Strategy::Combined {
                    c: 2.0,
                    expansion: 2,
                },
                Strategy::Combined {
                    c: 4.0,
                    expansion: 0,
                },
            ] {
                let err = plan_placement(&guest, &host, strategy).unwrap_err();
                assert!(
                    matches!(
                        err,
                        Error::InvalidConfig {
                            option: "strategy",
                            ..
                        }
                    ),
                    "{strategy:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn precomputed_trace_matches_plain_run() {
        let guest = GuestSpec::array(12, ProgramKind::KvWorkload, 1, 8);
        let host = linear_array(4, DelayModel::constant(3), 0);
        let r = simulate(&guest, &host, Strategy::Blocked).unwrap();
        assert!(r.validated);
        let trace = overlap_model::ReferenceRun::execute(&guest);
        let r2 = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Blocked)
            .build()
            .unwrap()
            .run_with_trace(&trace)
            .unwrap();
        assert_eq!(r.stats, r2.stats);
    }

    #[test]
    fn placement_lowers_to_a_reusable_plan() {
        use overlap_sim::engine::{Engine, EngineConfig};
        use overlap_sim::ExecPlan;
        let guest = GuestSpec::array(16, ProgramKind::KvWorkload, 2, 10);
        let host = linear_array(4, DelayModel::uniform(1, 6), 3);
        let placed = plan_placement(&guest, &host, Strategy::Halo { halo: 1 }).unwrap();
        let plan =
            ExecPlan::build(&guest, &host, &placed.assignment, EngineConfig::default()).unwrap();
        let a = Engine::from_plan(&plan).run().unwrap();
        let b = Engine::from_plan(&plan).run().unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.copies, b.copies);
    }

    #[test]
    fn path_hosts_are_detected() {
        let host = linear_array(6, DelayModel::uniform(1, 9), 3);
        let (order, delays, dil) = host_as_array(&host);
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(delays.len(), 5);
        assert_eq!(dil, 0);
    }

    #[test]
    fn non_path_hosts_are_embedded() {
        let host = mesh2d(3, 3, DelayModel::constant(2), 0);
        let (order, delays, dil) = host_as_array(&host);
        assert_eq!(order.len(), 9);
        assert_eq!(delays.len(), 8);
        assert!((1..=3).contains(&dil));
    }

    #[test]
    fn overlap_strategy_runs_and_validates_on_line_host() {
        let guest = GuestSpec::array(24, ProgramKind::KvWorkload, 3, 16);
        let host = linear_array(8, DelayModel::uniform(1, 8), 5);
        let r = simulate(&guest, &host, Strategy::Overlap { c: 4.0 }).unwrap();
        assert!(r.validated, "{} mismatches", r.mismatches);
        assert!(r.stats.slowdown >= 1.0);
        assert!(r.predicted_slowdown.is_some());
    }

    #[test]
    fn all_strategies_validate() {
        let guest = GuestSpec::array(16, ProgramKind::Relaxation, 9, 12);
        let host = linear_array(
            8,
            DelayModel::Spike {
                base: 1,
                spike: 24,
                period: 4,
            },
            0,
        );
        for s in [
            Strategy::Overlap { c: 4.0 },
            Strategy::Halo { halo: 1 },
            Strategy::Combined {
                c: 4.0,
                expansion: 2,
            },
            Strategy::Blocked,
            Strategy::Slackness,
            Strategy::AllOnOne,
        ] {
            let r = simulate(&guest, &host, s).unwrap();
            assert!(r.validated, "{}: {} mismatches", r.strategy, r.mismatches);
        }
    }

    #[test]
    fn ring_guest_validates_through_fold() {
        let guest = GuestSpec::ring(20, ProgramKind::KvWorkload, 2, 10);
        let host = linear_array(5, DelayModel::uniform(1, 5), 1);
        let r = simulate(&guest, &host, Strategy::Overlap { c: 4.0 }).unwrap();
        assert!(r.validated);
    }

    /// DESIGN.md §9.4's placement table, guest by guest: the accepted
    /// strategies place and validate, every other strategy is
    /// `InapplicableStrategy`.
    #[test]
    fn placement_branches_on_guest_topology() {
        use overlap_model::TaskGraph;
        let host = mesh2d(3, 2, DelayModel::uniform(1, 6), 4);
        let pk = ProgramKind::KvWorkload;
        let strategies = [
            Strategy::Overlap { c: 4.0 },
            Strategy::Halo { halo: 1 },
            Strategy::Combined {
                c: 4.0,
                expansion: 2,
            },
            Strategy::Blocked,
            Strategy::Slackness,
            Strategy::AllOnOne,
            Strategy::WorkStealing { chunk: 0 },
            Strategy::Auto,
        ];
        let every = |_: Strategy| true;
        let auto = |s: Strategy| s == Strategy::Auto;
        let tree = |s: Strategy| matches!(s, Strategy::Auto | Strategy::Blocked);
        let cases: [(GuestSpec, &dyn Fn(Strategy) -> bool); 7] = [
            (GuestSpec::array(12, pk, 1, 6), &every),
            (GuestSpec::ring(12, pk, 1, 6), &every),
            (GuestSpec::dag(TaskGraph::wavefront(6, 5), pk, 1), &every),
            (GuestSpec::mesh(6, 4, pk, 1, 5), &auto),
            (GuestSpec::torus(4, 4, pk, 1, 5), &auto),
            (GuestSpec::mesh3(3, 3, 2, pk, 1, 5), &auto),
            (GuestSpec::tree(4, pk, 1, 6), &tree),
        ];
        for (guest, accepts) in cases {
            for s in strategies {
                let case = format!("{:?} × {}", guest.topology, s.label());
                match simulate(&guest, &host, s) {
                    Ok(r) => {
                        assert!(accepts(s), "{case} must be rejected");
                        assert!(r.validated, "{case}: {} mismatches", r.mismatches);
                        assert_eq!(r.dilation, host_as_array(&host).2, "{case}");
                    }
                    Err(Error::InapplicableStrategy) => assert!(!accepts(s), "{case} must place"),
                    Err(e) => panic!("{case}: {e}"),
                }
            }
        }
    }

    #[test]
    fn grid_and_tree_placements_follow_the_host_array() {
        let host = linear_array(4, DelayModel::uniform(1, 5), 1);
        let (order, delays, _) = host_as_array(&host);
        // Theorem 8: the mesh plan's positions, mapped through the array.
        let mesh = GuestSpec::mesh(8, 6, ProgramKind::KvWorkload, 5, 8);
        let placed = plan_placement(&mesh, &host, Strategy::Auto).unwrap();
        let plan = plan_mesh(&delays, MESH_C, MESH_EXPANSION, &mesh.topology).unwrap();
        assert_eq!(placed.predicted_slowdown, Some(plan.predicted_slowdown));
        for (pos, cells) in plan.cells_of_position.iter().enumerate() {
            assert_eq!(placed.assignment.cells_of(order[pos]), &cells[..]);
        }
        // Trees: subtree blocks under Auto, heap-order blocks under Blocked.
        let tree = GuestSpec::tree(5, ProgramKind::KvWorkload, 3, 10);
        for (strategy, blocks) in [
            (Strategy::Auto, dfs_blocks(5, 4)),
            (Strategy::Blocked, bfs_blocks(5, 4)),
        ] {
            let placed = plan_placement(&tree, &host, strategy).unwrap();
            assert_eq!(placed.predicted_slowdown, None);
            for (pos, cells) in blocks.iter().enumerate() {
                assert_eq!(placed.assignment.cells_of(order[pos]), &cells[..]);
            }
        }
    }

    /// Theorem 8's constants are c = 4 and L = 2. On a 128-position line
    /// with one spike link, c = 3, 5 or 8, or L = 3, each place a
    /// 200-column mesh differently; `plan_placement` places it as c = 4
    /// and L = 2 do.
    #[test]
    fn grid_guests_are_placed_with_c_4_and_expansion_2() {
        let spike = DelayModel::Spike {
            base: 1,
            spike: 125,
            period: 127,
        };
        let host = linear_array(128, spike, 0);
        let (order, delays, _) = host_as_array(&host);
        let mesh = GuestSpec::mesh(200, 2, ProgramKind::KvWorkload, 5, 8);
        let plan = plan_mesh(&delays, 4.0, 2, &mesh.topology).unwrap();
        for (c, expansion) in [(3.0, 2), (5.0, 2), (8.0, 2), (4.0, 3)] {
            let other = plan_mesh(&delays, c, expansion, &mesh.topology).unwrap();
            assert_ne!(
                other.cells_of_position, plan.cells_of_position,
                "c = {c}, L = {expansion} must place differently"
            );
        }
        let placed = plan_placement(&mesh, &host, Strategy::Auto).unwrap();
        assert_eq!(placed.predicted_slowdown, Some(plan.predicted_slowdown));
        for (pos, cells) in plan.cells_of_position.iter().enumerate() {
            assert_eq!(placed.assignment.cells_of(order[pos]), &cells[..], "{pos}");
        }
    }

    #[test]
    fn guest_on_non_path_host_validates() {
        let guest = GuestSpec::array(18, ProgramKind::RuleAutomaton { db_size: 8 }, 4, 10);
        let host = mesh2d(3, 3, DelayModel::uniform(1, 6), 2);
        let r = simulate(&guest, &host, Strategy::Overlap { c: 4.0 }).unwrap();
        assert!(r.validated);
        assert!(r.dilation >= 1);
    }

    #[test]
    fn halo_beats_blocked_on_uniform_high_delay_host() {
        // The Theorem 4 vs baseline comparison in miniature.
        let d = 64;
        let guest = GuestSpec::array(32, ProgramKind::Relaxation, 7, 48);
        let host = linear_array(4, DelayModel::constant(d), 0);
        let halo = simulate(&guest, &host, Strategy::Halo { halo: 1 }).unwrap();
        let blocked = simulate(&guest, &host, Strategy::Blocked).unwrap();
        assert!(halo.validated && blocked.validated);
        assert!(
            halo.stats.slowdown < 0.7 * blocked.stats.slowdown,
            "halo {} vs blocked {}",
            halo.stats.slowdown,
            blocked.stats.slowdown
        );
    }

    #[test]
    fn auto_resolves_by_host_shape() {
        // Uniform host → halo(1).
        assert!(matches!(resolve_auto(&[5; 20]), Strategy::Halo { halo: 1 }));
        // Moderately varying delays → overlap. (d_ave 4.3, d_max 30)
        let mut moderate = vec![3u64; 30];
        moderate[15] = 30;
        moderate[7] = 12;
        assert!(matches!(resolve_auto(&moderate), Strategy::Overlap { .. }));
        // Extreme spike (d_max ≫ d_ave) → wide halo.
        let mut spiky = vec![1u64; 30];
        spiky[15] = 1000;
        assert!(matches!(resolve_auto(&spiky), Strategy::Halo { halo: 2 }));
        // Uniform heavy average → combined.
        assert!(matches!(
            resolve_auto(&[40u64; 30]),
            Strategy::Combined { .. }
        ));
        assert!(matches!(resolve_auto(&[]), Strategy::Blocked));
    }

    #[test]
    fn auto_strategy_runs_and_validates() {
        let guest = GuestSpec::array(24, ProgramKind::KvWorkload, 3, 12);
        for host in [
            linear_array(8, DelayModel::constant(6), 0),
            linear_array(
                8,
                DelayModel::Spike {
                    base: 1,
                    spike: 64,
                    period: 4,
                },
                0,
            ),
        ] {
            let r = simulate(&guest, &host, Strategy::Auto).unwrap();
            assert!(r.validated, "{}", host.name());
        }
    }

    #[test]
    fn proportional_expansion_covers_everything() {
        for (total, m) in [(7u32, 20u32), (20, 7), (5, 5), (1, 9)] {
            let mut covered = vec![false; m as usize];
            for s in 0..total {
                for c in proportional(&[s], total, m) {
                    covered[c as usize] = true;
                }
            }
            assert!(covered.iter().all(|&b| b), "total={total} m={m}");
        }
    }
}
