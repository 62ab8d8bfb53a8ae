//! The seed (pre-calendar-queue) event engine, frozen as a reference.
//!
//! This is the original hot loop of [`crate::engine`]: a global
//! `BinaryHeap<Reverse<(tick, seq, payload)>>` event queue, per-event
//! `HashMap` probes for own/dependency column lookups and link ids, and a
//! fresh `to_check` allocation per compute event. It is kept verbatim (only
//! the new [`RunStats`] counters were added) for two reasons:
//!
//! * **Determinism oracle** — the rewritten engine must produce
//!   bit-identical [`RunOutcome`]s; the A/B tests in `tests/engines.rs`
//!   and `crate::engine::tests` diff the two implementations across
//!   unicast/multicast × jitter × heterogeneous-cost configurations.
//! * **Perf baseline** — `exp_engine_scale` measures both engines on the
//!   same scenarios and records the speedup in `BENCH_engine.json`, so the
//!   hot-path gain is tracked rather than asserted.
//!
//! New code should use [`crate::engine::Engine`]; this module is not
//! re-exported from the crate root.

use crate::assignment::Assignment;
use crate::engine::{
    inject, CopyRecord, EngineConfig, LinkSlot, RunError, RunOutcome, TimingTrace,
};
use crate::multicast::MulticastTable;
use crate::routing::RoutingTable;
use crate::stats::RunStats;
use overlap_model::{fold64, Db, Dep, GuestSpec, PebbleValue, ProgramRef};
use overlap_net::{Delay, HostGraph, NodeId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Event payload (identical to the seed engine's).
#[derive(Debug, Clone, Copy)]
enum Ev {
    ComputeDone {
        proc: NodeId,
        own_idx: u32,
    },
    Arrival {
        sub: u32,
        hop: u16,
        step: u32,
        value: PebbleValue,
    },
    TreeHop {
        tree: u32,
        node: u32,
        step: u32,
        value: PebbleValue,
    },
}

/// Per-processor simulation state (identical to the seed engine's).
struct ProcState {
    cells: Vec<u32>,
    next_step: Vec<u32>,
    history: Vec<Vec<PebbleValue>>,
    dbs: Vec<Db>,
    value_fold: Vec<u64>,
    update_fold: Vec<u64>,
    finished_at: Vec<u64>,
    times: Vec<Vec<u64>>,
    dep_values: Vec<Vec<PebbleValue>>,
    dep_have: Vec<Vec<bool>>,
    dep_watermark: Vec<u32>,
    own_pos: HashMap<u32, u32>,
    dep_pos: HashMap<u32, u32>,
    own_dependents: Vec<Vec<u32>>,
    dep_dependents: Vec<Vec<u32>>,
    ready: BinaryHeap<Reverse<(u32, u32)>>,
    queued: Vec<bool>,
    busy: bool,
}

enum Routes {
    Unicast(RoutingTable),
    Multicast(MulticastTable),
}

impl Routes {
    fn inbound(&self, p: usize) -> &[(u32, u32)] {
        match self {
            Routes::Unicast(r) => &r.inbound[p],
            Routes::Multicast(m) => &m.inbound[p],
        }
    }

    fn num_subscriptions(&self) -> usize {
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

/// Run the frozen seed engine. Semantically identical to
/// [`crate::engine::Engine::run`] with the same `config` and `costs` —
/// or to [`crate::engine::Engine::run_timed`] when `timing` is set, which
/// records every pebble's completion tick (`RunOutcome::timing`).
///
/// # Panics
///
/// The seed engine predates task graphs and memory budgets: it panics on
/// a task-graph guest or a `config.mem` budget, and on a cost table that
/// does not cover the host with costs ≥ 1.
pub fn run_classic(
    guest: &GuestSpec,
    host: &HostGraph,
    assign: &Assignment,
    config: EngineConfig,
    costs: Option<&[u32]>,
    timing: bool,
) -> Result<RunOutcome, RunError> {
    let uncovered = assign.uncovered_cells();
    if !uncovered.is_empty() {
        return Err(RunError::IncompleteAssignment(uncovered));
    }
    assert!(guest.graph.is_none(), "the classic engine runs grid guests");
    assert!(
        config.mem.is_none(),
        "the classic engine has no memory budget"
    );
    if let Some(c) = costs {
        assert_eq!(c.len() as u32, host.num_nodes());
        assert!(c.iter().all(|&c| c >= 1), "costs must be ≥ 1");
    }
    let routing = if config.multicast {
        Routes::Multicast(MulticastTable::build(host, &guest.topology, assign))
    } else {
        Routes::Unicast(RoutingTable::build(host, &guest.topology, assign))
    };
    let routing = &routing;
    let n = host.num_nodes();
    let steps = guest.steps;
    let topo = guest.topology;
    let program: ProgramRef = guest.program.instantiate();
    let boundary = guest.boundary();
    let bw = config.bandwidth.per_tick(n) as u64;

    // ---- initialize processor states ----
    let mut procs: Vec<ProcState> = Vec::with_capacity(n as usize);
    for p in 0..n {
        let cells = assign.cells_of(p).to_vec();
        let own_pos: HashMap<u32, u32> = cells
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i as u32))
            .collect();
        let dep_cells: Vec<u32> = routing
            .inbound(p as usize)
            .iter()
            .map(|&(c, _)| c)
            .collect();
        let dep_pos: HashMap<u32, u32> = dep_cells
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i as u32))
            .collect();
        let mut own_dependents = vec![Vec::new(); cells.len()];
        let mut dep_dependents = vec![Vec::new(); dep_cells.len()];
        for (i, &c) in cells.iter().enumerate() {
            for d in topo.deps(c).iter() {
                if let Dep::Cell(c2) = d {
                    if c2 == c {
                        continue;
                    }
                    if let Some(&j) = own_pos.get(&c2) {
                        own_dependents[j as usize].push(i as u32);
                    } else if let Some(&k) = dep_pos.get(&c2) {
                        dep_dependents[k as usize].push(i as u32);
                    } else {
                        unreachable!(
                            "cell {c2} needed by {c} on proc {p} neither held nor subscribed"
                        );
                    }
                }
            }
        }
        let kind = program.db_kind();
        let history: Vec<Vec<PebbleValue>> = cells
            .iter()
            .map(|&c| {
                let mut h = vec![0; steps as usize + 1];
                h[0] = guest.initial_value(c);
                h
            })
            .collect();
        let dep_values: Vec<Vec<PebbleValue>> = dep_cells
            .iter()
            .map(|&c| {
                let mut v = vec![0; steps as usize + 1];
                v[0] = guest.initial_value(c);
                v
            })
            .collect();
        let dep_have: Vec<Vec<bool>> = dep_cells
            .iter()
            .map(|_| {
                let mut h = vec![false; steps as usize + 1];
                h[0] = true;
                h
            })
            .collect();
        procs.push(ProcState {
            times: if timing {
                cells
                    .iter()
                    .map(|_| Vec::with_capacity(steps as usize))
                    .collect()
            } else {
                vec![Vec::new(); cells.len()]
            },
            next_step: vec![1; cells.len()],
            dbs: cells
                .iter()
                .map(|&c| kind.instantiate(c, guest.seed))
                .collect(),
            value_fold: vec![0xF01Du64; cells.len()],
            update_fold: vec![0xD16u64; cells.len()],
            finished_at: vec![0; cells.len()],
            history,
            dep_values,
            dep_have,
            dep_watermark: vec![0; dep_cells.len()],
            own_dependents,
            dep_dependents,
            ready: BinaryHeap::new(),
            queued: vec![false; cells.len()],
            busy: false,
            cells,
            own_pos,
            dep_pos,
        });
    }

    // ---- link slots for bandwidth accounting ----
    let mut link_ids: HashMap<(NodeId, NodeId), u32> = HashMap::new();
    let mut link_delay: Vec<Delay> = Vec::new();
    for l in host.links() {
        for (u, v) in [(l.a, l.b), (l.b, l.a)] {
            link_ids.insert((u, v), link_delay.len() as u32);
            link_delay.push(l.delay);
        }
    }
    let mut link_slots: Vec<LinkSlot> = vec![LinkSlot::default(); link_delay.len()];
    let mut link_traffic: Vec<u64> = vec![0; link_delay.len()];

    // ---- event queue ----
    let mut queue: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
    let mut payloads: Vec<Ev> = Vec::new();
    let mut seq: u64 = 0;
    let mut peak_queue: usize = 0;
    let push = |queue: &mut BinaryHeap<Reverse<(u64, u64, u32)>>,
                payloads: &mut Vec<Ev>,
                seq: &mut u64,
                peak: &mut usize,
                tick: u64,
                ev: Ev| {
        payloads.push(ev);
        queue.push(Reverse((tick, *seq, payloads.len() as u32 - 1)));
        *seq += 1;
        if queue.len() > *peak {
            *peak = queue.len();
        }
    };

    let mut remaining: u64 = procs
        .iter()
        .map(|ps| ps.cells.len() as u64 * steps as u64)
        .sum();
    let total_compute = remaining;
    let mut makespan = 0u64;
    let mut messages = 0u64;
    let mut pebble_hops = 0u64;
    let mut events_processed = 0u64;

    let is_ready = |procs: &Vec<ProcState>, p: usize, i: usize| -> bool {
        let ps = &procs[p];
        let s = ps.next_step[i];
        if s > steps {
            return false;
        }
        let c = ps.cells[i];
        for d in topo.deps(c).iter() {
            match d {
                Dep::Boundary { .. } => {}
                Dep::Cell(c2) => {
                    if c2 == c {
                        continue; // own column: in-order guarantee
                    }
                    if let Some(&j) = ps.own_pos.get(&c2) {
                        if ps.next_step[j as usize] < s {
                            return false;
                        }
                    } else {
                        let k = ps.dep_pos[&c2] as usize;
                        if ps.dep_watermark[k] < s - 1 {
                            return false;
                        }
                    }
                }
            }
        }
        true
    };

    let cost_of = |p: usize| -> u64 { costs.map(|c| c[p] as u64).unwrap_or(1) };

    // Seed: enqueue every initially-ready pebble and start processors.
    for p in 0..n as usize {
        for i in 0..procs[p].cells.len() {
            if is_ready(&procs, p, i) {
                let s = procs[p].next_step[i];
                procs[p].ready.push(Reverse((s, i as u32)));
                procs[p].queued[i] = true;
            }
        }
        if procs[p].ready.peek().is_some() {
            let Reverse((_s, i)) = procs[p].ready.pop().unwrap();
            procs[p].busy = true;
            push(
                &mut queue,
                &mut payloads,
                &mut seq,
                &mut peak_queue,
                cost_of(p),
                Ev::ComputeDone {
                    proc: p as NodeId,
                    own_idx: i,
                },
            );
        }
    }

    let mut deps_buf: Vec<PebbleValue> = Vec::with_capacity(topo.max_deps());

    // ---- main loop ----
    while let Some(Reverse((tick, _, pid))) = queue.pop() {
        if tick > config.max_ticks {
            return Err(RunError::TickLimit(config.max_ticks));
        }
        if remaining == 0 {
            break;
        }
        events_processed += 1;
        match payloads[pid as usize] {
            Ev::ComputeDone { proc, own_idx } => {
                let p = proc as usize;
                let i = own_idx as usize;
                let (cell, s) = {
                    let ps = &procs[p];
                    (ps.cells[i], ps.next_step[i])
                };
                debug_assert!(s <= steps);
                deps_buf.clear();
                {
                    let ps = &procs[p];
                    for d in topo.deps(cell).iter() {
                        deps_buf.push(match d {
                            Dep::Boundary { side, offset } => boundary.value(side, offset, s),
                            Dep::Cell(c2) => {
                                if let Some(&j) = ps.own_pos.get(&c2) {
                                    ps.history[j as usize][s as usize - 1]
                                } else {
                                    let k = ps.dep_pos[&c2] as usize;
                                    debug_assert!(ps.dep_have[k][s as usize - 1]);
                                    ps.dep_values[k][s as usize - 1]
                                }
                            }
                        });
                    }
                }
                let (v, u) = program.compute(cell, s, &procs[p].dbs[i], &deps_buf);
                {
                    let ps = &mut procs[p];
                    ps.dbs[i].apply(&u);
                    ps.history[i][s as usize] = v;
                    ps.value_fold[i] = fold64(ps.value_fold[i], v);
                    ps.update_fold[i] = fold64(ps.update_fold[i], u.digest());
                    ps.next_step[i] = s + 1;
                    ps.queued[i] = false;
                    ps.busy = false;
                    if timing {
                        ps.times[i].push(tick);
                    }
                    if s == steps {
                        ps.finished_at[i] = tick;
                    }
                }
                remaining -= 1;
                makespan = makespan.max(tick);

                match routing {
                    Routes::Unicast(rt) => {
                        for &sid in &rt.outbound[p] {
                            let sub = &rt.subs[sid as usize];
                            if sub.cell != cell {
                                continue;
                            }
                            messages += 1;
                            pebble_hops += sub.path.len() as u64 - 1;
                            let lid = link_ids[&(sub.path[0], sub.path[1])];
                            link_traffic[lid as usize] += 1;
                            let depart = inject(&mut link_slots[lid as usize], tick, bw);
                            push(
                                &mut queue,
                                &mut payloads,
                                &mut seq,
                                &mut peak_queue,
                                depart
                                    + config.jitter.effective(
                                        link_delay[lid as usize],
                                        lid,
                                        depart,
                                    ),
                                Ev::Arrival {
                                    sub: sid,
                                    hop: 1,
                                    step: s,
                                    value: v,
                                },
                            );
                        }
                    }
                    Routes::Multicast(mt) => {
                        for &tid in &mt.outbound[p] {
                            let tree = &mt.trees[tid as usize];
                            if tree.cell != cell {
                                continue;
                            }
                            messages += 1;
                            let root = tree.index_of[&tree.source] as usize;
                            for &child in &tree.children[root] {
                                pebble_hops += 1;
                                let to = tree.nodes[child as usize];
                                let lid = link_ids[&(tree.source, to)];
                                link_traffic[lid as usize] += 1;
                                let depart = inject(&mut link_slots[lid as usize], tick, bw);
                                push(
                                    &mut queue,
                                    &mut payloads,
                                    &mut seq,
                                    &mut peak_queue,
                                    depart
                                        + config.jitter.effective(
                                            link_delay[lid as usize],
                                            lid,
                                            depart,
                                        ),
                                    Ev::TreeHop {
                                        tree: tid,
                                        node: child,
                                        step: s,
                                        value: v,
                                    },
                                );
                            }
                        }
                    }
                }

                let mut to_check: Vec<u32> = vec![own_idx];
                to_check.extend_from_slice(&procs[p].own_dependents[i]);
                for j in to_check {
                    let j = j as usize;
                    if !procs[p].queued[j] && is_ready(&procs, p, j) {
                        let sj = procs[p].next_step[j];
                        procs[p].ready.push(Reverse((sj, j as u32)));
                        procs[p].queued[j] = true;
                    }
                }
                if !procs[p].busy {
                    if let Some(Reverse((_s, j))) = procs[p].ready.pop() {
                        procs[p].busy = true;
                        push(
                            &mut queue,
                            &mut payloads,
                            &mut seq,
                            &mut peak_queue,
                            tick + cost_of(p),
                            Ev::ComputeDone { proc, own_idx: j },
                        );
                    }
                }
            }
            Ev::Arrival {
                sub,
                hop,
                step,
                value,
            } => {
                let Routes::Unicast(rt) = routing else {
                    unreachable!("unicast arrival in multicast mode");
                };
                let s = &rt.subs[sub as usize];
                let at = hop as usize;
                if at + 1 < s.path.len() {
                    let lid = link_ids[&(s.path[at], s.path[at + 1])];
                    link_traffic[lid as usize] += 1;
                    let depart = inject(&mut link_slots[lid as usize], tick, bw);
                    push(
                        &mut queue,
                        &mut payloads,
                        &mut seq,
                        &mut peak_queue,
                        depart
                            + config
                                .jitter
                                .effective(link_delay[lid as usize], lid, depart),
                        Ev::Arrival {
                            sub,
                            hop: hop + 1,
                            step,
                            value,
                        },
                    );
                } else {
                    let p = s.dest as usize;
                    let k = procs[p].dep_pos[&s.cell] as usize;
                    {
                        let ps = &mut procs[p];
                        ps.dep_values[k][step as usize] = value;
                        ps.dep_have[k][step as usize] = true;
                        while (ps.dep_watermark[k] as usize) < steps as usize
                            && ps.dep_have[k][ps.dep_watermark[k] as usize + 1]
                        {
                            ps.dep_watermark[k] += 1;
                        }
                    }
                    let dependents = procs[p].dep_dependents[k].clone();
                    for j in dependents {
                        let j = j as usize;
                        if !procs[p].queued[j] && is_ready(&procs, p, j) {
                            let sj = procs[p].next_step[j];
                            procs[p].ready.push(Reverse((sj, j as u32)));
                            procs[p].queued[j] = true;
                        }
                    }
                    if !procs[p].busy {
                        if let Some(Reverse((_s2, j))) = procs[p].ready.pop() {
                            procs[p].busy = true;
                            push(
                                &mut queue,
                                &mut payloads,
                                &mut seq,
                                &mut peak_queue,
                                tick + cost_of(p),
                                Ev::ComputeDone {
                                    proc: s.dest,
                                    own_idx: j,
                                },
                            );
                        }
                    }
                }
            }
            Ev::TreeHop {
                tree,
                node,
                step,
                value,
            } => {
                let Routes::Multicast(mt) = routing else {
                    unreachable!("tree hop in unicast mode");
                };
                let t = &mt.trees[tree as usize];
                let here = t.nodes[node as usize];
                for &child in &t.children[node as usize] {
                    pebble_hops += 1;
                    let to = t.nodes[child as usize];
                    let lid = link_ids[&(here, to)];
                    link_traffic[lid as usize] += 1;
                    let depart = inject(&mut link_slots[lid as usize], tick, bw);
                    push(
                        &mut queue,
                        &mut payloads,
                        &mut seq,
                        &mut peak_queue,
                        depart
                            + config
                                .jitter
                                .effective(link_delay[lid as usize], lid, depart),
                        Ev::TreeHop {
                            tree,
                            node: child,
                            step,
                            value,
                        },
                    );
                }
                if t.deliver[node as usize] {
                    let p = here as usize;
                    let k = procs[p].dep_pos[&t.cell] as usize;
                    {
                        let ps = &mut procs[p];
                        ps.dep_values[k][step as usize] = value;
                        ps.dep_have[k][step as usize] = true;
                        while (ps.dep_watermark[k] as usize) < steps as usize
                            && ps.dep_have[k][ps.dep_watermark[k] as usize + 1]
                        {
                            ps.dep_watermark[k] += 1;
                        }
                    }
                    let dependents = procs[p].dep_dependents[k].clone();
                    for j in dependents {
                        let j = j as usize;
                        if !procs[p].queued[j] && is_ready(&procs, p, j) {
                            let sj = procs[p].next_step[j];
                            procs[p].ready.push(Reverse((sj, j as u32)));
                            procs[p].queued[j] = true;
                        }
                    }
                    if !procs[p].busy {
                        if let Some(Reverse((_s2, j))) = procs[p].ready.pop() {
                            procs[p].busy = true;
                            push(
                                &mut queue,
                                &mut payloads,
                                &mut seq,
                                &mut peak_queue,
                                tick + cost_of(p),
                                Ev::ComputeDone {
                                    proc: here,
                                    own_idx: j,
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    if remaining > 0 {
        return Err(RunError::Deadlock {
            tick: makespan,
            remaining,
        });
    }

    // ---- collect outcome ----
    let mut copies = Vec::with_capacity(assign.total_copies());
    let mut timing = timing.then(TimingTrace::default);
    for (p, ps) in procs.iter().enumerate() {
        for (i, &c) in ps.cells.iter().enumerate() {
            copies.push(CopyRecord {
                cell: c,
                proc: p as NodeId,
                value_fold: ps.value_fold[i],
                db_digest: ps.dbs[i].digest(),
                update_fold: ps.update_fold[i],
                finished_at: ps.finished_at[i],
            });
            if let Some(t) = timing.as_mut() {
                t.ticks.push(ps.times[i].clone());
            }
        }
    }
    let stats = RunStats {
        guest_cells: guest.num_cells(),
        guest_steps: steps,
        host_procs: n,
        makespan,
        slowdown: if steps == 0 {
            0.0
        } else {
            makespan as f64 / steps as f64
        },
        total_compute,
        guest_work: guest.total_work(),
        redundancy: assign.redundancy(),
        load: assign.load(),
        active_procs: assign.active_procs(),
        messages,
        pebble_hops,
        subscriptions: routing.num_subscriptions(),
        bandwidth_per_link: bw as u32,
        busiest_link_pebbles: link_traffic.iter().copied().max().unwrap_or(0),
        mean_link_pebbles: {
            let active: Vec<u64> = link_traffic.iter().copied().filter(|&t| t > 0).collect();
            if active.is_empty() {
                0.0
            } else {
                active.iter().sum::<u64>() as f64 / active.len() as f64
            }
        },
        events_processed,
        peak_queue_depth: peak_queue as u64,
        queue_clamped_pushes: 0,
        faults: crate::stats::FaultStats::default(),
        stalls: None,
        mem: crate::stats::MemStats::default(),
    };
    Ok(RunOutcome {
        stats,
        copies,
        timing,
        trace: None,
    })
}
