//! The stepped engine: the differential oracle the event-driven
//! [`crate::engine`] is checked against by the fuzzer and the tests.
//! [`run_stepped`] is its only entry point.
//!
//! Simulated time advances through a `BTreeMap` calendar keyed by
//! `(tick, sequence number)`, which carries crashes, compute completions
//! and hops, and the engine follows the event engine's same-tick rule
//! (DESIGN.md §8):
//!
//! 1. entries due at one tick run in the order they were scheduled —
//!    crashes are scheduled first, a compute completion when its pebble
//!    starts, and a hop when it is injected;
//! 2. a processor that an entry frees or feeds starts its lowest
//!    `(step, cell)` ready pebble at that tick;
//! 3. a finished pebble's sends go out in route-list order before that
//!    start.
//!
//! Its [`RunOutcome`] therefore equals [`Engine::run_timed`]'s field for
//! field — state, stats, per-pebble completion ticks, and the
//! `events_processed` and `peak_queue_depth` counters, one per calendar
//! entry — and the fuzzer asserts exactly that on every case.
//!
//! What makes it a second implementation is its state and its queue, not
//! its schedule. Per-copy state lives in **structure-of-arrays** form (the
//! private `SoA` struct): one flat array per field, indexed by the plan's
//! dense copy id `copy_off[p] + i`, with dependency rows indexed by
//! `dep_off[p] + k`. The ready set and the received-pebble table are
//! **bitsets**: selection of the next pebble is a word scan over the
//! processor's ready words (bitset ranges are word-padded per processor),
//! and the dependency watermark advances by counting trailing ones.
//! DESIGN.md §15 documents the layout and its invariants.
//!
//! The engine consumes a lowered [`ExecPlan`] — it builds no routing or
//! interning tables of its own, and it takes every plan the event engine
//! takes. Unicast routes and multicast trees (forwarded at every tree
//! node, delivered where the plan's tables say), link jitter, compute
//! costs, memory budgets and fault plans are all honored: link outages
//! time out and retry with exponential backoff, delay spikes stretch
//! transfers, and crashes forfeit the processor's work and re-subscribe
//! its consumers to the nearest surviving copy.
//!
//! [`Engine::run_timed`]: crate::engine::Engine::run_timed

use crate::engine::{
    inject, link_pebbles, mem_stats_of, orphans_of, reroute, CopyRecord, DynSub, LinkSlot, MemLru,
    RunError, RunOutcome, TimingTrace,
};
use crate::faults::FaultRt;
use crate::plan::{DepSrc, ExecPlan, Hot, ProcTables, Routes, SUB_BIT};
use crate::stats::{FaultStats, RunStats};
use overlap_model::{fold64, Db, PebbleValue, ProgramRef, UPDATE_FOLD_SEED, VALUE_FOLD_SEED};
use overlap_net::NodeId;
use std::collections::{BTreeMap, HashMap};

/// A hop: an arrival at node `hop` of a route (when `resend` is false) or
/// a retry of the send *into* that node after a link timeout. The route is
/// subscription `route`, `hop` counting its links from 1, or, when `tree`,
/// multicast tree `route`, `hop` a tree node.
#[derive(Debug, Clone, Copy)]
struct Hop {
    route: u32,
    hop: u32,
    tree: bool,
    step: u32,
    value: PebbleValue,
    attempt: u32,
    resend: bool,
}

/// One calendar entry.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// The processor crashes for good.
    Crash(NodeId),
    /// The processor finishes the next step of its `i`-th held cell.
    Done {
        proc: NodeId,
        i: u32,
    },
    Hop(Hop),
}

#[inline]
fn bit_get(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1u64 << (i % 64)) != 0
}

#[inline]
fn bit_set(words: &mut [u64], i: usize) {
    words[i / 64] |= 1u64 << (i % 64);
}

#[inline]
fn bit_clear(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1u64 << (i % 64));
}

/// Structure-of-arrays per-copy state. Copy-indexed arrays use the
/// plan's dense copy id `copy_off[p] + i`; step-indexed arrays are flat
/// with stride `steps + 1`; dependency rows use `dep_off[p] + k`.
///
/// The ready and claimed bitsets are **word-padded per processor**:
/// processor `p` owns words `[rw_off[p], rw_off[p+1])`, bit `i` of the
/// range being held cell `i`, so one processor's scan never reads another's
/// cells. Dependency-receipt rows are `row_words = ⌈(steps+1)/64⌉` words.
struct SoA {
    next_step: Vec<u32>,
    value_fold: Vec<u64>,
    update_fold: Vec<u64>,
    finished_at: Vec<u64>,
    history: Vec<PebbleValue>,
    dbs: Vec<Db>,
    dep_values: Vec<PebbleValue>,
    dep_watermark: Vec<u32>,
    /// Bit `s` of row `dep_off[p] + k`: pebble `s` of dependency `k`
    /// has been received.
    dep_have: Vec<u64>,
    /// Queueable frontier: bit set ⇔ the cell is in the ready set.
    ready: Vec<u64>,
    /// Claimed flags: set while a cell is queued *or* its pebble is in
    /// flight, so deliveries cannot re-queue an already-claimed cell.
    /// Cleared only when the pebble completes.
    queued: Vec<u64>,
}

/// Array geometry of the [`SoA`] state.
struct Layout {
    /// Copy-id range of processor `p`: `[copy_off[p], copy_off[p+1])`.
    copy_off: Vec<usize>,
    /// Dependency-row range of processor `p`.
    dep_off: Vec<usize>,
    /// Ready/claimed word range of processor `p` (word-aligned).
    rw_off: Vec<usize>,
    stride: usize,
    /// Words per dependency-receipt row: `⌈stride / 64⌉`.
    row_words: usize,
}

impl SoA {
    /// Is held cell `i` of processor `p` ready? Pure walk over the plan's
    /// check tables.
    fn is_ready(&self, lay: &Layout, pt: &ProcTables, p: usize, i: usize, steps: u32) -> bool {
        let (co, dof) = (lay.copy_off[p], lay.dep_off[p]);
        let s = self.next_step[co + i];
        s <= steps
            && pt.checks_at(i, s).iter().all(|&enc| {
                if enc & SUB_BIT != 0 {
                    self.dep_watermark[dof + (enc & !SUB_BIT) as usize] >= s - 1
                } else {
                    self.next_step[co + enc as usize] >= s
                }
            })
    }

    fn requeue(&mut self, lay: &Layout, pt: &ProcTables, p: usize, i: usize, steps: u32) {
        let bit = lay.rw_off[p] * 64 + i;
        if !bit_get(&self.queued, bit) && self.is_ready(lay, pt, p, i, steps) {
            bit_set(&mut self.queued, bit);
            bit_set(&mut self.ready, bit);
        }
    }

    /// Pop processor `p`'s ready cell minimizing `(next_step, index)` —
    /// `next_step` is frozen while a cell is queued. Word scan over the
    /// processor's ready words; the claimed (`queued`) bit stays set until
    /// the pebble completes.
    fn pop_min(&mut self, lay: &Layout, p: usize) -> Option<u32> {
        let (co, rw) = (lay.copy_off[p], lay.rw_off[p]);
        let mut best: Option<(u32, u32)> = None;
        for (w, &bits) in self.ready[rw..lay.rw_off[p + 1]].iter().enumerate() {
            let mut word = bits;
            while word != 0 {
                let i = (w * 64) as u32 + word.trailing_zeros();
                let key = (self.next_step[co + i as usize], i);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
                word &= word - 1;
            }
        }
        let (_, i) = best?;
        bit_clear(&mut self.ready, rw * 64 + i as usize);
        Some(i)
    }

    /// Record receipt of pebble `step` on dependency row `row` and advance
    /// the contiguous watermark by counting trailing ones in the row.
    fn deliver_dep(&mut self, lay: &Layout, row: usize, step: u32, value: PebbleValue, steps: u32) {
        self.dep_values[row * lay.stride + step as usize] = value;
        let bits = &mut self.dep_have[row * lay.row_words..(row + 1) * lay.row_words];
        bit_set(bits, step as usize);
        let mut w = self.dep_watermark[row];
        while w < steps {
            let bit = w as usize + 1;
            let word = bits[bit / 64] >> (bit % 64);
            let ones = (!word).trailing_zeros();
            if ones == 0 {
                break;
            }
            let span = (64 - (bit % 64) as u32).min(steps - w);
            let adv = ones.min(span);
            w += adv;
            if ones < span {
                break;
            }
        }
        self.dep_watermark[row] = w;
    }
}

/// Run the stepped engine over a lowered plan. Takes every plan the event
/// engine takes, and returns what [`Engine::run_timed`] returns on it.
///
/// [`Engine::run_timed`]: crate::engine::Engine::run_timed
pub fn run_stepped(plan: &ExecPlan) -> Result<RunOutcome, RunError> {
    let config = plan.config();
    let guest = plan.guest();
    let host = plan.host();
    let assign = plan.assignment();
    // Bound once, so the loop never goes through the plan's `Cow`s.
    let hot: &Hot = &plan.hot;
    let routes: &Routes = &plan.routes;
    let n = host.num_nodes();
    let steps = guest.steps;
    let stride = steps as usize + 1;
    let program: ProgramRef = guest.program.instantiate();
    let boundary = guest.boundary();
    let bw = config.bandwidth.per_tick(n) as u64;
    let costs = plan.compute_costs();
    let cost_of = |p: usize| -> u64 { costs.map(|c| c[p] as u64).unwrap_or(1) };
    let has_task_costs = guest.has_nonunit_task_costs();
    let has_relays = guest.graph.is_some();

    // ---- array geometry, straight off the plan's tables ----
    let row_words = stride.div_ceil(64);
    let lay = {
        let mut copy_off = Vec::with_capacity(n as usize + 1);
        let mut dep_off = Vec::with_capacity(n as usize + 1);
        let mut rw_off = Vec::with_capacity(n as usize + 1);
        let (mut co, mut dof, mut rw) = (0usize, 0usize, 0usize);
        copy_off.push(0);
        dep_off.push(0);
        rw_off.push(0);
        for pt in &hot.procs {
            co += pt.cells.len();
            dof += pt.dep_cells.len();
            rw += pt.cells.len().div_ceil(64);
            copy_off.push(co);
            dep_off.push(dof);
            rw_off.push(rw);
        }
        Layout {
            copy_off,
            dep_off,
            rw_off,
            stride,
            row_words,
        }
    };
    let total_copies = *lay.copy_off.last().unwrap();
    let total_deps = *lay.dep_off.last().unwrap();
    let total_words = *lay.rw_off.last().unwrap();
    debug_assert_eq!(total_copies, *hot.copy_off.last().unwrap() as usize);

    let kind = program.db_kind();
    let mut soa = SoA {
        next_step: vec![1; total_copies],
        value_fold: vec![VALUE_FOLD_SEED; total_copies],
        update_fold: vec![UPDATE_FOLD_SEED; total_copies],
        finished_at: vec![0; total_copies],
        history: vec![0 as PebbleValue; total_copies * stride],
        dbs: Vec::with_capacity(total_copies),
        dep_values: vec![0 as PebbleValue; total_deps * stride],
        dep_watermark: vec![0; total_deps],
        dep_have: vec![0u64; total_deps * row_words],
        ready: vec![0u64; total_words],
        queued: vec![0u64; total_words],
    };
    for (p, pt) in hot.procs.iter().enumerate() {
        for (i, &c) in pt.cells.iter().enumerate() {
            soa.history[(lay.copy_off[p] + i) * stride] = guest.initial_value(c);
            soa.dbs.push(kind.instantiate(c, guest.seed));
        }
        for (k, &c) in pt.dep_cells.iter().enumerate() {
            let row = lay.dep_off[p] + k;
            soa.dep_values[row * stride] = guest.initial_value(c);
            soa.dep_have[row * row_words] |= 1;
        }
    }
    // Completion tick of step `s` of copy `cid`: `done_at[cid·steps + s−1]`.
    let mut done_at = vec![0u64; total_copies * steps as usize];
    let mut busy = vec![false; n as usize];
    let mut mem: Option<Vec<MemLru>> = config.mem.map(|m| {
        hot.procs
            .iter()
            .map(|pt| MemLru::new(pt.cells.len(), m.budget, m.reload_cost))
            .collect()
    });

    let mut link_slots: Vec<LinkSlot> = vec![LinkSlot::default(); hot.link_delay.len()];
    let mut link_traffic: Vec<u64> = vec![0; hot.link_delay.len()];

    // ---- fault runtime (compiled only for a non-empty plan) ----
    let frt: Option<FaultRt> = match plan.faults() {
        Some(fp) if !fp.is_empty() => Some(FaultRt::build(fp, host)?),
        _ => None,
    };
    let n_orig_subs = hot.sub_link_off.len() - 1;
    let mut crashed: Vec<bool> = vec![false; if frt.is_some() { n as usize } else { 0 }];
    let mut dyn_subs: Vec<DynSub> = Vec::new();
    let mut dyn_out: Vec<Vec<u32>> = Vec::new();
    let mut fstats = FaultStats::default();
    let mut total_forfeited = 0u64;

    // ---- the calendar: `(tick, sequence number)` keys pop the entries
    // due at one tick in the order they were scheduled ----
    let mut calendar: BTreeMap<(u64, u64), Entry> = BTreeMap::new();
    let mut seq = 0u64;
    let mut peak_queue = 0usize;
    macro_rules! sched {
        ($tick:expr, $entry:expr) => {{
            calendar.insert(($tick, seq), $entry);
            seq += 1;
            peak_queue = peak_queue.max(calendar.len());
        }};
    }

    // Route geometry, uniform over original and dynamic subscriptions.
    macro_rules! sub_nlinks {
        ($sid:expr) => {{
            let sid = $sid as usize;
            if sid < n_orig_subs {
                (hot.sub_link_off[sid + 1] - hot.sub_link_off[sid]) as usize
            } else {
                dyn_subs[sid - n_orig_subs].links.len()
            }
        }};
    }
    // Directed link id carrying hop `h` (1-based destination node index).
    macro_rules! sub_link {
        ($sid:expr, $h:expr) => {{
            let sid = $sid as usize;
            if sid < n_orig_subs {
                hot.sub_links[hot.sub_link_off[sid] as usize + $h as usize - 1]
            } else {
                dyn_subs[sid - n_orig_subs].links[$h as usize - 1]
            }
        }};
    }

    // Transmit one pebble over the link into node `hop` of a route,
    // charging bandwidth at `now`; the link's delay is jittered at the
    // departure tick. Under a fault plan: delay spikes stretch the
    // transfer, and one overlapping a down interval is lost — the sender
    // times out at the expected arrival and retries after exponential
    // backoff; failed attempts still consume slots.
    macro_rules! send_hop {
        ($now:expr, $tree:expr, $route:expr, $hop:expr, $step:expr, $value:expr, $attempt:expr) => {{
            let (tree, route, hop): (bool, u32, u32) = ($tree, $route, $hop);
            let lid = if tree {
                hot.tree_edge_lid[route as usize][hop as usize]
            } else {
                sub_link!(route, hop)
            };
            link_traffic[lid as usize] += 1;
            let depart = inject(&mut link_slots[lid as usize], $now, bw);
            let base = config
                .jitter
                .effective(hot.link_delay[lid as usize], lid, depart);
            let mut h = Hop {
                route,
                hop,
                tree,
                step: $step,
                value: $value,
                attempt: 0,
                resend: false,
            };
            match frt.as_ref() {
                None => sched!(depart + base, Entry::Hop(h)),
                Some(f) => {
                    let arrive = depart + base * f.spike_factor(lid, depart);
                    if !f.down_overlap(lid, depart, arrive) {
                        sched!(arrive, Entry::Hop(h));
                    } else {
                        h.attempt = $attempt + 1;
                        h.resend = true;
                        if h.attempt > f.retry.max_attempts {
                            return Err(RunError::RetriesExhausted {
                                link: lid,
                                tick: arrive,
                            });
                        }
                        let back = f.retry.backoff(h.attempt);
                        fstats.retries += 1;
                        fstats.fault_stall_ticks += arrive - $now + back;
                        sched!(arrive + back, Entry::Hop(h));
                    }
                }
            }
        }};
    }

    // An idle processor starts its lowest ready pebble: the memory-budget
    // reload (which advances the LRU, so once per start), then processor
    // speed × task cost.
    macro_rules! start {
        ($p:expr, $tick:expr) => {{
            let p: usize = $p;
            if !busy[p] {
                if let Some(i) = soa.pop_min(&lay, p) {
                    busy[p] = true;
                    let mut c = cost_of(p);
                    if has_task_costs {
                        let s = soa.next_step[lay.copy_off[p] + i as usize];
                        c *= guest.task_cost(hot.procs[p].cells[i as usize], s) as u64;
                    }
                    if let Some(ms) = mem.as_mut() {
                        c += ms[p].touch(i as usize);
                    }
                    sched!(
                        $tick + c,
                        Entry::Done {
                            proc: p as NodeId,
                            i
                        }
                    );
                }
            }
        }};
    }

    // Crashes go in first, so each pops before anything else due at its
    // tick: a pebble finishing exactly at the crash tick does not complete.
    if let Some(f) = frt.as_ref() {
        for (p, &at) in f.crash_at.iter().enumerate() {
            if at != u64::MAX {
                sched!(at, Entry::Crash(p as NodeId));
            }
        }
    }
    for (p, pt) in hot.procs.iter().enumerate() {
        for i in 0..pt.cells.len() {
            soa.requeue(&lay, pt, p, i, steps);
        }
        start!(p, 0);
    }

    let mut remaining: u64 = hot
        .procs
        .iter()
        .map(|pt| pt.cells.len() as u64 * steps as u64)
        .sum();
    let total_compute = remaining;
    let mut makespan = 0u64;
    let mut messages = 0u64;
    let mut pebble_hops = 0u64;
    let mut events_processed = 0u64;
    let mut deps_buf: Vec<PebbleValue> = Vec::with_capacity(guest.max_deps());

    while let Some(((tick, _), entry)) = calendar.pop_first() {
        if remaining == 0 {
            break;
        }
        if tick > config.max_ticks {
            return Err(RunError::TickLimit(config.max_ticks));
        }
        events_processed += 1;
        match entry {
            Entry::Crash(proc) => {
                let p = proc as usize;
                let f = frt.as_ref().expect("crash implies fault plan");
                crashed[p] = true;
                fstats.crashed_procs += 1;
                let pt = &hot.procs[p];
                fstats.lost_copies += pt.cells.len() as u32;
                // Forfeit uncomputed pebbles, including one in flight: its
                // completion is dropped when it pops.
                let forfeited: u64 = soa.next_step[lay.copy_off[p]..lay.copy_off[p + 1]]
                    .iter()
                    .map(|&ns| (steps + 1 - ns) as u64)
                    .sum();
                remaining -= forfeited;
                total_forfeited += forfeited;

                // A column whose every copy is gone is unrecoverable.
                for &c in &pt.cells {
                    let alive = assign.holders(c).iter().any(|&q| !crashed[q as usize]);
                    if !alive {
                        return Err(RunError::ColumnLost { cell: c, tick });
                    }
                }

                // Re-subscribe every consumer this processor was serving to
                // the nearest surviving holder (the paper's redundancy,
                // exploited for recovery).
                let orphans = orphans_of(routes, hot, &dyn_subs, proc, &crashed);
                if !orphans.is_empty() && dyn_out.is_empty() {
                    dyn_out = vec![Vec::new(); total_copies];
                }
                let mut sp_cache = HashMap::new();
                for (cell, dest, dest_dep) in orphans {
                    let (best, links) =
                        reroute(plan, f, &crashed, &mut sp_cache, cell, dest, tick)?;
                    let nhops = links.len() as u64;
                    let src_pt = &hot.procs[best as usize];
                    let pos = src_pt
                        .cells
                        .binary_search(&cell)
                        .expect("holder holds cell");
                    let src_cid = lay.copy_off[best as usize] + pos;
                    let sid = (n_orig_subs + dyn_subs.len()) as u32;
                    let computed = soa.next_step[src_cid] - 1;
                    dyn_subs.push(DynSub {
                        cell,
                        source: best,
                        dest,
                        dest_dep,
                        links,
                    });
                    dyn_out[src_cid].push(sid);
                    fstats.rerouted_subscriptions += 1;
                    // Backfill pebbles the consumer may still be missing,
                    // from its contiguous watermark up to the new source's
                    // progress; duplicate deliveries are idempotent.
                    let w = soa.dep_watermark[lay.dep_off[dest as usize] + dest_dep as usize];
                    for s2 in (w + 1)..=computed {
                        let value = soa.history[src_cid * stride + s2 as usize];
                        messages += 1;
                        pebble_hops += nhops;
                        send_hop!(tick, false, sid, 1, s2, value, 0);
                    }
                }
            }
            Entry::Done { proc, i } => {
                let p = proc as usize;
                // A crashed processor's pebble was forfeited by the crash.
                if frt.is_some() && crashed[p] {
                    continue;
                }
                let (pt, i) = (&hot.procs[p], i as usize);
                let cid = lay.copy_off[p] + i;
                let (cell, s) = (pt.cells[i], soa.next_step[cid]);
                let sm1 = s as usize - 1;
                deps_buf.clear();
                for &src in pt.gather_at(i, s) {
                    deps_buf.push(match src {
                        DepSrc::Boundary { side, offset } => boundary.value(side, offset, s),
                        DepSrc::Own(j) => {
                            soa.history[(lay.copy_off[p] + j as usize) * stride + sm1]
                        }
                        DepSrc::Sub(k) => {
                            soa.dep_values[(lay.dep_off[p] + k as usize) * stride + sm1]
                        }
                    });
                }
                let (val, u) = if has_relays && guest.is_relay(cell, s) {
                    (deps_buf[0], overlap_model::DbUpdate::None)
                } else {
                    program.compute(cell, s, &soa.dbs[cid], &deps_buf)
                };
                soa.dbs[cid].apply(&u);
                soa.history[cid * stride + s as usize] = val;
                soa.value_fold[cid] = fold64(soa.value_fold[cid], val);
                soa.update_fold[cid] = fold64(soa.update_fold[cid], u.digest());
                soa.next_step[cid] = s + 1;
                bit_clear(&mut soa.queued, lay.rw_off[p] * 64 + i);
                busy[p] = false;
                if s == steps {
                    soa.finished_at[cid] = tick;
                }
                done_at[cid * steps as usize + sm1] = tick;
                remaining -= 1;
                makespan = tick;

                // Sends, in the plan's route-list order, then to the
                // consumers re-subscribed after a crash.
                for &id in &hot.out_ids[hot.out_off[cid] as usize..hot.out_off[cid + 1] as usize] {
                    messages += 1;
                    match routes {
                        Routes::Unicast(_) => {
                            pebble_hops += sub_nlinks!(id) as u64;
                            send_hop!(tick, false, id, 1, s, val, 0);
                        }
                        Routes::Multicast(mt) => {
                            let t = &mt.trees[id as usize];
                            for &child in &t.children[t.root as usize] {
                                pebble_hops += 1;
                                send_hop!(tick, true, id, child, s, val, 0);
                            }
                        }
                    }
                }
                if !dyn_out.is_empty() {
                    for &dsid in &dyn_out[cid] {
                        messages += 1;
                        pebble_hops += sub_nlinks!(dsid) as u64;
                        send_hop!(tick, false, dsid, 1, s, val, 0);
                    }
                }

                // Unblock this column's next step and the held
                // dependents, then start the next pebble.
                soa.requeue(&lay, pt, p, i, steps);
                for idx in pt.own_dep_off[i] as usize..pt.own_dep_off[i + 1] as usize {
                    soa.requeue(&lay, pt, p, pt.own_dependents[idx] as usize, steps);
                }
                start!(p, tick);
            }
            Entry::Hop(h) => {
                let (route, step, value) = (h.route, h.step, h.value);
                if h.resend {
                    send_hop!(tick, h.tree, route, h.hop, step, value, h.attempt);
                    continue;
                }
                // Intermediate processors store-and-forward even if
                // crashed: the fabric outlives the workstation.
                let (dest, k) = if h.tree {
                    let Routes::Multicast(mt) = routes else {
                        unreachable!("tree hop on a unicast plan");
                    };
                    let t = &mt.trees[route as usize];
                    for &child in &t.children[h.hop as usize] {
                        pebble_hops += 1;
                        send_hop!(tick, true, route, child, step, value, 0);
                    }
                    let k = hot.tree_deliver_dep[route as usize][h.hop as usize];
                    if k == u32::MAX {
                        continue;
                    }
                    (t.nodes[h.hop as usize], k)
                } else if (h.hop as usize) < sub_nlinks!(route) {
                    send_hop!(tick, false, route, h.hop + 1, step, value, 0);
                    continue;
                } else if (route as usize) < n_orig_subs {
                    (
                        hot.sub_dest[route as usize],
                        hot.sub_dest_dep[route as usize],
                    )
                } else {
                    let ds = &dyn_subs[route as usize - n_orig_subs];
                    (ds.dest, ds.dest_dep)
                };
                let (p, k) = (dest as usize, k as usize);
                if frt.is_some() && crashed[p] {
                    continue;
                }
                let pt = &hot.procs[p];
                soa.deliver_dep(&lay, lay.dep_off[p] + k, step, value, steps);
                for idx in pt.dep_dep_off[k] as usize..pt.dep_dep_off[k + 1] as usize {
                    soa.requeue(&lay, pt, p, pt.dep_dependents[idx] as usize, steps);
                }
                start!(p, tick);
            }
        }
    }
    if remaining > 0 {
        return Err(RunError::Deadlock {
            tick: makespan,
            remaining,
        });
    }

    // Crashes scheduled beyond the last pebble still destroy their
    // processor's databases: the surviving set depends only on the fault
    // plan.
    if let Some(f) = frt.as_ref() {
        for (p, &at) in f.crash_at.iter().enumerate() {
            if at != u64::MAX && !crashed[p] {
                crashed[p] = true;
                fstats.crashed_procs += 1;
                fstats.lost_copies += hot.procs[p].cells.len() as u32;
            }
        }
    }

    // ---- collect (crashed processors' copies are lost) ----
    let mut copies = Vec::with_capacity(assign.total_copies());
    let mut ticks = Vec::with_capacity(assign.total_copies());
    for (p, pt) in hot.procs.iter().enumerate() {
        if frt.is_some() && crashed[p] {
            continue;
        }
        for (i, &c) in pt.cells.iter().enumerate() {
            let cid = lay.copy_off[p] + i;
            copies.push(CopyRecord {
                cell: c,
                proc: p as NodeId,
                value_fold: soa.value_fold[cid],
                db_digest: soa.dbs[cid].digest(),
                update_fold: soa.update_fold[cid],
                finished_at: soa.finished_at[cid],
            });
            ticks.push(done_at[cid * steps as usize..(cid + 1) * steps as usize].to_vec());
        }
    }
    let (busiest_link_pebbles, mean_link_pebbles) = link_pebbles(&link_traffic);
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
        total_compute: total_compute - total_forfeited,
        guest_work: guest.total_work(),
        redundancy: assign.redundancy(),
        load: assign.load(),
        active_procs: assign.active_procs(),
        messages,
        pebble_hops,
        subscriptions: plan.num_subscriptions(),
        bandwidth_per_link: bw as u32,
        busiest_link_pebbles,
        mean_link_pebbles,
        events_processed,
        peak_queue_depth: peak_queue as u64,
        queue_clamped_pushes: 0,
        faults: fstats,
        stalls: None,
        mem: mem_stats_of(mem.iter().flatten()),
    };
    Ok(RunOutcome {
        stats,
        copies,
        timing: Some(TimingTrace { ticks }),
        trace: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::Assignment;
    use crate::engine::{Engine, EngineConfig, Jitter};
    use crate::faults::FaultPlan;
    use overlap_model::{GuestSpec, ProgramKind, ReferenceRun};
    use overlap_net::topology::{linear_array, mesh2d};
    use overlap_net::DelayModel;
    use overlap_net::HostGraph;

    fn differential(guest: &GuestSpec, host: &HostGraph, assign: &Assignment) {
        let plan = ExecPlan::build(guest, host, assign, EngineConfig::default()).expect("plan");
        differential_on(&plan);
    }

    /// Stepped equals the timed event run on the whole outcome, and both
    /// validate against the reference. Returns stepped's outcome.
    fn differential_on(plan: &ExecPlan) -> RunOutcome {
        let ev = Engine::from_plan(plan).run_timed().expect("event");
        let st = run_stepped(plan).expect("stepped");
        assert_eq!(st, ev, "stepped diverged from the timed event run");
        let trace = ReferenceRun::execute(plan.guest());
        assert!(crate::validate::validate_run(&trace, &st).is_empty());
        st
    }

    /// Cells 0–7 held twice over a 2×3 mesh, so multicast trees branch
    /// and a single crash is survivable.
    fn redundant_mesh() -> (GuestSpec, HostGraph, Assignment) {
        let guest = GuestSpec::array(8, ProgramKind::KvWorkload, 5, 10);
        let host = mesh2d(2, 3, DelayModel::uniform(1, 7), 3);
        let holders = (0..8).map(|c| vec![c % 6, (c + 3) % 6]).collect();
        (guest, host, Assignment::from_holders(6, 8, holders))
    }

    #[test]
    fn engines_agree_on_multicast_trees() {
        let (guest, host, assign) = redundant_mesh();
        let cfg = EngineConfig {
            multicast: true,
            ..EngineConfig::default()
        };
        let plan = ExecPlan::build(&guest, &host, &assign, cfg).unwrap();
        let st = differential_on(&plan);
        assert!(st.stats.busiest_link_pebbles > 0);
        assert!(st.stats.mean_link_pebbles > 0.0);
    }

    #[test]
    fn engines_agree_under_jitter() {
        let guest = GuestSpec::array(12, ProgramKind::RuleAutomaton { db_size: 8 }, 2, 12);
        let host = linear_array(4, DelayModel::uniform(1, 9), 4);
        let cfg = EngineConfig {
            bandwidth: crate::BandwidthMode::Fixed(1),
            jitter: Jitter::Periodic {
                amplitude_pct: 60,
                period: 3,
            },
            ..EngineConfig::default()
        };
        let assign = Assignment::blocked(4, 12);
        let plan = ExecPlan::build(&guest, &host, &assign, cfg).unwrap();
        let jittered = differential_on(&plan);
        let steady = EngineConfig {
            jitter: Jitter::None,
            ..cfg
        };
        let steady = ExecPlan::build(&guest, &host, &assign, steady).unwrap();
        // Jitter moves the stepped schedule: it is applied, not ignored.
        assert_ne!(
            jittered.stats.makespan,
            run_stepped(&steady).unwrap().stats.makespan
        );
    }

    #[test]
    fn engines_agree_on_multicast_with_a_crash() {
        let (guest, host, assign) = redundant_mesh();
        let cfg = EngineConfig {
            multicast: true,
            ..EngineConfig::default()
        };
        let plan = ExecPlan::build(&guest, &host, &assign, cfg)
            .unwrap()
            .with_faults(FaultPlan::new().crash(1, 12))
            .unwrap();
        let st = differential_on(&plan);
        assert_eq!(st.stats.faults.crashed_procs, 1);
        assert!(st.stats.faults.rerouted_subscriptions > 0);
    }

    #[test]
    fn engines_agree_on_blocked_line() {
        let guest = GuestSpec::array(16, ProgramKind::KvWorkload, 7, 12);
        let host = linear_array(4, DelayModel::uniform(1, 9), 3);
        differential(&guest, &host, &Assignment::blocked(4, 16));
    }

    #[test]
    fn engines_agree_on_redundant_assignments() {
        let guest = GuestSpec::array(12, ProgramKind::RuleAutomaton { db_size: 8 }, 5, 10);
        let host = linear_array(3, DelayModel::constant(12), 0);
        let assign = Assignment::from_cells_of(
            3,
            12,
            vec![
                vec![0, 1, 2, 3, 4, 5],
                vec![4, 5, 6, 7, 8, 9],
                vec![8, 9, 10, 11],
            ],
        );
        differential(&guest, &host, &assign);
    }

    #[test]
    fn engines_agree_on_mesh_guest_and_mesh_host() {
        let guest = GuestSpec::mesh(6, 4, ProgramKind::Relaxation, 2, 8);
        let host = mesh2d(2, 3, DelayModel::uniform(1, 6), 4);
        // strips over the 6 hosts
        let strips = overlap_model::mesh_columns(6, 4);
        let cells_of: Vec<Vec<u32>> = strips.slots.clone();
        differential(&guest, &host, &Assignment::from_cells_of(6, 24, cells_of));
    }

    #[test]
    fn engines_agree_on_ring_guests() {
        let guest = GuestSpec::ring(14, ProgramKind::KvWorkload, 9, 9);
        let host = linear_array(7, DelayModel::uniform(1, 20), 5);
        let fold = overlap_model::ring_fold(14);
        differential(
            &guest,
            &host,
            &Assignment::from_cells_of(7, 14, fold.slots.clone()),
        );
    }

    #[test]
    fn engines_agree_under_compute_costs() {
        let guest = GuestSpec::array(12, ProgramKind::KvWorkload, 3, 10);
        let host = linear_array(4, DelayModel::uniform(1, 8), 2);
        let assign = Assignment::blocked(4, 12);
        let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default())
            .unwrap()
            .with_compute_costs(vec![1u32, 3, 2, 1]);
        let st = differential_on(&plan);
        // Costs slow the run down relative to unit speed.
        let unit = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap();
        let fast = run_stepped(&unit).expect("unit stepped");
        assert!(st.stats.makespan > fast.stats.makespan);
    }

    #[test]
    fn stepped_retries_through_link_outage() {
        let guest = GuestSpec::array(8, ProgramKind::StencilSum, 1, 8);
        let host = linear_array(4, DelayModel::constant(3), 0);
        let assign = Assignment::blocked(4, 8);
        let faults = FaultPlan::new().link_down(1, 2, 5, 30);
        let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default())
            .unwrap()
            .with_faults(faults)
            .unwrap();
        let out = differential_on(&plan);
        assert!(out.stats.faults.retries > 0, "outage must force retries");
        let clean = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap();
        let base = run_stepped(&clean).unwrap();
        assert!(out.stats.makespan >= base.stats.makespan);
    }

    #[test]
    fn stepped_survives_crash_with_redundancy() {
        // Middle columns held twice: crashing one holder reroutes its
        // consumers to the surviving copy.
        let guest = GuestSpec::array(8, ProgramKind::KvWorkload, 11, 12);
        let host = linear_array(3, DelayModel::constant(4), 0);
        let assign = Assignment::from_cells_of(
            3,
            8,
            vec![vec![0, 1, 2, 3], vec![2, 3, 4, 5], vec![4, 5, 6, 7]],
        );
        let faults = FaultPlan::new().crash(1, 20);
        let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default())
            .unwrap()
            .with_faults(faults)
            .unwrap();
        // Surviving copies still validate against the reference.
        let out = differential_on(&plan);
        assert_eq!(out.stats.faults.crashed_procs, 1);
        assert!(out.stats.faults.rerouted_subscriptions > 0);
    }

    #[test]
    fn stepped_reports_column_lost_without_redundancy() {
        let guest = GuestSpec::array(8, ProgramKind::StencilSum, 0, 10);
        let host = linear_array(4, DelayModel::constant(2), 0);
        let assign = Assignment::blocked(4, 8);
        let faults = FaultPlan::new().crash(2, 6);
        let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default())
            .unwrap()
            .with_faults(faults)
            .unwrap();
        let err = run_stepped(&plan).unwrap_err();
        assert!(matches!(err, RunError::ColumnLost { .. }), "{err:?}");
        assert_eq!(Engine::from_plan(&plan).run_timed(), Err(err));
    }

    #[test]
    fn incomplete_assignment_fails_at_plan_build() {
        let guest = GuestSpec::array(4, ProgramKind::StencilSum, 0, 2);
        let host = linear_array(2, DelayModel::constant(1), 0);
        let assign = Assignment::from_cells_of(2, 4, vec![vec![0, 1], vec![3]]);
        let err = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap_err();
        assert_eq!(err, RunError::IncompleteAssignment(vec![2]));
    }

    #[test]
    fn stepped_engine_zero_steps() {
        let guest = GuestSpec::array(4, ProgramKind::StencilSum, 0, 0);
        let host = linear_array(2, DelayModel::constant(5), 0);
        let assign = Assignment::blocked(2, 4);
        let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap();
        assert_eq!(differential_on(&plan).stats.makespan, 0);
    }

    /// The bitset watermark advance must agree with the naive per-step
    /// boolean walk for every receipt pattern, including runs crossing
    /// word boundaries.
    #[test]
    fn watermark_advance_matches_naive_walk() {
        let steps: u32 = 150; // three words of receipt bits
        let stride = steps as usize + 1;
        let row_words = stride.div_ceil(64);
        let lay = Layout {
            copy_off: vec![0, 1],
            dep_off: vec![0, 1],
            rw_off: vec![0, 1],
            stride,
            row_words,
        };
        let mut rng: u64 = 0x5EED;
        for _ in 0..50 {
            let mut soa = SoA {
                next_step: vec![1],
                value_fold: vec![0],
                update_fold: vec![0],
                finished_at: vec![0],
                history: vec![0; stride],
                dbs: vec![overlap_model::DbKind::Counter.instantiate(1, 0)],
                dep_values: vec![0; stride],
                dep_watermark: vec![0],
                dep_have: vec![0; row_words],
                ready: vec![0],
                queued: vec![0],
            };
            soa.dep_have[0] |= 1; // step 0 seeded
            let mut have = vec![false; stride];
            have[0] = true;
            // Deliver a random subset in random order.
            let mut order: Vec<u32> = (1..=steps).collect();
            for i in (1..order.len()).rev() {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                order.swap(i, (rng >> 33) as usize % (i + 1));
            }
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            let keep = (rng >> 33) as usize % order.len();
            for &s in &order[..keep] {
                have[s as usize] = true;
                soa.deliver_dep(&lay, 0, s, 7, steps);
                let mut w = 0u32;
                while (w as usize) < steps as usize && have[w as usize + 1] {
                    w += 1;
                }
                assert_eq!(soa.dep_watermark[0], w, "after delivering {s}");
            }
        }
    }
}
