//! Seeded scenario generators, one per workload.
//!
//! Op `i` of a workload is a pure function of `(seed, i)`, so any op can be
//! regenerated later (the cross-check and the replay do) and nothing is
//! generated in bulk. Each generator is stratified: the *shape* of op `i`
//! (sizes, host family, strategy, program, whether it carries faults) comes
//! from a fixed class table indexed by `i`, and only the details (delays,
//! data, fault times, task-graph edges) come from the seed. Different seeds
//! therefore give different inputs with the same cost mix, which keeps the
//! timing metrics comparable across seeds.

use overlap_core::{ScenarioSpec, Strategy};
use overlap_model::{GuestSpec, ProgramKind, TaskGraph};
use overlap_net::topology::{hypercube, linear_array, mesh2d, random_regular, ring, torus2d};
use overlap_net::{DelayModel, HostGraph};
use overlap_sim::FaultPlan;

/// SplitMix64: tiny, deterministic and dependency-free.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// The independent stream of op `index` in `stream` under `seed`.
    pub fn stream(seed: u64, stream: u64, index: u64) -> Self {
        Rng(mix(seed ^ mix(stream ^ mix(index))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.below(u64::from(hi - lo) + 1) as u32
    }

    /// `k` distinct values of `0..n`, in ascending order (all of them when
    /// `k ≥ n`).
    pub fn sample(&mut self, n: u64, k: usize) -> Vec<u64> {
        let mut all: Vec<u64> = (0..n).collect();
        for i in 0..all.len().min(k) {
            let j = i + self.below((all.len() - i) as u64) as usize;
            all.swap(i, j);
        }
        all.truncate(k);
        all.sort_unstable();
        all
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stream ids: every generator draws from its own stream so that adding a
/// draw to one never shifts another.
pub mod streams {
    pub const INPROC: u64 = 1;
    pub const HIT: u64 = 2;
    pub const COLD: u64 = 3;
    pub const BASE: u64 = 4;
    pub const SAMPLE: u64 = 5;
    pub const REPLAY: u64 = 6;
    /// Class tables are seeded from this alone, never from the run seed.
    pub const CLASS: u64 = 7;
}

const PROGRAMS: [ProgramKind; 4] = [
    ProgramKind::KvWorkload,
    ProgramKind::Relaxation,
    ProgramKind::Histogram { buckets: 8 },
    ProgramKind::CacheChurn,
];

const STRATEGIES: [Strategy; 5] = [
    Strategy::Auto,
    Strategy::Overlap { c: 4.0 },
    Strategy::Halo { halo: 1 },
    Strategy::Combined {
        c: 4.0,
        expansion: 2,
    },
    Strategy::Blocked,
];

const LINE_DELAYS: [DelayModel; 4] = [
    DelayModel::HeavyTail {
        min: 1,
        alpha: 1.5,
        cap: 64,
    },
    DelayModel::Uniform { lo: 1, hi: 16 },
    DelayModel::Bimodal {
        lo: 1,
        hi: 32,
        p_hi: 0.1,
    },
    DelayModel::Constant(4),
];

const HEAVY_TAIL: DelayModel = DelayModel::HeavyTail {
    min: 1,
    alpha: 1.5,
    cap: 64,
};

/// Shape classes of `inproc_cold`; op `i` has class `i % INPROC_CLASSES`.
const INPROC_CLASSES: u64 = 40;

/// `inproc_cold` op `index`: a fresh line or ring guest (10% non-uniform
/// task graphs, 20% with a survivable fault plan) on a line or ring host.
pub fn inproc_cold(seed: u64, index: u64, smoke: bool) -> ScenarioSpec {
    let class = index % INPROC_CLASSES;
    let mut c = Rng::stream(0, streams::CLASS, class);
    let mut r = Rng::stream(seed, streams::INPROC, index);
    let (procs, per_proc, steps) = if smoke {
        (6 + c.range(0, 4), 2, 8)
    } else {
        (c.range(64, 192), c.range(2, 8), c.range(32, 64))
    };
    let program = PROGRAMS[c.below(4) as usize];
    let delays = LINE_DELAYS[c.below(4) as usize];
    let host = if c.below(2) == 0 {
        linear_array(procs, delays, r.next_u64())
    } else {
        ring(procs, delays, r.next_u64())
    };
    let cells = procs * per_proc;
    let ring_guest = c.below(2) == 0;
    let guest = if class % 10 == 9 {
        let graph = TaskGraph::layered_random(procs / 2, 16, 1, 3, r.next_u64());
        GuestSpec::dag(graph, program, r.next_u64())
    } else if ring_guest {
        GuestSpec::ring(cells, program, r.next_u64(), steps)
    } else {
        GuestSpec::array(cells, program, r.next_u64(), steps)
    };
    let strategy = STRATEGIES[c.below(5) as usize];
    let mut spec = ScenarioSpec::new(guest, host);
    spec.strategy = strategy;
    if class % 5 == 2 {
        spec.faults = Some(survivable_faults(&spec.host, steps, &mut r));
    }
    spec
}

/// Plans the daemon caches in `daemon_hit` and `daemon_mixed_rw`.
pub const HIT_BASES: u64 = 8;

/// `(procs, cells)` of each base plan: paper-scale heavy-tail linear arrays.
const BASE_SHAPES: [(u32, u32); HIT_BASES as usize] = [
    (64, 256),
    (64, 512),
    (80, 320),
    (96, 384),
    (96, 768),
    (112, 448),
    (128, 512),
    (128, 1024),
];

/// Base plan `b` of the hit workloads (no faults, no compute costs). Its
/// host comes from the class table, not the seed: with only eight plans, a
/// seeded heavy-tail draw would swing the whole workload's cost (one
/// extreme link flips `Auto` to another strategy). The seed picks the
/// guest's data and every op's variant.
pub fn hit_base(seed: u64, b: u64, smoke: bool) -> ScenarioSpec {
    let mut c = Rng::stream(0, streams::CLASS, 2000 + b);
    let mut r = Rng::stream(seed, streams::BASE, b);
    let (procs, cells, steps) = if smoke {
        (4 + b as u32 % 3, 12, 8)
    } else {
        let (p, c) = BASE_SHAPES[b as usize];
        (p, c, 64)
    };
    let strategy = [
        Strategy::Overlap { c: 4.0 },
        Strategy::Combined {
            c: 4.0,
            expansion: 2,
        },
        Strategy::Auto,
    ][b as usize % 3];
    let host = linear_array(procs, HEAVY_TAIL, c.next_u64());
    let guest = GuestSpec::array(cells, PROGRAMS[b as usize % 4], r.next_u64(), steps);
    let mut spec = ScenarioSpec::new(guest, host);
    spec.strategy = strategy;
    spec
}

/// Hit-workload op `index`: base `index % 8` plus a seeded variant — a
/// fault plan (50%), per-processor compute costs (30%) or nothing (20%).
/// Variants never change the plan key, so every op is a cache hit.
pub fn hit_variant(seed: u64, index: u64, smoke: bool) -> ScenarioSpec {
    let mut spec = hit_base(seed, index % HIT_BASES, smoke);
    let mut r = Rng::stream(seed, streams::HIT, index);
    match (index / HIT_BASES) % 10 {
        0..=4 => {
            let steps = spec.guest.steps;
            spec.faults = Some(survivable_faults(&spec.host, steps, &mut r));
        }
        5..=7 => {
            let procs = spec.host.num_nodes();
            spec.compute_costs = Some((0..procs).map(|_| 1 + r.below(3) as u32).collect());
        }
        _ => {}
    }
    spec
}

/// Shape classes of `daemon_cold`; op `i` has class `i % COLD_CLASSES`.
const COLD_CLASSES: u64 = 16;

/// `daemon_cold` op `index`: a distinct lowering-heavy scenario — a line
/// guest of 2 cells per processor, 2–4 steps, embedded into a mesh, torus,
/// random-regular or hypercube host of 144–400 processors.
pub fn daemon_cold(seed: u64, index: u64, smoke: bool) -> ScenarioSpec {
    let class = index % COLD_CLASSES;
    let mut c = Rng::stream(0, streams::CLASS, 1000 + class);
    let mut r = Rng::stream(seed, streams::COLD, index);
    let delays = DelayModel::Uniform { lo: 1, hi: 8 };
    let host_seed = r.next_u64();
    let host = match (class % 4, smoke) {
        (0, false) => mesh2d(c.range(12, 20), c.range(12, 20), delays, host_seed),
        (1, false) => {
            let w = c.range(12, 20);
            torus2d(w, w, delays, host_seed)
        }
        (2, false) => random_regular(
            2 * c.range(72, 200),
            3 + c.below(2) as u32,
            delays,
            host_seed,
        ),
        (3, false) => hypercube(8, delays, host_seed),
        (0, true) => mesh2d(3, 3, delays, host_seed),
        (1, true) => torus2d(3, 3, delays, host_seed),
        (2, true) => random_regular(10, 3, delays, host_seed),
        _ => hypercube(3, delays, host_seed),
    };
    let steps = c.range(2, 4);
    let cells = 2 * host.num_nodes();
    let guest = GuestSpec::array(cells, PROGRAMS[c.below(4) as usize], r.next_u64(), steps);
    let mut spec = ScenarioSpec::new(guest, host);
    spec.strategy = if c.below(2) == 0 {
        Strategy::Blocked
    } else {
        Strategy::Auto
    };
    spec
}

/// A fault plan every placement survives: link outages and delay spikes
/// only, early in the run and short. Crashes are left out on purpose — on
/// a redundancy-1 placement a crash legitimately loses a column.
fn survivable_faults(host: &HostGraph, steps: u32, r: &mut Rng) -> FaultPlan {
    let links = host.links();
    let horizon = u64::from(steps) * 4;
    let mut plan = FaultPlan::new();
    for _ in 0..1 + r.below(3) {
        let l = links[r.below(links.len() as u64) as usize];
        let from = r.below(horizon);
        plan = plan.link_down(l.a, l.b, from, from + 4 + r.below(24));
    }
    for _ in 0..1 + r.below(2) {
        let l = links[r.below(links.len() as u64) as usize];
        let from = r.below(horizon);
        let factor = 2 + r.below(6) as u32;
        plan = plan.delay_spike(l.a, l.b, from, from + 8 + r.below(32), factor);
    }
    plan
}
