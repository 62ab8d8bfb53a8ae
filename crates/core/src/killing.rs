//! §3.1: killing processors and labeling the tree (Lemmas 1–4).
//!
//! * **Stage 1** kills every processor contained in *any* interval whose
//!   total internal delay exceeds `D_k = (n/2^k)·d_ave·c·log n` (a
//!   processor "surrounded by too much delay" is useless: the benefit of
//!   its computing power is nullified by the time to reach it).
//! * **Stage 2** labels the tree bottom-up — leaf = 1 if alive; a node
//!   with two children gets `x₁ + x₂ − m_k`, with one child `x₁`, where
//!   `m_k = n/(c·2^k·log n)` is the overlap size — then kills every
//!   interval whose label is below `2·m_k` (too few live processors).
//! * **Stage 3** relabels the remaining tree with the *children's* overlap
//!   `m_{k+1}` in place of `m_k`; the stage-3 label is the interval's
//!   computing power: the number of guest columns it can simulate.
//!
//! Integerization: the paper's `m_k` is real-valued; we use
//! `⌊len/(c·log₂n)⌋` (which equals `⌊n/(c·2^k·log n)⌋` for power-of-two
//! arrays). Smaller-than-real `m_k` only *increases* labels, so Lemma 2's
//! root bound still holds; runtime validation of the resulting simulation
//! is done by the engine regardless.

use crate::tree::IntervalTree;
use overlap_net::Delay;

/// Parameters of the killing procedure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KillParams {
    /// The paper's constant `c` (any constant > 2 works; larger keeps more
    /// processors alive but shrinks overlaps).
    pub c: f64,
}

impl Default for KillParams {
    fn default() -> Self {
        Self { c: 4.0 }
    }
}

/// The complete result of stages 1–3.
#[derive(Debug, Clone)]
pub struct KillOutcome {
    /// The interval tree (owned; later phases reuse it).
    pub tree: IntervalTree,
    /// Per host position: survived all killing.
    pub alive: Vec<bool>,
    /// Per tree node: removed from `T`.
    pub removed: Vec<bool>,
    /// Stage-2 labels (valid for nodes not removed before stage-2 kill).
    pub label2: Vec<i64>,
    /// Stage-3 labels — the "computing power" used by the assignment.
    pub label3: Vec<i64>,
    /// Processors killed in stage 1.
    pub stage1_killed: usize,
    /// Additional processors killed in stage 2.
    pub stage2_killed: usize,
    /// Average link delay of the array.
    pub d_ave: f64,
    /// `log₂ n` (≥ 1).
    pub log2n: f64,
    /// The constant `c` used.
    pub c: f64,
}

impl KillOutcome {
    /// Live processor count.
    pub fn live(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// The root's stage-3 label `n'`: how many guest columns (slots) the
    /// whole host can simulate.
    pub fn root_label(&self) -> i64 {
        self.label3[0]
    }

    /// The overlap size `m_k` for an interval of `len` positions.
    pub fn m_of_len(&self, len: u32) -> i64 {
        m_of_len(len, self.c, self.log2n)
    }
}

#[inline]
fn m_of_len(len: u32, c: f64, log2n: f64) -> i64 {
    (len as f64 / (c * log2n)).floor() as i64
}

/// Machine-check the Lemma 1–4 obligations on a killing outcome. Returns
/// human-readable violations (empty = all lemmas hold). Integerization
/// slack is accounted for as documented on each check.
pub fn verify_lemmas(out: &KillOutcome) -> Vec<String> {
    let mut v = Vec::new();
    let n = out.tree.n as f64;
    // Lemma 1: at most n/c processors killed in stage 1 (+1 integer slack).
    if out.stage1_killed as f64 > n / out.c + 1.0 {
        v.push(format!(
            "Lemma 1: stage-1 killed {} > n/c = {:.1}",
            out.stage1_killed,
            n / out.c
        ));
    }
    // Lemma 2: root stage-2 label ≥ (1 − 2/c)·n, minus one m_0 of
    // ceil-height slack (integer m_k only increases labels).
    let bound2 = (1.0 - 2.0 / out.c) * n - out.m_of_len(out.tree.n) as f64;
    if (out.label2[0] as f64) < bound2 {
        v.push(format!(
            "Lemma 2: root stage-2 label {} < {:.1}",
            out.label2[0], bound2
        ));
    }
    for (id, node) in out.tree.nodes.iter().enumerate() {
        if out.removed[id] {
            continue;
        }
        // Lemma 3.1/4: remaining labels are ≥ 2·m_k (stage 2) and stage 3
        // dominates stage 2.
        if out.label2[id] < 2 * out.m_of_len(node.len()) {
            v.push(format!(
                "Lemma 3.1: node {id} label₂ {} < 2m_k",
                out.label2[id]
            ));
        }
        if out.label3[id] < out.label2[id] {
            v.push(format!(
                "Lemma 4: node {id} stage-3 label {} < stage-2 {}",
                out.label3[id], out.label2[id]
            ));
        }
        // Lemma 3.2: at least one live child.
        if !node.is_leaf() {
            let l = node.left.unwrap() as usize;
            let r = node.right.unwrap() as usize;
            if out.removed[l] && out.removed[r] {
                v.push(format!("Lemma 3.2: node {id} has no remaining child"));
            }
        }
    }
    // Lemma 4 (root): stage-3 root label ≥ (1 − 2/c)·n − m_0 slack.
    if (out.label3[0] as f64) < bound2 {
        v.push(format!(
            "Lemma 4: root stage-3 label {} < {:.1}",
            out.label3[0], bound2
        ));
    }
    v
}

/// Run stages 1–3 on an `n`-position host array with the given link delays.
pub fn kill_and_label(delays: &[Delay], params: &KillParams) -> KillOutcome {
    let n = delays.len() as u32 + 1;
    assert!(params.c > 2.0, "the paper requires c > 2");
    let tree = IntervalTree::build(n, delays);
    let c = params.c;
    let log2n = (n as f64).log2().max(1.0);
    let d_ave = if delays.is_empty() {
        0.0
    } else {
        delays.iter().sum::<u64>() as f64 / delays.len() as f64
    };

    let num_nodes = tree.len();
    let mut alive = vec![true; n as usize];

    // ---- Stage 1: kill positions inside overweight intervals ----
    // Parent ids precede child ids in construction order, so one forward
    // pass propagates the overweight flag.
    let mut overweight = vec![false; num_nodes];
    for (id, node) in tree.nodes.iter().enumerate() {
        let own = node.delay as f64 > node.len() as f64 * d_ave * c * log2n;
        let inherited = node.parent != u32::MAX && overweight[node.parent as usize];
        overweight[id] = own || inherited;
        if overweight[id] && node.is_leaf() {
            alive[node.lo as usize] = false;
        }
    }
    let stage1_killed = alive.iter().filter(|&&a| !a).count();

    // ---- Stage 2: label bottom-up, then kill low-label intervals ----
    let mut label2 = vec![0i64; num_nodes];
    let mut removed = vec![false; num_nodes]; // "no live processors"
    for &id in tree.bottom_up().iter() {
        let node = &tree.nodes[id as usize];
        if node.is_leaf() {
            if alive[node.lo as usize] {
                label2[id as usize] = 1;
            } else {
                removed[id as usize] = true;
            }
            continue;
        }
        let l = node.left.expect("internal node has left child") as usize;
        let r = node.right.expect("internal node has right child") as usize;
        match (!removed[l], !removed[r]) {
            (true, true) => {
                label2[id as usize] = label2[l] + label2[r] - m_of_len(node.len(), c, log2n)
            }
            (true, false) => label2[id as usize] = label2[l],
            (false, true) => label2[id as usize] = label2[r],
            (false, false) => removed[id as usize] = true,
        }
    }
    // Kill pass: a node is condemned when its label is below 2·m_k or an
    // ancestor is; all positions under condemned nodes die.
    let mut condemned = vec![false; num_nodes];
    for (id, node) in tree.nodes.iter().enumerate() {
        let own = !removed[id] && label2[id] < 2 * m_of_len(node.len(), c, log2n);
        let inherited = node.parent != u32::MAX && condemned[node.parent as usize];
        condemned[id] = own || inherited;
        if condemned[id] && node.is_leaf() {
            alive[node.lo as usize] = false;
        }
    }
    let stage2_killed = alive.iter().filter(|&&a| !a).count() - stage1_killed;

    // Remove nodes whose intervals now hold no live processors.
    let mut live_prefix = vec![0u32; n as usize + 1];
    for i in 0..n as usize {
        live_prefix[i + 1] = live_prefix[i] + alive[i] as u32;
    }
    for (id, node) in tree.nodes.iter().enumerate() {
        let live = live_prefix[node.hi as usize] - live_prefix[node.lo as usize];
        removed[id] = condemned[id] || removed[id] || live == 0;
    }

    // ---- Stage 3: relabel the remaining tree with m_{k+1} ----
    let mut label3 = vec![0i64; num_nodes];
    for &id in tree.bottom_up().iter() {
        if removed[id as usize] {
            continue;
        }
        let node = &tree.nodes[id as usize];
        if node.is_leaf() {
            label3[id as usize] = 1;
            continue;
        }
        let l = node.left.unwrap() as usize;
        let r = node.right.unwrap() as usize;
        // m_{k+1}: the overlap of the children's depth (left child's
        // length is the ceiling half of the node's).
        let m_child = m_of_len(tree.nodes[l].len(), c, log2n);
        match (!removed[l], !removed[r]) {
            (true, true) => label3[id as usize] = label3[l] + label3[r] - m_child,
            (true, false) => label3[id as usize] = label3[l],
            (false, true) => label3[id as usize] = label3[r],
            (false, false) => unreachable!("non-removed node must have a live child"),
        }
    }

    KillOutcome {
        tree,
        alive,
        removed,
        label2,
        label3,
        stage1_killed,
        stage2_killed,
        d_ave,
        log2n,
        c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlap_net::topology::linear_array;
    use overlap_net::DelayModel;

    fn delays_of(n: u32, dm: DelayModel, seed: u64) -> Vec<Delay> {
        linear_array(n, dm, seed)
            .links()
            .iter()
            .map(|l| l.delay)
            .collect()
    }

    #[test]
    fn verify_lemmas_passes_on_many_hosts() {
        for (dm, seeds) in [
            (DelayModel::constant(3), 0..3u64),
            (DelayModel::uniform(1, 100), 0..6),
            (
                DelayModel::HeavyTail {
                    min: 1,
                    alpha: 0.6,
                    cap: 1 << 22,
                },
                0..6,
            ),
            (
                DelayModel::Spike {
                    base: 1,
                    spike: 10_000,
                    period: 13,
                },
                0..3,
            ),
        ] {
            for seed in seeds {
                for n in [31u32, 128, 333] {
                    let d = delays_of(n, dm, seed);
                    let out = kill_and_label(&d, &KillParams::default());
                    let violations = verify_lemmas(&out);
                    assert!(
                        violations.is_empty(),
                        "{} n={n} seed={seed}: {violations:?}",
                        dm.label()
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_delays_kill_nobody() {
        // With constant delays, no interval exceeds D_k (since c·log n > 1).
        let d = delays_of(64, DelayModel::constant(5), 0);
        let out = kill_and_label(&d, &KillParams::default());
        assert_eq!(out.stage1_killed, 0);
        assert_eq!(out.stage2_killed, 0);
        assert_eq!(out.live(), 64);
        assert!(out.root_label() > 0);
    }

    #[test]
    fn lemma_1_bound_on_stage1_kills() {
        // At most n/c processors are killed in stage 1, for any delays.
        for seed in 0..10 {
            let n = 256;
            let d = delays_of(
                n,
                DelayModel::HeavyTail {
                    min: 1,
                    alpha: 0.7,
                    cap: 1 << 20,
                },
                seed,
            );
            let c = 4.0;
            let out = kill_and_label(&d, &KillParams { c });
            assert!(
                out.stage1_killed as f64 <= n as f64 / c + 1.0,
                "seed {seed}: {} killed",
                out.stage1_killed
            );
        }
    }

    #[test]
    fn lemma_2_root_label_bound() {
        // Root stage-2 label ≥ (1 − 2/c)·n (integer m_k only increases it;
        // ceil-height adds at most one m_0 of slack).
        for seed in 0..10 {
            let n = 512u32;
            let d = delays_of(n, DelayModel::uniform(1, 64), seed);
            let c = 4.0;
            let out = kill_and_label(&d, &KillParams { c });
            let bound = (1.0 - 2.0 / c) * n as f64 - out.m_of_len(n) as f64;
            assert!(
                out.label2[0] as f64 >= bound,
                "seed {seed}: root label2 {} < {bound}",
                out.label2[0]
            );
        }
    }

    #[test]
    fn lemma_4_stage3_dominates_stage2() {
        for seed in 0..5 {
            let d = delays_of(256, DelayModel::uniform(1, 100), seed);
            let out = kill_and_label(&d, &KillParams::default());
            for id in 0..out.tree.len() {
                if !out.removed[id] {
                    assert!(
                        out.label3[id] >= out.label2[id],
                        "node {id}: stage3 {} < stage2 {}",
                        out.label3[id],
                        out.label2[id]
                    );
                }
            }
            assert!(
                out.root_label() as f64 >= (1.0 - 2.0 / 4.0) * 256.0 - out.m_of_len(256) as f64
            );
        }
    }

    #[test]
    fn remaining_nodes_have_live_children_and_positive_labels() {
        for seed in 0..5 {
            let d = delays_of(
                200,
                DelayModel::Bimodal {
                    lo: 1,
                    hi: 10_000,
                    p_hi: 0.05,
                },
                seed,
            );
            let out = kill_and_label(&d, &KillParams::default());
            for (id, node) in out.tree.nodes.iter().enumerate() {
                if out.removed[id] {
                    continue;
                }
                assert!(out.label3[id] >= 1, "node {id} label {}", out.label3[id]);
                if !node.is_leaf() {
                    let l = node.left.unwrap() as usize;
                    let r = node.right.unwrap() as usize;
                    assert!(
                        !out.removed[l] || !out.removed[r],
                        "node {id} has both children removed"
                    );
                }
            }
        }
    }

    #[test]
    fn one_giant_delay_kills_an_isolated_region() {
        // A single astronomically slow link in the middle: stage 1 kills at
        // most the processors of small enclosing intervals; the rest of the
        // array survives and the root label stays Θ(n).
        let n = 128u32;
        let mut d = vec![1u64; n as usize - 1];
        d[63] = 1 << 40;
        let out = kill_and_label(&d, &KillParams::default());
        // The overweight intervals are exactly those containing link 63
        // whose D_k threshold is below 2^40 — all of them except possibly
        // the root; killing is confined around the middle.
        assert!(out.alive[0], "far-left processor must survive");
        assert!(
            out.alive[n as usize - 1],
            "far-right processor must survive"
        );
        assert!(out.root_label() as f64 >= 0.25 * n as f64);
    }

    #[test]
    fn leaf_labels_are_one_and_dead_leaves_removed() {
        let d = delays_of(64, DelayModel::uniform(1, 30), 3);
        let out = kill_and_label(&d, &KillParams::default());
        for (pos, &leaf) in out.tree.leaf_of.iter().enumerate() {
            if out.alive[pos] {
                assert!(!out.removed[leaf as usize]);
                assert_eq!(out.label3[leaf as usize], 1);
            } else {
                assert!(out.removed[leaf as usize]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "c > 2")]
    fn c_must_exceed_two() {
        kill_and_label(&[1, 1, 1], &KillParams { c: 2.0 });
    }

    #[test]
    fn singleton_array() {
        let out = kill_and_label(&[], &KillParams::default());
        assert_eq!(out.live(), 1);
        assert_eq!(out.root_label(), 1);
    }
}
