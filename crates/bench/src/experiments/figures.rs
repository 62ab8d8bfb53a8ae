//! Figures 1–6 regenerated as data.
//!
//! The paper's figures are conceptual diagrams; each function here emits
//! the underlying structure as a table so the construction can be
//! inspected and diffed.

use crate::table::{f2, f3, Table};
use overlap_core::killing::{kill_and_label, verify_lemmas, KillParams};
use overlap_core::lower::zigzag_path;
use overlap_core::uniform::region_census;
use overlap_model::{Dep, GuestSpec, ProgramKind};
use overlap_net::metrics::DelayStats;
use overlap_net::topology::{h2_recursive_boxes, linear_array};
use overlap_net::DelayModel;

/// Figure 1 — the computation of pebbles: dependency lists of a sample of
/// pebbles of a line guest.
pub fn figure1() -> Table {
    let spec = GuestSpec::array(6, ProgramKind::StencilSum, 1, 3);
    let mut t = Table::new(
        "F1 · Figure 1 — pebble dependencies, 6-cell line guest",
        &["pebble (cell,t)", "depends on"],
    );
    for cell in 0..spec.num_cells() {
        let deps: Vec<String> = spec
            .topology
            .deps(cell)
            .iter()
            .map(|d| match d {
                Dep::Cell(c) => format!("({c},t−1)"),
                Dep::Boundary { side, offset } => format!("virtual[{side:?},{offset}]"),
            })
            .collect();
        t.row(vec![format!("({cell},t)"), deps.join(", ")]);
    }
    t.note("edge cells depend on virtual boundary pebbles known at time 0 (§3.2)");
    t
}

/// Figure 2 — killed processors and tree labels on a sample host.
pub fn figure2() -> Table {
    let n = 64u32;
    let host = linear_array(
        n,
        DelayModel::Bimodal {
            lo: 1,
            hi: 4000,
            p_hi: 0.06,
        },
        13,
    );
    let delays: Vec<u64> = host.links().iter().map(|l| l.delay).collect();
    let out = kill_and_label(&delays, &KillParams::default());
    let mut t = Table::new(
        format!("F2 · Figure 2 — killing & labeling, n = {n} bimodal host"),
        &["depth", "intervals", "removed", "min label₃", "max label₃"],
    );
    let max_depth = out.tree.height;
    for depth in 0..=max_depth {
        let nodes: Vec<usize> = (0..out.tree.len())
            .filter(|&i| out.tree.nodes[i].depth == depth)
            .collect();
        let removed = nodes.iter().filter(|&&i| out.removed[i]).count();
        let labels: Vec<i64> = nodes
            .iter()
            .filter(|&&i| !out.removed[i])
            .map(|&i| out.label3[i])
            .collect();
        t.row(vec![
            depth.to_string(),
            nodes.len().to_string(),
            removed.to_string(),
            labels.iter().min().map_or("—".into(), |x| x.to_string()),
            labels.iter().max().map_or("—".into(), |x| x.to_string()),
        ]);
    }
    t.note(format!(
        "stage-1 killed {} processors, stage-2 killed {}, root label n' = {} of n = {n}; \
         Lemma 1–4 checker: {} violations",
        out.stage1_killed,
        out.stage2_killed,
        out.root_label(),
        verify_lemmas(&out).len()
    ));
    t
}

/// Figure 3 — the recursive boxes `B_{k+1}`, `B'_{k+1}` and the overlap.
pub fn figure3() -> Table {
    let n = 256u32;
    let delays = vec![2u64; n as usize - 1];
    let out = kill_and_label(&delays, &KillParams::default());
    let mut t = Table::new(
        "F3 · Figure 3 — recursive box structure at the top of the tree (uniform host)",
        &["depth k", "interval len", "label x", "overlap m_{k+1}"],
    );
    // Walk the leftmost spine of the tree.
    let mut id = 0u32;
    loop {
        let node = &out.tree.nodes[id as usize];
        let m_child = out.m_of_len(node.len().div_ceil(2));
        t.row(vec![
            node.depth.to_string(),
            node.len().to_string(),
            out.label3[id as usize].to_string(),
            if node.is_leaf() {
                "—".into()
            } else {
                m_child.to_string()
            },
        ]);
        match node.left {
            Some(l) if !out.removed[l as usize] => id = l,
            _ => break,
        }
        if out.tree.nodes[id as usize].depth > 6 {
            break;
        }
    }
    t.note(
        "x = x₁ + x₂ − m_{k+1}: the m_{k+1} middle databases are held by both child \
         intervals — the overlap of boxes B_{k+1} and B'_{k+1} in Figure 3",
    );
    t
}

/// Figure 4 — the Theorem 4 regions: trapezium/triangle census.
pub fn figure4() -> Table {
    let mut t = Table::new(
        "F4 · Figure 4 — Theorem 4 region census per √d-step round",
        &[
            "r = √d",
            "region |P_j|",
            "trapezium T",
            "triangle L",
            "triangle R",
            "exchanged/side",
        ],
    );
    for r in [2u32, 4, 8, 16, 32] {
        let c = region_census(r);
        t.row(vec![
            r.to_string(),
            c.region.to_string(),
            c.trapezium.to_string(),
            c.left_triangle.to_string(),
            c.right_triangle.to_string(),
            c.exchanged_per_side.to_string(),
        ]);
    }
    t.note(
        "T computes without communication (2d steps); columns B/C out and A/D in \
            (pipelined, < 2d); then L and R (d steps): 5d per √d guest steps = 5√d slowdown",
    );
    t
}

/// Figure 5 — the H2 construction: per-level edge inventory.
pub fn figure5() -> Table {
    let n = 4096u32;
    let h2 = h2_recursive_boxes(n);
    let stats = DelayStats::of(&h2.graph);
    let mut t = Table::new(
        format!("F5 · Figure 5 — H2({n}): recursive boxes, d = {}", h2.d),
        &[
            "level ℓ",
            "segments",
            "segment size",
            "delay-1 edges",
            "delay-d edges in level",
        ],
    );
    for l in 1..=h2.k {
        let segs: Vec<_> = h2.segments.iter().filter(|s| s.level == l).collect();
        let seg_size = segs.first().map_or(0, |s| s.nodes.len());
        let delay1 = segs.iter().map(|s| 2 * s.nodes.len()).sum::<usize>();
        t.row(vec![
            l.to_string(),
            segs.len().to_string(),
            seg_size.to_string(),
            delay1.to_string(),
            (1u64 << l).to_string(),
        ]);
    }
    t.note(format!(
        "{} processors, d_ave = {} (constant), d_max = {} — \"H2 has Θ(n) processors and \
         constant average delay\"",
        h2.graph.num_nodes(),
        f2(stats.d_ave),
        stats.d_max
    ));
    t
}

/// Figure 6 — the 4j-pebble zigzag path.
pub fn figure6() -> Table {
    let (i, j, time) = (10i64, 4i64, 50i64);
    let path = zigzag_path(i, j, time);
    let mut t = Table::new(
        format!("F6 · Figure 6 — the 4j-pebble path (i = {i}, j = {j}, t = {time})"),
        &["k", "set", "column", "step"],
    );
    for (k, p) in path.iter().enumerate() {
        t.row(vec![
            (k + 1).to_string(),
            p.set.to_string(),
            p.col.to_string(),
            p.step.to_string(),
        ]);
    }
    t.note(
        "τ₁ ← … ← τ₄ⱼ goes backwards in time, zigzagging on the overlap boundary \
         columns (sets B/C and E/F); computing it forces either one Ω(j·log n) delay or \
         Ω(j) delays of log n (Theorem 10 case 1)",
    );
    t
}

/// Figure 7 (ours) — processor utilization under OVERLAP vs blocked on a
/// spiky host: where the latency hiding actually goes.
pub fn figure7() -> Table {
    use overlap_core::pipeline::{plan_placement, Strategy};
    use overlap_model::GuestSpec;
    use overlap_net::topology::line_with_middle_spike;
    use overlap_sim::engine::Engine;

    let n = 64u32;
    let host = line_with_middle_spike(n, 512);
    let guest = GuestSpec::array(4 * n, ProgramKind::Relaxation, 3, 32);
    let mut t = Table::new(
        "F7 · processor utilization (ours) — giant-spike host, guest 4n",
        &["strategy", "slowdown", "median utilization", "min", "max"],
    );
    for strategy in [Strategy::Overlap { c: 4.0 }, Strategy::Blocked] {
        let placement = plan_placement(&guest, &host, strategy).expect("placement");
        let out = Engine::new(&guest, &host, &placement.assignment, Default::default())
            .run_timed()
            .expect("run");
        let timing = out.timing.as_ref().expect("timing");
        let mut util = timing.utilization(&out.copies, n, out.stats.makespan, None);
        util.retain(|&u| u > 0.0);
        util.sort_by(f64::total_cmp);
        t.row(vec![
            strategy.label(),
            f2(out.stats.slowdown),
            f3(util[util.len() / 2]),
            f3(*util.first().unwrap()),
            f3(*util.last().unwrap()),
        ]);
    }
    t.note(
        "blocked processors idle waiting on the spike (low utilization, high slowdown); \
         OVERLAP keeps them busy on redundant overlap columns — complementary slackness \
         found automatically.",
    );
    t
}

/// Figure 8 (ours) — the OVERLAP assignment map: which host positions hold
/// which guest columns, with the dyadic overlap regions visible as
/// double-held columns.
pub fn figure8() -> Table {
    use overlap_core::overlap::plan_overlap;

    let n = 64u32;
    let delays = vec![2u64; n as usize - 1];
    let plan = plan_overlap(&delays, 4.0, 1).expect("plan");
    let mut t = Table::new(
        format!("F8 · assignment map (ours) — OVERLAP on a uniform {n}-processor line"),
        &["host position", "held guest columns"],
    );
    // Sample positions around the root boundary where the overlap lives.
    let mut holders = vec![0u32; plan.guest_cells as usize];
    for cells in &plan.cells_of_position {
        for &c in cells {
            holders[c as usize] += 1;
        }
    }
    let shared: Vec<u32> = (0..plan.guest_cells)
        .filter(|&c| holders[c as usize] >= 2)
        .collect();
    for pos in (0..n as usize).step_by(8) {
        let cells = &plan.cells_of_position[pos];
        t.row(vec![
            pos.to_string(),
            if cells.is_empty() {
                "(killed)".into()
            } else {
                format!("{cells:?}")
            },
        ]);
    }
    t.note(format!(
        "{} of {} guest columns are held by ≥ 2 processors (the m_k overlaps): {:?}",
        shared.len(),
        plan.guest_cells,
        shared
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_figures_render() {
        let figs: Vec<Table> = crate::experiments::REGISTRY
            .iter()
            .filter(|e| e.module == "figures")
            .map(|e| (e.compute)(crate::Scale::Full).table)
            .collect();
        assert_eq!(figs.len(), 8);
        for f in &figs {
            assert!(!f.rows.is_empty(), "{} has no rows", f.title);
            let md = f.to_markdown();
            assert!(md.contains("|"));
        }
    }

    #[test]
    fn figure1_marks_boundaries() {
        let t = figure1();
        assert!(t.rows[0][1].contains("virtual"));
        assert!(t.rows.last().unwrap()[1].contains("virtual"));
        assert!(!t.rows[2][1].contains("virtual"));
    }

    #[test]
    fn figure4_census_sums() {
        let t = figure4();
        for r in &t.rows {
            let region: u64 = r[1].parse().unwrap();
            let parts: u64 = r[2].parse::<u64>().unwrap()
                + r[3].parse::<u64>().unwrap()
                + r[4].parse::<u64>().unwrap();
            assert_eq!(region, parts);
        }
    }

    #[test]
    fn figure6_path_length() {
        let t = figure6();
        assert_eq!(t.rows.len(), 16); // 4j with j = 4
    }

    #[test]
    fn figure7_overlap_is_busier_and_faster() {
        let t = figure7();
        let slow = t.column_f64("slowdown");
        let med = t.column_f64("median utilization");
        assert!(slow[0] < slow[1], "overlap must beat blocked: {slow:?}");
        assert!(
            med[0] > med[1],
            "overlap must keep processors busier: {med:?}"
        );
    }

    #[test]
    fn figure8_shows_overlap_columns() {
        let t = figure8();
        assert!(t.notes[0].contains("≥ 2 processors"));
        // On a uniform 64-host line with c = 4 there is at least one
        // overlap column (m_0 = 64/24 ≥ 2).
        let count: u32 = t.notes[0]
            .split(" of ")
            .next()
            .unwrap()
            .parse()
            .unwrap_or(0);
        assert!(count >= 1, "{}", t.notes[0]);
    }

    #[test]
    fn figure2_reports_zero_lemma_violations() {
        let t = figure2();
        assert!(t.notes[0].contains("0 violations"), "{}", t.notes[0]);
    }
}
