//! §7 exploration: "The case when G and H are both 2-dimensional arrays is
//! also very intriguing but currently beyond our abilities."
//!
//! The paper could not *analyze* this case; we can *measure* it. Host
//! processor `(X, Y)` of a `W × H` uniform-delay-`d` mesh owns a `g × g`
//! block of the `(W·g) × (H·g)` guest mesh plus a redundant *halo ring* of
//! width `ω` cells. Adjacent processors then share `2ω` guest rows/columns,
//! so host links are paid once per `ω` guest steps — but unlike the 1-D
//! case, the redundant work is a ring of area `≈ 4ωg + 4ω²`, so the
//! per-step cost is `(g+2ω)² + Θ(d/ω)`, minimized at `ω ≈ (d/4)^{1/3}`
//! for slowdown `Θ(g² + d^{2/3})` — a `d^{1/3}` advantage over the
//! no-redundancy `Θ(g² + d)`, weaker than the 1-D `√d` because halos cost
//! area, not length. Experiment E11 measures exactly this, handing
//! [`halo2d_assignment`] to the builder as an explicit assignment.

use overlap_net::{Delay, HostGraph};
use overlap_sim::Assignment;

/// The 2-D halo assignment: host node `(X, Y)` of a `W × H` mesh (node id
/// `X·H + Y`) holds guest cells `[X·g − ω, (X+1)·g + ω) ×
/// [Y·g − ω, (Y+1)·g + ω)` of a `(W·g) × (H·g)` guest mesh (cell id
/// `gx·(H·g) + gy`), clipped at the guest edges. `ω = 0` is the blocked
/// partition.
pub fn halo2d_assignment(host_w: u32, host_h: u32, g: u32, omega: u32) -> Assignment {
    assert!(host_w >= 1 && host_h >= 1 && g >= 1);
    let gw = host_w * g;
    let gh = host_h * g;
    let (g64, om) = (g as i64, omega as i64);
    let mut cells_of = Vec::with_capacity((host_w * host_h) as usize);
    for x in 0..host_w as i64 {
        for y in 0..host_h as i64 {
            let x_lo = (x * g64 - om).max(0) as u32;
            let x_hi = (((x + 1) * g64 + om).min(gw as i64)) as u32;
            let y_lo = (y * g64 - om).max(0) as u32;
            let y_hi = (((y + 1) * g64 + om).min(gh as i64)) as u32;
            let mut cells = Vec::with_capacity(((x_hi - x_lo) * (y_hi - y_lo)) as usize);
            for gx in x_lo..x_hi {
                for gy in y_lo..y_hi {
                    cells.push(gx * gh + gy);
                }
            }
            cells_of.push(cells);
        }
    }
    Assignment::from_cells_of(host_w * host_h, gw * gh, cells_of)
}

/// Predicted per-step cost of the 2-D halo strategy:
/// `(g+2ω)² + 2d/max(ω,1)` (compute the extended block, pay the link
/// delay once per ω steps in each dimension).
pub fn predicted_2d(g: u32, omega: u32, d: Delay) -> f64 {
    let side = (g + 2 * omega) as f64;
    side * side + 2.0 * d as f64 / omega.max(1) as f64
}

/// The analytically optimal halo width `ω ≈ (d/4)^{1/3}`.
pub fn optimal_omega(d: Delay) -> u32 {
    ((d as f64 / 4.0).powf(1.0 / 3.0).round() as u32).max(1)
}

/// The 2-D analogue of stage-1 killing: a processor of the `W × H` mesh
/// host dies if *any* enclosing quadtree region's internal link delay
/// exceeds `area · d_ave · c · log₂(W·H)` — slow neighbourhoods are not
/// worth reaching, exactly the paper's §3.1 rationale lifted to two
/// dimensions.
pub fn kill2d(host: &HostGraph, host_w: u32, host_h: u32, c: f64) -> Vec<bool> {
    assert_eq!(host.num_nodes(), host_w * host_h);
    let n = (host_w * host_h) as f64;
    let log2n = n.log2().max(1.0);
    let d_ave = {
        let total: u64 = host.links().iter().map(|l| l.delay).sum();
        total as f64 / host.num_links().max(1) as f64
    };
    let mut alive = vec![true; (host_w * host_h) as usize];
    // Recursive quadtree over the rectangle [x0, x1) × [y0, y1).
    fn recurse(
        host: &HostGraph,
        host_h: u32,
        (x0, x1, y0, y1): (u32, u32, u32, u32),
        d_ave: f64,
        c: f64,
        log2n: f64,
        alive: &mut [bool],
    ) {
        let (w, h) = (x1 - x0, y1 - y0);
        if w == 0 || h == 0 {
            return;
        }
        // Internal delay: links with both endpoints inside the region.
        let inside = |v: u32| {
            let (x, y) = (v / host_h, v % host_h);
            (x0..x1).contains(&x) && (y0..y1).contains(&y)
        };
        let internal: u64 = host
            .links()
            .iter()
            .filter(|l| inside(l.a) && inside(l.b))
            .map(|l| l.delay)
            .sum();
        let area = (w * h) as f64;
        if internal as f64 > area * d_ave * c * log2n {
            for x in x0..x1 {
                for y in y0..y1 {
                    alive[(x * host_h + y) as usize] = false;
                }
            }
            // The whole region is dead; no need to descend.
            return;
        }
        if w == 1 && h == 1 {
            return;
        }
        let xm = x0 + w.div_ceil(2);
        let ym = y0 + h.div_ceil(2);
        let quads = [
            (x0, xm, y0, ym),
            (xm, x1, y0, ym),
            (x0, xm, ym, y1),
            (xm, x1, ym, y1),
        ];
        for q in quads {
            recurse(host, host_h, q, d_ave, c, log2n, alive);
        }
    }
    recurse(
        host,
        host_h,
        (0, host_w, 0, host_h),
        d_ave,
        c,
        log2n,
        &mut alive,
    );
    // Never kill everything: if the root itself tripped, fall back to all
    // alive (degenerate hosts).
    if alive.iter().all(|&a| !a) {
        return vec![true; (host_w * host_h) as usize];
    }
    alive
}

/// Adaptive 2-D assignment: guest cells go to the *nearest live* processor
/// (Voronoi in scaled grid coordinates, killed processors excluded), plus
/// an ω-cell halo: each live processor also holds every guest cell within
/// Chebyshev distance ω of its own region.
pub fn adaptive2d_assignment(
    host: &HostGraph,
    host_w: u32,
    host_h: u32,
    g: u32,
    omega: u32,
    c: f64,
) -> Assignment {
    let alive = kill2d(host, host_w, host_h, c);
    let gw = host_w * g;
    let gh = host_h * g;
    // Owner of each guest cell: nearest live processor centre.
    let live: Vec<u32> = (0..host_w * host_h)
        .filter(|&p| alive[p as usize])
        .collect();
    assert!(!live.is_empty());
    let centre = |p: u32| {
        let (x, y) = (p / host_h, p % host_h);
        (
            x as f64 * g as f64 + g as f64 / 2.0,
            y as f64 * g as f64 + g as f64 / 2.0,
        )
    };
    let mut owner = vec![0u32; (gw * gh) as usize];
    for gx in 0..gw {
        for gy in 0..gh {
            let best = live
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    let (ax, ay) = centre(a);
                    let (bx, by) = centre(b);
                    let da = (gx as f64 + 0.5 - ax).hypot(gy as f64 + 0.5 - ay);
                    let db = (gx as f64 + 0.5 - bx).hypot(gy as f64 + 0.5 - by);
                    da.total_cmp(&db).then(a.cmp(&b))
                })
                .expect("live non-empty");
            owner[(gx * gh + gy) as usize] = best;
        }
    }
    // Holders: owner plus every live processor owning a cell within ω
    // (Chebyshev) — computed cell-by-cell from the owner grid.
    let mut cells_of = vec![Vec::new(); (host_w * host_h) as usize];
    let om = omega as i64;
    for gx in 0..gw as i64 {
        for gy in 0..gh as i64 {
            let cell = (gx as u32) * gh + gy as u32;
            let mut holders = vec![owner[cell as usize]];
            for dx in -om..=om {
                for dy in -om..=om {
                    let (nx, ny) = (gx + dx, gy + dy);
                    if nx < 0 || ny < 0 || nx >= gw as i64 || ny >= gh as i64 {
                        continue;
                    }
                    let o = owner[(nx as u32 * gh + ny as u32) as usize];
                    if !holders.contains(&o) {
                        holders.push(o);
                    }
                }
            }
            for h in holders {
                cells_of[h as usize].push(cell);
            }
        }
    }
    for cells in &mut cells_of {
        cells.sort_unstable();
        cells.dedup();
    }
    Assignment::from_cells_of(host_w * host_h, gw * gh, cells_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlap_net::topology::mesh2d;
    use overlap_net::DelayModel;

    #[test]
    fn halo2d_covers_everything_with_expected_copy_counts() {
        let a = halo2d_assignment(4, 4, 3, 3);
        assert!(a.is_complete());
        // ω = g: interior guest cells are held by up to a 3×3 processor
        // neighbourhood.
        assert_eq!(a.max_copies(), 9);
        // Interior processor holds (g+2ω)² cells.
        // Processor (row 1, col 1) of the 4-wide grid.
        let interior = a.cells_of(4 + 1);
        assert_eq!(interior.len(), 81);
    }

    #[test]
    fn halo2d_zero_is_a_partition() {
        let a = halo2d_assignment(3, 3, 2, 0);
        assert!(a.is_complete());
        assert_eq!(a.redundancy(), 1.0);
        assert_eq!(a.load(), 4);
    }

    #[test]
    fn partial_halo_copies_scale_with_omega() {
        let a1: usize = (0..9)
            .map(|p| halo2d_assignment(3, 3, 4, 1).cells_of(p).len())
            .sum();
        let a2: usize = (0..9)
            .map(|p| halo2d_assignment(3, 3, 4, 2).cells_of(p).len())
            .sum();
        assert!(a2 > a1);
    }

    #[test]
    fn mesh_on_mesh_validates_and_redundancy_wins_at_high_delay() {
        use crate::Simulation;
        use overlap_model::{GuestSpec, ProgramKind, ReferenceRun};
        let (w, h, g, d) = (6, 6, 4, 1024);
        let guest = GuestSpec::mesh(w * g, h * g, ProgramKind::Relaxation, 5, 24);
        let host = mesh2d(w, h, DelayModel::constant(d), 0);
        let trace = ReferenceRun::execute(&guest);
        let run = |omega| {
            Simulation::of(&guest)
                .on(&host)
                .assignment(halo2d_assignment(w, h, g, omega))
                .build()
                .and_then(|sim| sim.run_with_trace(&trace))
                .unwrap()
        };
        let blocked = run(0);
        let (omega, best) = [2u32, 4, 6]
            .iter()
            .map(|&om| (om, run(om)))
            .min_by(|a, b| a.1.stats.slowdown.total_cmp(&b.1.stats.slowdown))
            .unwrap();
        assert!(blocked.validated && best.validated);
        assert!(
            best.stats.slowdown < 0.6 * blocked.stats.slowdown,
            "2-D halo (ω={omega}) {} vs blocked {}",
            best.stats.slowdown,
            blocked.stats.slowdown
        );
    }

    #[test]
    fn kill2d_spares_uniform_hosts_and_kills_catastrophic_pockets() {
        let uniform = mesh2d(6, 6, DelayModel::constant(4), 0);
        let alive = kill2d(&uniform, 6, 6, 4.0);
        assert!(alive.iter().all(|&a| a), "uniform host must survive");

        // A catastrophic 2×2 pocket at the corner of a 16×16 host: all
        // four internal links are astronomically slow. Like the paper's
        // Lemma 1, only pockets covering less than n/(c·log n) of the area
        // can ever die (a big slow region inflates d_ave and survives by
        // algebra), and 2×2 is the smallest quadtree region that contains
        // links at all — this one must die.
        let (w, h) = (16u32, 16u32);
        let g = pocket_host(w, h);
        let alive = kill2d(&g, w, h, 4.0);
        for p in [0u32, 1, 16, 17] {
            assert!(!alive[p as usize], "pocket cell {p} must die");
        }
        let dead = alive.iter().filter(|&&a| !a).count();
        assert!(
            dead <= (w * h / 4 + 1) as usize,
            "Lemma-1-style bound: {dead} killed"
        );
        assert!(alive[(w * h - 1) as usize], "far corner must live");
    }

    /// A `w × h` mesh whose corner 2×2 block has catastrophic internal
    /// links (everything else delay 2).
    fn pocket_host(w: u32, h: u32) -> HostGraph {
        let mut g = HostGraph::new("pocket", w * h);
        let slow = |a: u32, b: u32| {
            let cell = |v: u32| (v / h, v % h);
            let (ax, ay) = cell(a);
            let (bx, by) = cell(b);
            ax < 2 && ay < 2 && bx < 2 && by < 2
        };
        for x in 0..w {
            for y in 0..h {
                let v = x * h + y;
                if y + 1 < h {
                    g.add_link(v, v + 1, if slow(v, v + 1) { 1_000_000 } else { 2 });
                }
                if x + 1 < w {
                    g.add_link(v, v + h, if slow(v, v + h) { 1_000_000 } else { 2 });
                }
            }
        }
        g
    }

    #[test]
    fn adaptive_assignment_is_complete_and_avoids_the_dead_zone() {
        let (w, h) = (16u32, 16u32);
        let g = pocket_host(w, h);
        let alive = kill2d(&g, w, h, 4.0);
        assert!(alive.iter().any(|&a| !a), "pocket must die");
        let a = adaptive2d_assignment(&g, w, h, 2, 1, 4.0);
        assert!(a.is_complete());
        for p in 0..w * h {
            if !alive[p as usize] {
                assert!(
                    a.cells_of(p).is_empty(),
                    "dead processor {p} must hold nothing"
                );
            }
        }
        // The dead cells' guest blocks went to nearby live processors.
        let total: usize = (0..w * h).map(|p| a.cells_of(p).len()).sum();
        assert!(total as u32 >= w * h * 4, "all guest cells covered");
    }

    #[test]
    fn adaptive_equals_halo_on_uniform_hosts_in_shape() {
        let host = mesh2d(4, 4, DelayModel::constant(3), 0);
        let adaptive = adaptive2d_assignment(&host, 4, 4, 3, 1, 4.0);
        // No killing → Voronoi regions are the natural g×g blocks; with an
        // ω-halo the interior load matches the halo2d structure's scale.
        assert!(adaptive.is_complete());
        let plain = halo2d_assignment(4, 4, 3, 1);
        // Loads comparable within 2×.
        assert!(adaptive.load() <= 2 * plain.load());
        assert!(plain.load() <= 2 * adaptive.load());
    }

    #[test]
    fn predicted_cost_minimizes_near_cube_root() {
        let d = 1024;
        let g = 4;
        let opt = optimal_omega(d);
        assert!((4..=8).contains(&opt), "ω* = {opt}");
        // The predicted curve is U-shaped around ω*.
        assert!(predicted_2d(g, opt, d) <= predicted_2d(g, 1, d));
        assert!(predicted_2d(g, opt, d) <= predicted_2d(g, 4 * opt, d));
    }
}
