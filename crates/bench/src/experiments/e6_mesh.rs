//! E6 — Theorems 7/8: emulating an `N`-cell 2-D array on linear hosts and
//! NOWs.
//!
//! Sweep the guest side `m` (N = m²) on a fixed host; the paper predicts
//! slowdown `O(√N·log³N + N^{1/4}·√d_ave·log³N)` — at lab scale the √N
//! term dominates, so the log-log exponent of slowdown vs N should be
//! ≈ 0.5, and work efficiency should hold steady.

use crate::scale::Scale;
use crate::table::{f2, f3, Table};
use overlap_core::{theory, SimReport, Simulation};
use overlap_model::{GuestSpec, ProgramKind, ReferenceRun, ReferenceTrace};
use overlap_net::topology::{linear_array, mesh2d};
use overlap_net::{DelayModel, HostGraph};

/// One grid guest through the builder's default (Theorem 8) placement.
fn simulate(guest: &GuestSpec, host: &HostGraph, trace: &ReferenceTrace) -> SimReport {
    Simulation::of(guest)
        .on(host)
        .build()
        .and_then(|sim| sim.run_with_trace(trace))
        .unwrap_or_else(|e| panic!("{}: {e}", host.name()))
}

/// Run the mesh-emulation sweep.
pub fn run(scale: Scale) -> Table {
    let sides: Vec<u32> = match scale {
        Scale::Quick => vec![6, 12, 24],
        Scale::Full => vec![8, 16, 32, 64, 96],
    };
    let n_host = scale.pick(8u32, 16);
    let steps = scale.pick(12u32, 24);

    let mut t = Table::new(
        format!("E6 · Theorems 7/8 — m×m guest arrays on hosts of {n_host} workstations"),
        &[
            "N = m²",
            "host",
            "slowdown",
            "predicted shape",
            "efficiency",
            "valid",
        ],
    );
    let line_host = linear_array(n_host, DelayModel::uniform(1, 7), 5);
    let mesh_host = mesh2d(
        (n_host as f64).sqrt().ceil() as u32,
        (n_host as f64).sqrt().ceil() as u32,
        DelayModel::uniform(1, 7),
        5,
    );
    let mut pts = Vec::new();
    let runs: Vec<_> = sides
        .iter()
        .map(|&m| {
            let guest = GuestSpec::mesh(m, m, ProgramKind::Relaxation, 3, steps);
            let trace = ReferenceRun::execute(&guest);
            let a = simulate(&guest, &line_host, &trace);
            let b = simulate(&guest, &mesh_host, &trace);
            (m, a, b)
        })
        .collect();
    for (m, a, b) in runs {
        let n_cells = (m as u64) * (m as u64);
        pts.push((n_cells as f64, a.stats.slowdown));
        for (host, r) in [("line", a), ("mesh", b)] {
            t.row(vec![
                n_cells.to_string(),
                host.to_string(),
                f2(r.stats.slowdown),
                f2(theory::t8_predicted(n_cells, r.d_ave)),
                f3(r.stats.efficiency()),
                r.validated.to_string(),
            ]);
        }
    }
    t.note(format!(
        "log-log exponent of slowdown vs N (line host): {:.2}. With the host size fixed, \
         Theorem 7's O(m + m²/n₀) has exponent 0.5 (the √N term) while m ≤ n₀ and 1.0 \
         (the N/n₀ term) beyond — the measured exponent sits between, and the \
         work-preserving N^½ shape is recovered when hosts scale with the guest.",
        theory::loglog_slope(&pts)
    ));
    t
}

/// Higher-dimensional and wraparound grids (the paper's final remark:
/// "Theorem 8 can be generalized to higher dimensional arrays").
pub fn run_higher(scale: Scale) -> Table {
    let n_host = scale.pick(8u32, 16);
    let steps = scale.pick(8u32, 16);
    let host = linear_array(n_host, DelayModel::uniform(1, 7), 5);
    let mut t = Table::new(
        format!("E6b · higher-dimensional guests on a {n_host}-workstation line"),
        &["guest", "cells", "slowdown", "efficiency", "valid"],
    );
    let side = scale.pick(8u32, 16);
    let guests = vec![
        (
            format!("{side}×{side} torus"),
            GuestSpec::torus(side, side, ProgramKind::Relaxation, 3, steps),
        ),
        (
            format!("{side}×{side} mesh"),
            GuestSpec::mesh(side, side, ProgramKind::Relaxation, 3, steps),
        ),
        (
            format!("{s3}×{s3}×{s3} mesh", s3 = side / 2),
            GuestSpec::mesh3(
                side / 2,
                side / 2,
                side / 2,
                ProgramKind::Relaxation,
                3,
                steps,
            ),
        ),
    ];
    for (name, guest) in guests {
        let trace = ReferenceRun::execute(&guest);
        let r = simulate(&guest, &host, &trace);
        t.row(vec![
            name,
            guest.num_cells().to_string(),
            f2(r.stats.slowdown),
            f3(r.stats.efficiency()),
            r.validated.to_string(),
        ]);
    }
    t.note(
        "the torus folds onto the line with the same ring fold as 1-D (slot width 2h); \
         the 3-D mesh assigns whole x-slabs — both validate bit-for-bit against the \
         unit-delay reference and keep the strip-emulation slowdown shape.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn higher_dimensional_guests_validate() {
        let t = run_higher(Scale::Quick);
        assert_eq!(t.rows.len(), 3);
        for r in &t.rows {
            assert_eq!(r[4], "true", "{} failed", r[0]);
        }
    }

    #[test]
    fn mesh_emulation_validates_and_scales_like_sqrt_n() {
        let t = run(Scale::Quick);
        for r in &t.rows {
            assert_eq!(r[5], "true", "row {r:?}");
        }
        // N grows 16× between first and last side; slowdown should grow
        // roughly 4× (√N), well under 10×.
        let line_rows: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| r[1] == "line")
            .map(|r| r[2].parse().unwrap())
            .collect();
        let growth = line_rows.last().unwrap() / line_rows[0];
        assert!(
            growth < 10.0 && growth > 1.5,
            "√N shape violated: {line_rows:?}"
        );
    }
}
