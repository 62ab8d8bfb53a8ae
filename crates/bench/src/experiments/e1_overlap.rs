//! E1 — Theorem 2: OVERLAP slowdown is `O(d_ave·log³n)` and *independent
//! of `d_max`*.
//!
//! Two sweeps:
//!
//! * `slowdown vs d_ave` at fixed `n`, uniform delays — the slope should
//!   be ≈ linear in `d_ave` (log-log exponent ≈ 1);
//! * `d_max` stress: hosts with identical `d_ave ≈ 2` but `d_max` rising
//!   by orders of magnitude (spike delays). OVERLAP's measured slowdown
//!   must stay flat while the blocked baseline tracks `d_max`.

use super::simulate_line_with_trace;
use crate::scale::Scale;
use crate::table::{f2, Table};
use overlap_core::pipeline::Strategy;
use overlap_core::theory;
use overlap_model::{GuestSpec, ProgramKind, ReferenceRun};
use overlap_net::topology::linear_array;
use overlap_net::{DelayModel, HostGraph};

fn host_stats(h: &HostGraph) -> (f64, u64) {
    let s = overlap_net::metrics::DelayStats::of(h);
    (s.d_ave, s.d_max)
}

/// Sweep slowdown against `d_ave` at fixed host size.
pub fn run_dave_sweep(scale: Scale) -> Table {
    let n = scale.pick(128u32, 512);
    let steps = scale.pick(48u32, 128);
    let daves: Vec<u64> = match scale {
        Scale::Quick => vec![1, 4, 16],
        Scale::Full => vec![1, 2, 4, 8, 16, 32, 64],
    };
    let guest = GuestSpec::array(n / 2, ProgramKind::Relaxation, 7, steps);
    let trace = ReferenceRun::execute(&guest);

    let mut t = Table::new(
        format!("E1a · Theorem 2 — OVERLAP slowdown vs d_ave (n = {n} hosts)"),
        &[
            "d_ave",
            "d_max",
            "slowdown",
            "predicted O(d·log³n)",
            "load",
            "valid",
        ],
    );
    let rows: Vec<_> = daves
        .iter()
        .map(|&d| {
            let host = linear_array(n, DelayModel::uniform(1, 2 * d.max(1) - 1), 11);
            let (d_ave, d_max) = host_stats(&host);
            let r = simulate_line_with_trace(&guest, &host, Strategy::Overlap { c: 4.0 }, &trace)
                .expect("overlap run");
            (d_ave, d_max, r)
        })
        .collect();
    let mut pts = Vec::new();
    for (d_ave, d_max, r) in rows {
        pts.push((d_ave, r.stats.slowdown));
        t.row(vec![
            f2(d_ave),
            d_max.to_string(),
            f2(r.stats.slowdown),
            f2(theory::t2_predicted(n, d_ave)),
            r.stats.load.to_string(),
            r.validated.to_string(),
        ]);
    }
    let slope = theory::loglog_slope(&pts);
    t.note(format!(
        "log-log slope of slowdown vs d_ave: {slope:.2} (paper predicts ≈ 1 for the \
         O(d_ave·log³n) regime)"
    ));
    t.block(crate::plot::ascii_loglog(
        "OVERLAP slowdown vs d_ave (log-log)",
        &[("measured", 'o', &pts)],
        64,
        16,
    ));
    t
}

/// The `d_max` robustness stress: host families with the *same total
/// delay* (same `d_ave`) but wildly different `d_max` — uniform, bursty
/// (the budget concentrated in periodic spikes), and a single giant
/// mid-array spike. The paper's bound depends only on `d_ave`, so
/// OVERLAP's slowdown must vary far less across the families than the
/// blocked baseline's, which tracks `d_max`.
pub fn run_dmax_stress(scale: Scale) -> Table {
    let n = scale.pick(256u32, 512);
    let steps = scale.pick(48u32, 128);
    let d_bar = 8u64; // per-link delay budget
    let links = (n - 1) as u64;
    // Work-efficient sizing: a guest 4× the host gives the overlap
    // regions real width (in cells), which is what amortizes the spikes.
    let guest = GuestSpec::array(4 * n, ProgramKind::Relaxation, 7, steps);
    let trace = ReferenceRun::execute(&guest);

    // Three hosts with total delay ≈ links·d_bar.
    let period = 16u64;
    let burst_spike = d_bar * period - (period - 1);
    let giant = links * d_bar - (links - 1);
    let hosts: Vec<HostGraph> = vec![
        linear_array(n, DelayModel::constant(d_bar), 0),
        linear_array(
            n,
            DelayModel::Spike {
                base: 1,
                spike: burst_spike,
                period,
            },
            0,
        ),
        overlap_net::topology::line_with_middle_spike(n, giant),
    ];

    let mut t = Table::new(
        format!("E1b · Theorem 2 — d_max robustness at fixed d_ave ≈ {d_bar} (n = {n} hosts)"),
        &[
            "host",
            "d_ave",
            "d_max",
            "overlap slowdown",
            "blocked slowdown",
            "blocked/overlap",
            "valid",
        ],
    );
    let rows: Vec<_> = hosts
        .iter()
        .map(|host| {
            let (d_ave, d_max) = host_stats(host);
            let o = simulate_line_with_trace(&guest, host, Strategy::Overlap { c: 4.0 }, &trace)
                .expect("overlap");
            let b =
                simulate_line_with_trace(&guest, host, Strategy::Blocked, &trace).expect("blocked");
            (host.name().to_string(), d_ave, d_max, o, b)
        })
        .collect();
    let mut overlap_slow = Vec::new();
    let mut blocked_slow = Vec::new();
    for (name, d_ave, d_max, o, b) in rows {
        overlap_slow.push(o.stats.slowdown);
        blocked_slow.push(b.stats.slowdown);
        t.row(vec![
            name,
            f2(d_ave),
            d_max.to_string(),
            f2(o.stats.slowdown),
            f2(b.stats.slowdown),
            f2(b.stats.slowdown / o.stats.slowdown.max(1e-9)),
            (o.validated && b.validated).to_string(),
        ]);
    }
    let spread = |v: &[f64]| {
        v.iter().cloned().fold(f64::MIN, f64::max)
            / v.iter().cloned().fold(f64::MAX, f64::min).max(1e-9)
    };
    t.note(format!(
        "same d_ave, d_max varies {:.0}×: OVERLAP slowdown spread {:.2}× vs blocked spread \
         {:.2}× — the bound depends on d_ave, not d_max",
        giant as f64 / d_bar as f64,
        spread(&overlap_slow),
        spread(&blocked_slow),
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dave_sweep_shape() {
        let t = run_dave_sweep(Scale::Quick);
        assert_eq!(t.rows.len(), 3);
        // all validated
        for r in &t.rows {
            assert_eq!(r[5], "true");
        }
        // slowdown grows with d_ave
        let s = t.column_f64("slowdown");
        assert!(s[0] < s[2], "slowdown must rise with d_ave: {s:?}");
    }

    #[test]
    fn dmax_stress_overlap_is_flatter_than_blocked() {
        let t = run_dmax_stress(Scale::Quick);
        for r in &t.rows {
            assert_eq!(r[6], "true", "row {r:?}");
        }
        let o = t.column_f64("overlap slowdown");
        let b = t.column_f64("blocked slowdown");
        // Across hosts of equal d_ave, d_max rises by orders of magnitude:
        // OVERLAP's spread must be a fraction of the blocked baseline's.
        let spread = |v: &[f64]| {
            v.iter().cloned().fold(f64::MIN, f64::max) / v.iter().cloned().fold(f64::MAX, f64::min)
        };
        assert!(
            spread(&o) < spread(&b) / 2.0,
            "overlap spread {:.2} vs blocked spread {:.2}",
            spread(&o),
            spread(&b)
        );
        // And OVERLAP must win outright on the giant-spike host.
        let last = t.rows.last().unwrap();
        let ratio: f64 = last[5].parse().unwrap();
        assert!(ratio > 1.5, "blocked/overlap on giant spike: {ratio}");
    }
}
