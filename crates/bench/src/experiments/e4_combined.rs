//! E4 — Theorem 5: the combined `O(√d_ave·log³n)` simulation and its
//! crossover against plain OVERLAP (`O(d_ave·log³n)`).
//!
//! On hosts of rising uniform delay the combined strategy's advantage is
//! the `√d_ave` factor: both are comparable at small `d_ave` and the
//! combined strategy must win by a widening factor as `d_ave` grows.

use super::simulate_line_with_trace;
use crate::scale::Scale;
use crate::table::{f2, Table};
use overlap_core::pipeline::Strategy;
use overlap_core::theory;
use overlap_model::{GuestSpec, ProgramKind, ReferenceRun};
use overlap_net::topology::linear_array;
use overlap_net::DelayModel;

/// Run the Theorem 5 crossover sweep.
pub fn run(scale: Scale) -> Table {
    let n = scale.pick(32u32, 64);
    let expansion = scale.pick(2u32, 4);
    let ds: Vec<u64> = match scale {
        Scale::Quick => vec![4, 64, 576],
        Scale::Full => vec![4, 16, 64, 256, 1024, 4096],
    };

    let mut t = Table::new(
        format!("E4 · Theorem 5 — combined √d_ave·polylog vs OVERLAP (n = {n}, L = {expansion})"),
        &[
            "d_ave",
            "overlap slowdown",
            "combined slowdown",
            "overlap/combined",
            "predicted ratio ≈ √d/5",
            "valid",
        ],
    );
    let mut o_pts = Vec::new();
    let mut c_pts = Vec::new();
    let rows: Vec<_> = ds
        .iter()
        .map(|&d| {
            let r = (d as f64).sqrt().floor().max(1.0) as u32;
            // guest sized for the combined pipeline: n·L·√d cells (lab scale)
            let m = (n * expansion * r).min(scale.pick(2048, 16384));
            let steps = (3 * r).max(24);
            let guest = GuestSpec::array(m, ProgramKind::Relaxation, 13, steps);
            let trace = ReferenceRun::execute(&guest);
            let host = linear_array(n, DelayModel::constant(d), 0);
            let o = simulate_line_with_trace(&guest, &host, Strategy::Overlap { c: 4.0 }, &trace)
                .expect("overlap");
            let c = simulate_line_with_trace(
                &guest,
                &host,
                Strategy::Combined { c: 4.0, expansion },
                &trace,
            )
            .expect("combined");
            (d, o, c)
        })
        .collect();
    for (d, o, c) in rows {
        o_pts.push((d as f64, o.stats.slowdown));
        c_pts.push((d as f64, c.stats.slowdown));
        t.row(vec![
            d.to_string(),
            f2(o.stats.slowdown),
            f2(c.stats.slowdown),
            f2(o.stats.slowdown / c.stats.slowdown.max(1e-9)),
            f2((d as f64).sqrt() / 5.0),
            (o.validated && c.validated).to_string(),
        ]);
    }
    t.note(format!(
        "theory: overlap O(d·log³n) = {} vs combined O(√d·log³n) = {} at d = {} — the \
         measured ratio should grow like √d",
        f2(theory::t2_predicted(n, *ds.last().unwrap() as f64)),
        f2(theory::t5_predicted(
            n,
            *ds.last().unwrap() as f64,
            4.0,
            expansion
        )),
        ds.last().unwrap()
    ));
    t.block(crate::plot::ascii_loglog(
        "slowdown vs d_ave (log-log): the Theorem 5 crossover",
        &[("overlap (d)", 'x', &o_pts), ("combined (√d)", 'o', &c_pts)],
        64,
        16,
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combined_wins_at_high_delay() {
        let t = run(Scale::Quick);
        for r in &t.rows {
            assert_eq!(r[5], "true");
        }
        let ratio = t.column_f64("overlap/combined");
        // Advantage must widen with d_ave and exceed 1.5× at the top.
        assert!(
            ratio.last().unwrap() > &1.5,
            "combined should win at high d_ave: {ratio:?}"
        );
        assert!(
            ratio.last().unwrap() > &ratio[0],
            "advantage must widen: {ratio:?}"
        );
    }
}
