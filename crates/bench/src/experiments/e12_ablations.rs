//! E12 — ablations of the design choices DESIGN.md calls out.
//!
//! * **A1 — halo width**: Theorem 4 fixes the region at 3 blocks
//!   (halo = 1). Sweeping the halo at fixed `d` shows the U-shape:
//!   too little redundancy pays latency, too much pays compute.
//! * **A2 — the killing constant `c`**: Lemma 1 kills ≤ n/c processors;
//!   larger `c` keeps more alive but shrinks every overlap `m_k`.
//! * **A3 — bandwidth**: the paper assumes host links carry `log n`
//!   pebbles/tick and remarks that dropping it costs "an extra factor of
//!   log n". We measure LogN vs Fixed(1).

use super::simulate_line_with_trace;
use crate::scale::Scale;
use crate::table::{f2, Table};
use overlap_core::pipeline::Strategy;
use overlap_model::{GuestSpec, ProgramKind, ReferenceRun};
use overlap_net::topology::linear_array;
use overlap_net::DelayModel;
use overlap_sim::engine::{Engine, EngineConfig, Jitter};
use overlap_sim::validate::validate_run;
use overlap_sim::{Assignment, BandwidthMode};

/// A1: halo width sweep at fixed uniform delay.
pub fn run_halo_width(scale: Scale) -> Table {
    let n = scale.pick(8u32, 16);
    let d = scale.pick(256u64, 1024);
    let r = (d as f64).sqrt() as u32;
    let steps = 4 * r;
    let guest = GuestSpec::array(n * r, ProgramKind::Relaxation, 9, steps);
    let trace = ReferenceRun::execute(&guest);
    let host = linear_array(n, DelayModel::constant(d), 0);

    let mut t = Table::new(
        format!("E12-A1 · halo width ablation (n = {n}, d = {d}, r = √d = {r})"),
        &[
            "halo (blocks)",
            "slowdown",
            "redundancy",
            "work overhead",
            "valid",
        ],
    );
    for halo in [0u32, 1, 2, 3] {
        let rep = simulate_line_with_trace(&guest, &host, Strategy::Halo { halo }, &trace)
            .expect("halo run");
        t.row(vec![
            halo.to_string(),
            f2(rep.stats.slowdown),
            f2(rep.stats.redundancy),
            f2(rep.stats.work_overhead()),
            rep.validated.to_string(),
        ]);
    }
    t.note(
        "halo = 0 pays the Θ(d) dependency cycle; halo = 1 is the paper's choice (regions \
         of 3 blocks, Figure 4); larger halos only add redundant compute once the latency \
         is already amortized — the U-shape bottoms at 1–2.",
    );
    t
}

/// A2: the killing constant `c`.
pub fn run_c_constant(scale: Scale) -> Table {
    let n = scale.pick(256u32, 512);
    let steps = scale.pick(48u32, 96);
    let guest = GuestSpec::array(2 * n, ProgramKind::Relaxation, 7, steps);
    let trace = ReferenceRun::execute(&guest);
    let host = linear_array(
        n,
        DelayModel::HeavyTail {
            min: 1,
            alpha: 0.7,
            cap: 1 << 16,
        },
        3,
    );

    let mut t = Table::new(
        format!("E12-A2 · killing constant c (n = {n}, heavy-tail host)"),
        &["c", "slowdown", "valid"],
    );
    for c in [2.5f64, 3.0, 4.0, 6.0, 10.0] {
        let rep = simulate_line_with_trace(&guest, &host, Strategy::Overlap { c }, &trace)
            .expect("overlap run");
        t.row(vec![
            format!("{c}"),
            f2(rep.stats.slowdown),
            rep.validated.to_string(),
        ]);
    }
    t.note(
        "any c > 2 satisfies the lemmas; small c kills aggressively (risking capacity), \
         large c shrinks the overlaps m_k = n/(c·2^k·log n) that amortize slow links — \
         mid-range c is the sweet spot, and correctness holds throughout.",
    );
    t
}

/// A3: bandwidth ablation — the paper's log n assumption.
pub fn run_bandwidth(scale: Scale) -> Table {
    let n = scale.pick(64u32, 128);
    let steps = scale.pick(48u32, 96);
    let cells = 4 * n;
    let guest = GuestSpec::array(cells, ProgramKind::Relaxation, 5, steps);
    let trace = ReferenceRun::execute(&guest);
    let host = linear_array(n, DelayModel::uniform(1, 15), 3);
    let assign = Assignment::blocked(n, cells);

    let mut t = Table::new(
        format!("E12-A3 · link bandwidth (n = {n}, blocked assignment)"),
        &["bandwidth", "pebbles/tick", "slowdown", "valid"],
    );
    for (label, bw) in [
        ("log n (paper)", BandwidthMode::LogN),
        ("4", BandwidthMode::Fixed(4)),
        ("1 (no assumption)", BandwidthMode::Fixed(1)),
    ] {
        let cfg = EngineConfig {
            bandwidth: bw,
            ..Default::default()
        };
        let out = Engine::new(&guest, &host, &assign, cfg).run().expect("run");
        let ok = validate_run(&trace, &out).is_empty();
        t.row(vec![
            label.to_string(),
            bw.per_tick(n).to_string(),
            f2(out.stats.slowdown),
            ok.to_string(),
        ]);
    }
    t.note(
        "§2: \"P pebbles can be passed along a d-delay link in d + ⌈P/log n⌉ − 1 steps. \
         This assumption can be removed by paying an extra factor of log n in the \
         slowdown\" — serialization at bw = 1 costs more, bounded by that factor.",
    );
    t
}

/// A4: unicast vs multicast column distribution.
pub fn run_multicast(scale: Scale) -> Table {
    use overlap_core::pipeline::plan_placement;
    let n = scale.pick(64u32, 128);
    let steps = scale.pick(32u32, 64);
    let guest = GuestSpec::array(4 * n, ProgramKind::Relaxation, 5, steps);
    let trace = ReferenceRun::execute(&guest);
    let host = linear_array(n, DelayModel::uniform(1, 15), 3);
    let placement = plan_placement(&guest, &host, Strategy::Overlap { c: 4.0 }).expect("placement");

    let mut t = Table::new(
        format!("E12-A4 · unicast vs multicast column distribution (n = {n}, OVERLAP)"),
        &["mode", "slowdown", "messages", "pebble link-hops", "valid"],
    );
    for (label, multicast) in [("unicast", false), ("multicast", true)] {
        let cfg = EngineConfig {
            multicast,
            ..Default::default()
        };
        let out = Engine::new(&guest, &host, &placement.assignment, cfg)
            .run()
            .expect("run");
        let ok = validate_run(&trace, &out).is_empty();
        t.row(vec![
            label.to_string(),
            f2(out.stats.slowdown),
            out.stats.messages.to_string(),
            out.stats.pebble_hops.to_string(),
            ok.to_string(),
        ]);
    }
    t.note(
        "shortest-path trees share route prefixes, so each pebble crosses every tree          link once — the paper's interval scheme does this implicitly; with the log n          bandwidth assumption the makespan difference is small, but the traffic saving          is real and matters at bandwidth 1.",
    );
    t
}

/// A5: time-varying link jitter — correctness is timing-independent; the
/// makespan degrades gracefully with the fluctuation amplitude.
pub fn run_jitter(scale: Scale) -> Table {
    let n = scale.pick(32u32, 64);
    let steps = scale.pick(48u32, 96);
    let cells = 4 * n;
    let guest = GuestSpec::array(cells, ProgramKind::Relaxation, 5, steps);
    let trace = ReferenceRun::execute(&guest);
    let host = linear_array(n, DelayModel::constant(8), 0);
    let assign = Assignment::blocked(n, cells);

    let mut t = Table::new(
        format!("E12-A5 · link-delay jitter (n = {n}, base delay 8)"),
        &["jitter amplitude", "slowdown", "vs steady", "valid"],
    );
    let mut base = 0.0;
    for amp in [0u8, 25, 50, 100] {
        let cfg = EngineConfig {
            jitter: if amp == 0 {
                Jitter::None
            } else {
                Jitter::Periodic {
                    amplitude_pct: amp,
                    period: 32,
                }
            },
            ..Default::default()
        };
        let out = Engine::new(&guest, &host, &assign, cfg).run().expect("run");
        let ok = validate_run(&trace, &out).is_empty();
        if amp == 0 {
            base = out.stats.slowdown;
        }
        t.row(vec![
            format!("±{amp}%"),
            f2(out.stats.slowdown),
            f2(out.stats.slowdown / base.max(1e-9)),
            ok.to_string(),
        ]);
    }
    t.note(
        "every run validates bit-for-bit regardless of timing — the database model's          correctness is placement- and latency-independent — and the makespan moves          sub-linearly in the amplitude because slow phases on some links overlap fast          phases on others.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halo_ablation_is_u_shaped_with_minimum_at_paper_choice() {
        let t = run_halo_width(Scale::Quick);
        let s = t.column_f64("slowdown");
        // halo=1 beats halo=0 decisively and halo=3 is no better than 1.
        assert!(s[1] < 0.7 * s[0], "{s:?}");
        assert!(s[3] >= 0.8 * s[1], "{s:?}");
        for r in &t.rows {
            assert_eq!(r[4], "true");
        }
    }

    #[test]
    fn c_ablation_validates_for_every_c() {
        let t = run_c_constant(Scale::Quick);
        for r in &t.rows {
            assert_eq!(r[2], "true", "c = {}", r[0]);
        }
    }

    #[test]
    fn multicast_never_increases_traffic_and_validates() {
        let t = run_multicast(Scale::Quick);
        for r in &t.rows {
            assert_eq!(r[4], "true");
        }
        let hops = t.column_f64("pebble link-hops");
        assert!(hops[1] <= hops[0], "multicast must not add hops: {hops:?}");
    }

    #[test]
    fn jitter_validates_and_degrades_gracefully() {
        let t = run_jitter(Scale::Quick);
        for r in &t.rows {
            assert_eq!(r[3], "true");
        }
        let rel = t.column_f64("vs steady");
        assert!((rel[0] - 1.0).abs() < 1e-9);
        // ±100% jitter should stay within 2.5× of steady.
        assert!(rel.last().unwrap() < &2.5, "{rel:?}");
    }

    #[test]
    fn bandwidth_one_is_slower_but_bounded_by_log_n_factor() {
        let t = run_bandwidth(Scale::Quick);
        let s = t.column_f64("slowdown");
        assert!(s[2] >= s[0], "bw=1 cannot be faster: {s:?}");
        let log_n = (64f64).log2();
        assert!(
            s[2] <= s[0] * log_n * 2.0,
            "bw=1 slowdown must stay within ~log n of the paper's: {s:?}"
        );
        for r in &t.rows {
            assert_eq!(r[3], "true");
        }
    }
}
