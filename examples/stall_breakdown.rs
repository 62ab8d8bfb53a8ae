//! Stall attribution: exactly where a simulated NOW spends its ticks.
//!
//! Runs the same guest on the same host twice — once with the fast
//! dependency-respecting pipeline, once with the lockstep-ish blocked
//! placement serialised onto few processors — with the stall-attribution
//! tracer enabled. Every tick of every database copy's lifetime lands in
//! exactly one bucket (compute, dependency, bandwidth, db-order, fault,
//! memory reload, drained) and the buckets partition `[0, makespan)` per
//! copy. These runs have no memory budget, so the six printed shares
//! always sum to 100%.
//!
//! Run with: `cargo run --release --example stall_breakdown`

use overlap::{topology, DelayModel, GuestSpec, ProgramKind, Simulation, StallBreakdown, Strategy};

fn print_breakdown(label: &str, makespan: u64, copies: u64, b: &StallBreakdown) {
    let budget = (makespan * copies) as f64;
    let pct = |t: u64| 100.0 * t as f64 / budget;
    println!(
        "{label:>9}: makespan {makespan:>5} | compute {:>5.1}%  dependency {:>5.1}%  \
         bandwidth {:>5.1}%  db-order {:>5.1}%  fault {:>4.1}%  drained {:>5.1}%",
        pct(b.compute_ticks),
        pct(b.stall_dependency),
        pct(b.stall_bandwidth),
        pct(b.stall_db_order),
        pct(b.stall_fault),
        pct(b.stall_drained),
    );
}

fn main() {
    let host = topology::linear_array(8, DelayModel::uniform(1, 24), 7);
    let guest = GuestSpec::array(32, ProgramKind::KvWorkload, 5, 40);
    println!(
        "host: {} ({} nodes)   guest: {} cells × {} steps\n",
        host.name(),
        host.num_nodes(),
        guest.num_cells(),
        guest.steps
    );

    for (label, strategy) in [
        (
            "combined",
            Strategy::Combined {
                c: 4.0,
                expansion: 2,
            },
        ),
        ("blocked", Strategy::Blocked),
    ] {
        let report = Simulation::of(&guest)
            .on(&host)
            .strategy(strategy)
            .trace()
            .build()
            .and_then(|s| s.run())
            .expect("traced run");
        let trace = report.outcome.trace.as_ref().expect("tracing was on");
        let copies = trace.per_copy.len() as u64;
        let totals = trace.totals;

        // The conservation invariant the tracer guarantees.
        assert_eq!(totals.total(), report.stats.makespan * copies);

        print_breakdown(label, report.stats.makespan, copies, &totals);
        assert!(report.validated);
    }

    println!(
        "\nEvery tick is accounted for — the rows each sum to 100% of the\n\
         copy-time budget (makespan × copies). The same report carries\n\
         per-copy breakdowns and per-link occupancy series; dump it all\n\
         with `overlap-cli --trace-json`."
    );
}
