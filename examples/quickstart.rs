//! Quickstart: hide the latency of a random NOW under a ring computation.
//!
//! Builds a 24-workstation host line whose links mix fast local connections
//! with slow wide-area ones, then simulates a 96-cell unit-delay guest ring
//! under three placement strategies — naive blocked, complementary
//! slackness, and the paper's OVERLAP — validating each against the
//! unit-delay reference and printing the measured slowdowns.
//!
//! Run with: `cargo run --release --example quickstart`

use overlap::net::metrics::DelayStats;
use overlap::{topology, DelayModel, GuestSpec, ProgramKind, Simulation, Strategy};

fn main() {
    // A NOW: mostly delay-1 links, a few delay-200 wide-area hops.
    let host = topology::linear_array(
        24,
        DelayModel::Bimodal {
            lo: 1,
            hi: 200,
            p_hi: 0.15,
        },
        2026,
    );
    let stats = DelayStats::of(&host);
    println!(
        "host: {} — d_ave = {:.1}, d_max = {}",
        host.name(),
        stats.d_ave,
        stats.d_max
    );

    // A unit-delay guest ring of 96 processors, each updating a local
    // key-value database every step, for 64 steps.
    let guest = GuestSpec::ring(96, ProgramKind::KvWorkload, 7, 64);
    println!(
        "guest: ring of {} cells × {} steps (kv-workload)\n",
        guest.num_cells(),
        guest.steps,
    );

    println!(
        "{:<18} {:>9} {:>6} {:>11} {:>9}",
        "strategy", "slowdown", "load", "redundancy", "validated"
    );
    for strategy in [
        Strategy::Blocked,
        Strategy::Slackness,
        Strategy::Overlap { c: 4.0 },
        Strategy::Combined {
            c: 4.0,
            expansion: 2,
        },
    ] {
        let r = Simulation::of(&guest)
            .on(&host)
            .strategy(strategy)
            .build()
            .and_then(|sim| sim.run())
            .expect("simulation");
        println!(
            "{:<18} {:>9.2} {:>6} {:>11.2} {:>9}",
            r.strategy, r.stats.slowdown, r.stats.load, r.stats.redundancy, r.validated
        );
        assert!(
            r.validated,
            "every copy must match the unit-delay reference"
        );
    }
    println!(
        "\nThe combined strategy (Theorem 5) hides the {}-tick worst links by replicating \
         databases across slow boundaries — automatic redundant computation, no \
         programmer-provided slackness required. At this lab scale the combined variant \
         carries OVERLAP's win; see `exp_all e1_overlap` for the pure-OVERLAP regime.",
        stats.d_max
    );
}
