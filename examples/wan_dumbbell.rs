//! The classic two-site NOW: two workstation clusters joined by one WAN
//! link. The paper's motivation in one picture — local links are unit-ish,
//! the WAN hop is orders of magnitude slower, and the computation spans
//! both sites.
//!
//! We sweep the WAN delay and show how the automatically chosen placement
//! keeps the slowdown bounded by cluster-local work while the naive
//! partition pays the WAN latency every step.
//!
//! Run with: `cargo run --release --example wan_dumbbell`

use overlap::core::pipeline::{host_as_array, plan_placement, resolve_auto};
use overlap::{topology, GuestSpec, ProgramKind, Simulation, Strategy};

fn main() {
    let (site_a, site_b) = (10u32, 6u32);
    let guest = GuestSpec::array(4 * (site_a + site_b), ProgramKind::KvWorkload, 5, 48);
    println!(
        "two sites ({site_a} + {site_b} workstations), guest {} shards × {} rounds\n",
        guest.num_cells(),
        guest.steps
    );
    println!(
        "{:>9} {:>14} {:>12} {:>12} {:>7}",
        "WAN delay", "auto strategy", "blocked", "auto", "win"
    );
    for wan in [4u64, 64, 1024, 16384] {
        let host = topology::dumbbell(site_a, site_b, wan);
        let (_, delays, _) = host_as_array(&host);
        let picked = resolve_auto(&delays).label();
        let blocked = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Blocked)
            .build()
            .and_then(|sim| sim.run())
            .expect("blocked run");
        let auto = Simulation::of(&guest)
            .on(&host)
            .strategy(Strategy::Auto)
            .build()
            .and_then(|sim| sim.run())
            .expect("auto run");
        assert!(blocked.validated && auto.validated);
        println!(
            "{wan:>9} {picked:>14} {:>12.1} {:>12.1} {:>6.1}x",
            blocked.stats.slowdown,
            auto.stats.slowdown,
            blocked.stats.slowdown / auto.stats.slowdown
        );
        // sanity: the planner is reachable for reporting too
        let _ = plan_placement(&guest, &host, Strategy::Auto).unwrap();
    }
    println!(
        "\nthe WAN hop is paid once per halo-width of guest steps instead of every step — \
         complementary slackness found automatically (no programmer hints)."
    );
}
