//! Beyond the paper: a NOW mixing workstation generations.
//!
//! The paper hides *link* latency; real clusters also mix fast and slow
//! machines. This example gives every 6th workstation a 8×-slower CPU,
//! compares the naive blocked partition (gated by the slowest machine)
//! with the speed-weighted partition (shards ∝ speed), and audits both
//! against the unit-delay ground truth.
//!
//! Run with: `cargo run --release --example heterogeneous_cluster`

use overlap::core::baseline::weighted_blocked;
use overlap::model::{GuestSpec, ProgramKind, ReferenceRun};
use overlap::net::{topology, DelayModel};
use overlap::sim::engine::{Engine, EngineConfig};
use overlap::sim::validate::validate_run;
use overlap::sim::{Assignment, ExecPlan};

fn main() {
    let n = 30u32;
    let cells = 4 * n;
    let guest = GuestSpec::array(cells, ProgramKind::Histogram { buckets: 16 }, 9, 48);
    let trace = ReferenceRun::execute(&guest);
    let host = topology::linear_array(n, DelayModel::uniform(1, 4), 3);
    let costs: Vec<u32> = (0..n).map(|p| if p % 6 == 5 { 8 } else { 1 }).collect();
    let slow = costs.iter().filter(|&&c| c > 1).count();
    println!(
        "cluster: {n} workstations, {slow} of them 8× slower; guest {cells} histogram shards × {} rounds\n",
        guest.steps
    );

    for (name, assignment) in [
        ("blocked (speed-blind)", Assignment::blocked(n, cells)),
        ("weighted (shards ∝ speed)", weighted_blocked(&costs, cells)),
    ] {
        let plan = ExecPlan::build(&guest, &host, &assignment, EngineConfig::default())
            .expect("plan")
            .with_compute_costs(costs.clone());
        let out = Engine::from_plan(&plan).run().expect("run");
        let ok = validate_run(&trace, &out).is_empty();
        println!(
            "{name:<28} slowdown {:>7.2}   max shards/machine {:>3}   validated {ok}",
            out.stats.slowdown, out.stats.load
        );
        assert!(ok);
    }
    let total_speed: f64 = costs.iter().map(|&c| 1.0 / c as f64).sum();
    println!(
        "\nwork-balance ideal: {:.2} (total shards / total speed) — the weighted \
         partition tracks it; the blocked one pays the slow machines' full price.",
        cells as f64 / total_speed
    );
}
