//! Theorem 8 in action: a 2-D relaxation (heat-diffusion-style) workload
//! on a network of workstations.
//!
//! A 24×24 unit-delay guest array runs an iterative 5-point update; the
//! host is a 9-workstation NOW with random delays. The emulation goes
//! through the paper's pipeline: dilation-3 embedding → OVERLAP over the
//! intermediate array → whole-column strips of the mesh.
//!
//! Run with: `cargo run --release --example mesh_heat`

use overlap::core::mesh::t7_predicted;
use overlap::core::theory;
use overlap::model::{GuestSpec, ProgramKind};
use overlap::net::{topology, DelayModel};
use overlap::Simulation;

fn main() {
    let side = 24u32;
    let guest = GuestSpec::mesh(side, side, ProgramKind::Relaxation, 77, 24);
    let host = topology::random_regular(9, 4, DelayModel::uniform(1, 12), 5);
    println!(
        "guest: {side}×{side} array ({} cells × {} steps)",
        guest.num_cells(),
        guest.steps
    );
    println!("host: {} (bounded degree 4)\n", host.name());

    // The default strategy (Auto) places a grid guest by Theorem 8.
    let r = Simulation::of(&guest)
        .on(&host)
        .build()
        .and_then(|sim| sim.run())
        .expect("mesh emulation");
    println!("slowdown:          {:.2}", r.stats.slowdown);
    println!(
        "load:              {} mesh cells / workstation",
        r.stats.load
    );
    println!("work efficiency:   {:.3}", r.stats.efficiency());
    println!("embedding dilation {}", r.dilation);
    println!(
        "theory shapes:     T7 O(m + m²/n₀) = {:.0}, T8 O(√N·log³N + …) = {:.0}",
        t7_predicted(side, host.num_nodes()),
        theory::t8_predicted(guest.num_cells() as u64, r.d_ave)
    );
    assert!(r.validated, "emulation must reproduce the unit-delay run");
    println!("\nvalidated against the unit-delay 2-D reference ✓");
}
