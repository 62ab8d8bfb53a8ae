//! Large-scale stress runs, `#[ignore]`d by default. Run with
//! `cargo test --release --test stress -- --ignored`.

use overlap::{Simulation, Strategy};
/// Run via the builder facade (the old free-function entry points are
/// deprecated).
fn simulate(
    guest: &overlap::GuestSpec,
    host: &overlap::HostGraph,
    strategy: Strategy,
) -> Result<overlap::SimReport, overlap::Error> {
    Simulation::of(guest)
        .on(host)
        .strategy(strategy)
        .build()
        .and_then(|s| s.run())
}

use overlap::model::{GuestSpec, ProgramKind};
use overlap::net::{topology, DelayModel};

#[test]
#[ignore = "multi-second release-mode stress run"]
fn overlap_on_4096_processor_host() {
    let host = topology::linear_array(4096, DelayModel::uniform(1, 32), 9);
    let guest = GuestSpec::array(8192, ProgramKind::Relaxation, 5, 128);
    let r = simulate(&guest, &host, Strategy::Overlap { c: 4.0 }).expect("large overlap run");
    assert!(r.validated);
    assert!(r.stats.slowdown >= 1.0);
}

#[test]
#[ignore = "multi-second release-mode stress run"]
fn mesh_guest_with_65k_cells() {
    let host = topology::linear_array(32, DelayModel::uniform(1, 8), 3);
    let guest = GuestSpec::mesh(256, 256, ProgramKind::Relaxation, 7, 8);
    let r = simulate(&guest, &host, Strategy::Auto).expect("large mesh run");
    assert!(r.validated);
}

#[test]
#[ignore = "multi-second release-mode stress run"]
fn deep_h2_and_cliques_still_validate() {
    let guest = GuestSpec::array(256, ProgramKind::KvWorkload, 5, 32);
    for host in [
        topology::h2_recursive_boxes(16384).graph,
        topology::clique_of_cliques(32),
        topology::geometric(512, 0.12, 200, 11),
    ] {
        let r = simulate(&guest, &host, Strategy::Overlap { c: 4.0 })
            .unwrap_or_else(|e| panic!("{}: {e}", host.name()));
        assert!(r.validated, "{}", host.name());
    }
}

#[test]
#[ignore = "multi-second release-mode stress run"]
fn long_horizon_run_stays_consistent() {
    // 4096 guest steps: watermarks, folds and link slots exercise long
    // histories.
    let host = topology::linear_array(16, DelayModel::uniform(1, 12), 2);
    let guest = GuestSpec::array(64, ProgramKind::CacheChurn, 3, 4096);
    let r = simulate(&guest, &host, Strategy::Halo { halo: 1 }).expect("long run");
    assert!(r.validated);
}
