//! End-to-end integration: every strategy × every program family ×
//! several host families, all validated against the unit-delay reference.

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
use overlap::net::{topology, DelayModel, HostGraph};

fn hosts() -> Vec<HostGraph> {
    let dm = DelayModel::uniform(1, 12);
    vec![
        topology::linear_array(12, dm, 1),
        topology::ring(12, dm, 2),
        topology::mesh2d(4, 3, dm, 3),
        topology::binary_tree(4, dm, 4),
        topology::random_regular(12, 3, dm, 5),
    ]
}

fn strategies() -> Vec<Strategy> {
    vec![
        Strategy::Overlap { c: 4.0 },
        Strategy::Halo { halo: 1 },
        Strategy::Combined {
            c: 4.0,
            expansion: 2,
        },
        Strategy::Blocked,
        Strategy::Slackness,
    ]
}

#[test]
fn line_guests_validate_everywhere() {
    let guest = GuestSpec::array(30, ProgramKind::KvWorkload, 9, 12);
    for host in hosts() {
        for s in strategies() {
            let r = simulate(&guest, &host, s)
                .unwrap_or_else(|e| panic!("{} × {}: {e}", host.name(), s.label()));
            assert!(
                r.validated,
                "{} × {}: {} mismatches",
                host.name(),
                r.strategy,
                r.mismatches
            );
        }
    }
}

#[test]
fn ring_guests_validate_everywhere() {
    let guest = GuestSpec::ring(26, ProgramKind::RuleAutomaton { db_size: 8 }, 4, 10);
    for host in hosts() {
        let r = simulate(&guest, &host, Strategy::Overlap { c: 4.0 })
            .unwrap_or_else(|e| panic!("{}: {e}", host.name()));
        assert!(r.validated, "{}", host.name());
    }
}

#[test]
fn every_program_kind_validates() {
    let host = topology::linear_array(8, DelayModel::uniform(1, 20), 7);
    for pk in [
        ProgramKind::StencilSum,
        ProgramKind::RuleAutomaton { db_size: 16 },
        ProgramKind::KvWorkload,
        ProgramKind::Relaxation,
    ] {
        let guest = GuestSpec::array(24, pk, 3, 16);
        let r = simulate(&guest, &host, Strategy::Overlap { c: 4.0 }).unwrap();
        assert!(r.validated, "{pk:?}");
    }
}

#[test]
fn mesh_guests_validate_on_every_host() {
    let guest = GuestSpec::mesh(6, 5, ProgramKind::KvWorkload, 11, 8);
    for host in hosts() {
        let r = simulate(&guest, &host, Strategy::Auto)
            .unwrap_or_else(|e| panic!("{}: {e}", host.name()));
        assert!(r.validated, "{}", host.name());
    }
}

#[test]
fn adversarial_hosts_still_validate() {
    let guest = GuestSpec::array(32, ProgramKind::Relaxation, 5, 12);
    for host in [
        topology::h1_lower_bound(64),
        topology::clique_of_cliques(6),
        topology::h2_recursive_boxes(256).graph,
    ] {
        let r = simulate(&guest, &host, Strategy::Overlap { c: 4.0 })
            .unwrap_or_else(|e| panic!("{}: {e}", host.name()));
        assert!(r.validated, "{}", host.name());
    }
}

#[test]
fn slowdown_never_below_work_floor() {
    // makespan ≥ guest_work / host_procs: a processor computes at most one
    // pebble per tick.
    let guest = GuestSpec::array(40, ProgramKind::Relaxation, 5, 20);
    for host in hosts() {
        for s in strategies() {
            let r = simulate(&guest, &host, s).unwrap();
            let floor = guest.total_work() as f64 / host.num_nodes() as f64;
            assert!(
                r.stats.makespan as f64 >= floor,
                "{} × {}: makespan {} below work floor {floor}",
                host.name(),
                r.strategy,
                r.stats.makespan
            );
        }
    }
}
