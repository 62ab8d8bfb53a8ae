//! Serde round trips of the public configuration and result types —
//! experiment tooling persists these as JSON.

use overlap::model::{DbKind, DbUpdate, GuestSpec, GuestTopology, ProgramKind};
use overlap::net::{topology, DelayModel, HostGraph};
use overlap::sim::engine::{EngineConfig, Jitter};
use overlap::sim::{Assignment, BandwidthMode};

fn roundtrip<T: serde::Serialize + serde::de::DeserializeOwned + PartialEq + std::fmt::Debug>(
    v: &T,
) {
    let json = serde_json::to_string(v).expect("serialize");
    let back: T = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(&back, v);
}

#[test]
fn guest_specs_roundtrip() {
    for spec in [
        GuestSpec::array(16, ProgramKind::KvWorkload, 7, 10),
        GuestSpec::ring(9, ProgramKind::Histogram { buckets: 8 }, 1, 2),
        GuestSpec::mesh(4, 5, ProgramKind::StencilSum, 0, 1),
        GuestSpec::torus(3, 3, ProgramKind::CacheChurn, 2, 4),
        GuestSpec::mesh3(2, 3, 4, ProgramKind::Relaxation, 3, 5),
        GuestSpec::tree(5, ProgramKind::RuleAutomaton { db_size: 16 }, 4, 6),
    ] {
        let json = serde_json::to_string(&spec).unwrap();
        let back: GuestSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.topology, spec.topology);
        assert_eq!(back.program, spec.program);
        assert_eq!(back.seed, spec.seed);
        assert_eq!(back.steps, spec.steps);
    }
}

#[test]
fn host_graphs_roundtrip_with_structure() {
    let g = topology::mesh2d(3, 4, DelayModel::uniform(1, 9), 5);
    let json = serde_json::to_string(&g).unwrap();
    let back: HostGraph = serde_json::from_str(&json).unwrap();
    assert_eq!(back.num_nodes(), g.num_nodes());
    assert_eq!(back.links(), g.links());
    assert_eq!(back.name(), g.name());
    // adjacency survives (spot check)
    assert_eq!(back.neighbours(5), g.neighbours(5));
}

#[test]
fn delay_models_and_db_types_roundtrip() {
    roundtrip(&DelayModel::Bimodal {
        lo: 1,
        hi: 100,
        p_hi: 0.25,
    });
    roundtrip(&DelayModel::Spike {
        base: 1,
        spike: 64,
        period: 8,
    });
    roundtrip(&DbKind::Vec { size: 32 });
    roundtrip(&DbUpdate::Add { key: 7, delta: 9 });
    roundtrip(&GuestTopology::Mesh3D { w: 2, h: 3, d: 4 });
}

#[test]
fn engine_config_roundtrips() {
    roundtrip(&EngineConfig {
        bandwidth: BandwidthMode::Fixed(3),
        max_ticks: 1000,
        multicast: true,
        jitter: Jitter::Periodic {
            amplitude_pct: 30,
            period: 16,
        },
        mem: Some(overlap::sim::engine::MemBudget {
            budget: 2,
            reload_cost: 5,
        }),
    });
}

#[test]
fn assignments_roundtrip() {
    let a = Assignment::from_cells_of(3, 6, vec![vec![0, 1, 2], vec![2, 3, 4], vec![5]]);
    roundtrip(&a);
}

#[test]
fn db_contents_roundtrip() {
    for kind in [DbKind::Counter, DbKind::Vec { size: 8 }, DbKind::Kv] {
        let mut db = kind.instantiate(3, 42);
        db.apply(&DbUpdate::Set { key: 2, value: 9 });
        db.apply(&DbUpdate::Add { key: 5, delta: 4 });
        let json = serde_json::to_string(&db).unwrap();
        let back: overlap::model::Db = serde_json::from_str(&json).unwrap();
        assert_eq!(back.digest(), db.digest());
    }
}
