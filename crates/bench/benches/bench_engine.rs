//! Engine throughput: pebbles simulated per second for a standard
//! (guest, host, assignment) scenario, across bandwidth models.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use overlap_model::{GuestSpec, ProgramKind};
use overlap_net::topology::linear_array;
use overlap_net::DelayModel;
use overlap_sim::engine::{Engine, EngineConfig};
use overlap_sim::engine_classic::run_classic;
use overlap_sim::lockstep::run_lockstep;
use overlap_sim::stepped::run_stepped;
use overlap_sim::{Assignment, BandwidthMode, ExecPlan};

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    for &(n, cells, steps) in &[(16u32, 64u32, 64u32), (64, 256, 64), (128, 1024, 64)] {
        let guest = GuestSpec::array(cells, ProgramKind::Relaxation, 3, steps);
        let host = linear_array(n, DelayModel::uniform(1, 7), 5);
        let assign = Assignment::blocked(n, cells);
        let pebbles = cells as u64 * steps as u64;
        g.throughput(Throughput::Elements(pebbles));
        g.bench_with_input(
            BenchmarkId::new("blocked", format!("{n}x{cells}x{steps}")),
            &(),
            |b, _| {
                b.iter(|| {
                    Engine::new(&guest, &host, &assign, EngineConfig::default())
                        .run()
                        .unwrap()
                })
            },
        );
    }
    // Engine-implementation comparison at fixed scenario.
    {
        let guest = GuestSpec::array(256, ProgramKind::Relaxation, 3, 64);
        let host = linear_array(64, DelayModel::uniform(1, 7), 5);
        let assign = Assignment::blocked(64, 256);
        g.bench_function("impl/event", |b| {
            b.iter(|| {
                Engine::new(&guest, &host, &assign, EngineConfig::default())
                    .run()
                    .unwrap()
            })
        });
        let plan = ExecPlan::build(&guest, &host, &assign, EngineConfig::default()).unwrap();
        g.bench_function("impl/stepped", |b| b.iter(|| run_stepped(&plan).unwrap()));
        g.bench_function("impl/lockstep", |b| b.iter(|| run_lockstep(&plan).unwrap()));
        g.bench_function("impl/event-shared-plan", |b| {
            b.iter(|| Engine::from_plan(&plan).run().unwrap())
        });
        g.bench_function("impl/event-classic", |b| {
            b.iter(|| {
                run_classic(&guest, &host, &assign, EngineConfig::default(), None, false).unwrap()
            })
        });
        g.bench_function("impl/event-multicast", |b| {
            let cfg = EngineConfig {
                multicast: true,
                ..Default::default()
            };
            b.iter(|| Engine::new(&guest, &host, &assign, cfg).run().unwrap())
        });
    }

    // Bandwidth-model comparison at fixed scenario.
    let guest = GuestSpec::array(256, ProgramKind::Relaxation, 3, 64);
    let host = linear_array(64, DelayModel::uniform(1, 7), 5);
    let assign = Assignment::blocked(64, 256);
    for bw in [BandwidthMode::LogN, BandwidthMode::Fixed(1)] {
        g.bench_with_input(
            BenchmarkId::new("bandwidth", format!("{bw:?}")),
            &bw,
            |b, &bw| {
                let cfg = EngineConfig {
                    bandwidth: bw,
                    ..Default::default()
                };
                b.iter(|| Engine::new(&guest, &host, &assign, cfg).run().unwrap())
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
