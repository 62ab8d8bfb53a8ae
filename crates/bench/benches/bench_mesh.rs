//! Theorem 7/8 mesh-emulation cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use overlap_core::Simulation;
use overlap_model::{GuestSpec, ProgramKind, ReferenceRun};
use overlap_net::topology::linear_array;
use overlap_net::DelayModel;

fn bench_mesh(c: &mut Criterion) {
    let mut g = c.benchmark_group("mesh");
    let host = linear_array(8, DelayModel::uniform(1, 5), 3);
    for &m in &[8u32, 16, 32] {
        let guest = GuestSpec::mesh(m, m, ProgramKind::Relaxation, 3, 12);
        let trace = ReferenceRun::execute(&guest);
        g.bench_with_input(BenchmarkId::from_parameter(m), &guest, |b, gu| {
            b.iter(|| {
                Simulation::of(gu)
                    .on(&host)
                    .build()
                    .and_then(|sim| sim.run_with_trace(&trace))
                    .unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_mesh);
criterion_main!(benches);
