//! Parallel-engine throughput: the deterministic driver (pure protocol
//! cost, no thread scheduling noise) across world sizes and schemes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use edgeswitch_core::config::StepSize;
use edgeswitch_core::Run;
use edgeswitch_dist::root_rng;
use edgeswitch_graph::generators::erdos_renyi_gnm;
use edgeswitch_graph::SchemeKind;

fn bench_world_size(c: &mut Criterion) {
    let mut rng = root_rng(3);
    let g = erdos_renyi_gnm(5_000, 50_000, &mut rng);
    let t = 10_000u64;
    let mut group = c.benchmark_group("parallel_engine/world_size");
    group.throughput(Throughput::Elements(t));
    for p in [1usize, 4, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            let run = Run::simulated(p)
                .switches(t)
                .scheme(SchemeKind::HashUniversal)
                .step_size(StepSize::FractionOfT(10))
                .seed(5);
            b.iter(|| run.execute(&g))
        });
    }
    group.finish();
}

fn bench_schemes(c: &mut Criterion) {
    let mut rng = root_rng(4);
    let g = erdos_renyi_gnm(5_000, 50_000, &mut rng);
    let t = 10_000u64;
    let mut group = c.benchmark_group("parallel_engine/scheme");
    group.throughput(Throughput::Elements(t));
    for scheme in SchemeKind::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(scheme.label()),
            &scheme,
            |b, &scheme| {
                let run = Run::simulated(16)
                    .switches(t)
                    .scheme(scheme)
                    .step_size(StepSize::FractionOfT(10))
                    .seed(5);
                b.iter(|| run.execute(&g))
            },
        );
    }
    group.finish();
}

/// Short-run configuration: this repository benches on a single-core
/// machine; 10 samples x ~2s per benchmark keeps the full suite fast
/// while still flagging order-of-magnitude regressions.
fn fast() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = fast();
    targets = bench_world_size, bench_schemes
}
criterion_main!(benches);
