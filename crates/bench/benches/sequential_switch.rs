//! Sequential edge-switch throughput (Algorithm 1): the `O(t log d_max)`
//! baseline every speedup in the paper is measured against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use edgeswitch_core::Run;
use edgeswitch_dist::root_rng;
use edgeswitch_graph::generators::{
    contact_network, erdos_renyi_gnm, preferential_attachment, ContactParams,
};

fn bench_sequential(c: &mut Criterion) {
    let mut group = c.benchmark_group("sequential_switch");
    let t = 20_000u64;
    group.throughput(Throughput::Elements(t));

    let mut rng = root_rng(1);
    let cases = vec![
        ("erdos_renyi", erdos_renyi_gnm(10_000, 100_000, &mut rng)),
        (
            "contact",
            contact_network(ContactParams::miami_like(2_000), &mut rng),
        ),
        ("pref_attach", preferential_attachment(10_000, 10, &mut rng)),
    ];
    for (name, graph) in cases {
        group.bench_with_input(BenchmarkId::from_parameter(name), &graph, |b, g| {
            // `start` sets the engine up (the graph clone) outside the
            // timed routine.
            let run = Run::sequential().switches(t).seed(2);
            b.iter_batched(
                || run.start(g).expect("a sequential switch run always starts"),
                |engine| engine.run_to_end(),
                criterion::BatchSize::LargeInput,
            )
        });
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
    targets = bench_sequential
}
criterion_main!(benches);
