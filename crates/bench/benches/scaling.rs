//! Figure 1b in microbenchmark form: thread sweep for parallel And against
//! the sequential peel. (The paper's reference line is a partially parallel
//! peel; this repo carries none, so the baseline here is sequential
//! peeling.) On a single-core host the And curve is flat — the sweep is
//! still exercised for correctness and to produce honest numbers on
//! whatever hardware runs it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdsd_datasets::Dataset;
use hdsd_nucleus::{and, peel, LocalConfig, Order, TrussSpace};

fn bench_thread_sweep(c: &mut Criterion) {
    let g = Dataset::Fb.generate(0.25);
    let sp = TrussSpace::precomputed(&g);
    let max = hdsd_parallel::default_threads();
    let sweep: Vec<usize> = [1usize, 2, 4, max]
        .into_iter()
        .filter(|&t| t <= max)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();

    let mut group = c.benchmark_group("truss_thread_sweep_fb_quarter");
    group.sample_size(10);
    group.bench_function("peel", |b| b.iter(|| peel(&sp)));
    for &t in &sweep {
        group.bench_with_input(BenchmarkId::new("and", t), &t, |b, &threads| {
            b.iter(|| and(&sp, &LocalConfig::with_threads(threads), &Order::Natural))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_thread_sweep
}
criterion_main!(benches);
