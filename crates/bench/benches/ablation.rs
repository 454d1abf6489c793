//! Ablations of the design choices DESIGN.md calls out:
//!
//! * notification mechanism on/off (§4.2.1, Figure 8),
//! * preserve-τ early exit on/off (§4.4),
//! * dynamic vs static chunk scheduling (§4.4),
//! * precomputed vs on-the-fly truss containers (§5 memory/time trade).

use criterion::{criterion_group, criterion_main, Criterion};
use hdsd_datasets::Dataset;
use hdsd_nucleus::{and, and_opts, snd, AndOptions, LocalConfig, Order, TrussSpace};
use hdsd_parallel::{parallel_for_chunks, ParallelConfig, Policy};

fn bench_notification(c: &mut Criterion) {
    let g = Dataset::Fb.generate(0.25);
    let sp = TrussSpace::precomputed(&g);
    let mut group = c.benchmark_group("ablation_notification_fb_quarter");
    group.sample_size(10);
    group.bench_function("and_with_notification", |b| {
        b.iter(|| and(&sp, &LocalConfig::default(), &Order::Natural))
    });
    group.bench_function("and_full_scan", |b| {
        b.iter(|| {
            let full_scan = AndOptions { notification: false, ..AndOptions::default() };
            and_opts(&sp, &LocalConfig::default(), &Order::Natural, full_scan)
        })
    });
    group.finish();
}

fn bench_preserve_check(c: &mut Criterion) {
    let g = Dataset::Fb.generate(0.25);
    let sp = TrussSpace::precomputed(&g);
    let mut group = c.benchmark_group("ablation_preserve_check_fb_quarter");
    group.sample_size(10);
    group.bench_function("snd_with_preserve_check", |b| {
        b.iter(|| snd(&sp, &LocalConfig::default()))
    });
    group.bench_function("snd_without_preserve_check", |b| {
        b.iter(|| snd(&sp, &LocalConfig::default().without_preserve_check()))
    });
    group.finish();
}

fn bench_scheduling(c: &mut Criterion) {
    // Skewed per-item work: the pathology static scheduling suffers from.
    let n = 1 << 16;
    let work = |i: usize| {
        // Heavy work clustered at the front of the index space.
        let reps = if i < n / 8 { 64 } else { 1 };
        let mut acc = i as u64;
        for _ in 0..reps {
            acc = acc.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17);
        }
        std::hint::black_box(acc);
    };
    let threads = hdsd_parallel::default_threads().max(2);
    let mut group = c.benchmark_group("ablation_scheduling_skewed");
    group.sample_size(10);
    for policy in [Policy::Dynamic, Policy::Static] {
        group.bench_function(format!("{policy:?}").to_lowercase(), |b| {
            let cfg = ParallelConfig { threads, chunk: 256, policy };
            b.iter(|| {
                parallel_for_chunks(n, cfg, |range| {
                    for i in range {
                        work(i);
                    }
                })
            })
        });
    }
    group.finish();
}

fn bench_truss_strategy(c: &mut Criterion) {
    let g = Dataset::Fb.generate(0.25);
    let mut group = c.benchmark_group("ablation_truss_strategy_fb_quarter");
    group.sample_size(10);
    group.bench_function("precomputed_build_plus_snd", |b| {
        b.iter(|| {
            let sp = TrussSpace::precomputed(&g);
            snd(&sp, &LocalConfig::default())
        })
    });
    group.bench_function("on_the_fly_build_plus_snd", |b| {
        b.iter(|| {
            let sp = TrussSpace::on_the_fly(&g);
            snd(&sp, &LocalConfig::default())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_notification, bench_preserve_check, bench_scheduling, bench_truss_strategy
}
criterion_main!(benches);
