//! Frontier-scheduling correctness: the frontier-driven And must be
//! indistinguishable from the ground truth (peeling) and from the other
//! sweep modes on *results*, while doing strictly less scanning work.
//!
//! The property test sweeps random graphs across every clique space; the
//! regression tests pin the scheduler-telemetry contract on a power-law
//! graph with a long convergence tail (the workload the frontier exists
//! for). With more than one thread the awake set is the chunked flag scan
//! in every notification mode, so the parallel runs are held to exactness
//! and to the scan identity instead of the frontier contract.

use hdsd::datasets::{erdos_renyi_gnm, holme_kim};
use hdsd::prelude::*;
use proptest::prelude::*;

#[path = "../crates/nucleus/tests/common/mod.rs"]
mod common;
use common::BruteSpace;

fn frontier_cfg() -> LocalConfig {
    LocalConfig::default().sweep_mode(SweepMode::Frontier)
}

/// What every And run owes: the exact κ, a certified fixed point, one
/// telemetry slot per worker. With more than one thread the run is a
/// chunked scan whatever the notification mode, so it also owes the scan
/// identity — each sweep touches all n r-cliques, recomputed or skipped.
fn assert_and_exact<S: CliqueSpace>(space: &S, exact: &[u32], cfg: &LocalConfig, order: &Order) {
    let threads = cfg.parallel.threads;
    let tag = format!("{} {:?} {order:?} threads={threads}", space.name(), cfg.sweep_mode);
    let r = and(space, cfg, order);
    assert_eq!(r.tau, exact, "{tag}: diverged from peeling");
    assert!(r.converged, "{tag}");
    assert_eq!(r.scheduler.chunks_per_worker.len(), threads, "{tag}");
    assert_eq!(r.scheduler.items_processed, r.total_processed(), "{tag}");
    if threads > 1 {
        assert_eq!(
            r.scheduler.items_processed + r.scheduler.items_skipped,
            (space.num_cliques() * r.sweeps) as u64,
            "{tag}: a chunked scan visits n items per sweep"
        );
    }
}

/// Frontier-And κ must equal the peeling ground truth on `space`, with and
/// without the flat container cache, sequentially and in parallel.
fn assert_frontier_exact<S: CliqueSpace>(space: &S) {
    let exact = peel(space).kappa;
    for cfg in [frontier_cfg(), frontier_cfg().without_container_cache()] {
        let r = and(space, &cfg, &Order::Natural);
        assert_eq!(r.tau, exact, "{} diverged from peeling", space.name());
        assert!(r.converged);
        assert_eq!(r.scheduler.items_skipped, 0, "frontier never pays idle visits");
        assert_eq!(r.scheduler.items_processed, r.total_processed());
    }
    let par = LocalConfig::with_threads(3).sweep_mode(SweepMode::Frontier);
    assert_and_exact(space, &exact, &par, &Order::Natural);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn frontier_matches_peeling_on_all_spaces(
        n in 20u32..60,
        extra in 0usize..180,
        seed in 0u64..10_000,
    ) {
        let g = erdos_renyi_gnm(n, n as usize + extra, seed);
        assert_frontier_exact(&CoreSpace::new(&g));
        assert_frontier_exact(&TrussSpace::precomputed(&g));
        assert_frontier_exact(&Nucleus34Space::precomputed(&g));
        assert_frontier_exact(&CachedSpace::from_graph(&g, 1, 3));
    }

    #[test]
    fn frontier_agrees_with_flag_scan_and_full_scan(
        n in 30u32..80,
        extra in 20usize..200,
        seed in 0u64..10_000,
    ) {
        let g = erdos_renyi_gnm(n, n as usize + extra, seed);
        let sp = CoreSpace::new(&g);
        let frontier = and(&sp, &frontier_cfg(), &Order::Natural);
        let flags =
            and(&sp, &LocalConfig::default().sweep_mode(SweepMode::FlagScan), &Order::Natural);
        let full =
            and(&sp, &LocalConfig::default().sweep_mode(SweepMode::FullScan), &Order::Natural);
        prop_assert_eq!(&frontier.tau, &flags.tau);
        prop_assert_eq!(&frontier.tau, &full.tau);
        // Scanning cost ordering: the frontier touches exactly what it
        // processes; the flag scan touches n per sweep.
        prop_assert_eq!(frontier.scheduler.items_skipped, 0);
        prop_assert_eq!(
            flags.scheduler.items_processed + flags.scheduler.items_skipped,
            (sp.num_cliques() * flags.sweeps) as u64
        );
        // The frontier ends on the sweep that empties it, with no
        // certification pass, but a wake it defers to the next sweep is
        // one FullScan reads in place, so on fast-converging graphs its
        // longer tail may cost up to two full passes; beyond that it must
        // win.
        let slack = 2 * sp.num_cliques() as u64;
        prop_assert!(frontier.total_processed() <= full.total_processed() + slack);
    }
}

/// One full sweep from `tau` with notification off: the certification
/// sweep the sequential drivers leave out.
fn full_sweep_from<S: CliqueSpace>(space: &S, tau: &[u32]) -> ConvergenceResult {
    let opts =
        AndOptions { tau_init: Some(tau.to_vec()), notification: false, ..AndOptions::default() };
    and_opts(space, &LocalConfig::sequential().max_iterations(1), &Order::Natural, opts)
        .expect("an unarmed token never cancels")
}

/// Every sequential And run on `space` stops where one more full sweep
/// changes nothing, and on κ: Frontier and FlagScan × every `Order` ×
/// cold and warm (κ bumped on every fifth r-clique, still an upper bound).
fn assert_sequential_and_stops_on_a_fixed_point<S: CliqueSpace>(space: &S, seed: u64) {
    let n = space.num_cliques();
    let p = peel(space);
    let bumped: Vec<u32> = (0..n)
        .map(|i| p.kappa[i] + if (i as u64 + seed).is_multiple_of(5) { 2 } else { 0 })
        .collect();
    let orders = [
        Order::Natural,
        Order::Reverse,
        Order::Random(seed),
        Order::IncreasingDegree,
        Order::Custom(p.order.clone()),
    ];
    for mode in [SweepMode::Frontier, SweepMode::FlagScan] {
        for order in &orders {
            for tau_init in [None, Some(bumped.clone())] {
                let tag =
                    format!("{} {mode:?} {order:?} warm={}", space.name(), tau_init.is_some());
                let opts = AndOptions { tau_init, ..AndOptions::default() };
                let cfg = LocalConfig::sequential().sweep_mode(mode);
                let r = and_opts(space, &cfg, order, opts).expect("unarmed");
                assert!(r.converged, "{tag}");
                let check = full_sweep_from(space, &r.tau);
                assert_eq!(check.total_processed(), n as u64, "{tag}");
                assert_eq!(check.total_updates(), 0, "{tag}: a full sweep still moves τ");
                assert_eq!(r.tau, p.kappa, "{tag}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The sequential drivers stop on an empty frontier without a
    // certification sweep; this runs that sweep after each of them.
    #[test]
    fn sequential_and_stops_on_a_fixed_point(
        n in 30u32..120,
        m in 2u32..6,
        seed in 0u64..10_000,
        extra in 0usize..40,
    ) {
        let g = holme_kim(n, m, 0.6, seed);
        assert_sequential_and_stops_on_a_fixed_point(&CoreSpace::new(&g), seed);
        assert_sequential_and_stops_on_a_fixed_point(&TrussSpace::precomputed(&g), seed);
        assert_sequential_and_stops_on_a_fixed_point(&Nucleus34Space::precomputed(&g), seed);
        for (r, s) in [(1, 3), (2, 4)] {
            assert_sequential_and_stops_on_a_fixed_point(&CachedSpace::from_graph(&g, r, s), seed);
        }
        let small = erdos_renyi_gnm(14, 20 + extra, seed);
        for (r, s) in [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)] {
            assert_sequential_and_stops_on_a_fixed_point(&BruteSpace::new(&small, r, s), seed);
        }
    }
}

/// Sequential And in each sweep mode on `space`: exact κ, converged, and
/// `(processed, sweeps)` equal to `expected` (Frontier, FlagScan,
/// FullScan). The frontier must also recompute strictly fewer r-cliques
/// than `n × sweeps` (what any full-permutation walk visits) and at least
/// 2× fewer than the no-notification full scan.
fn pinned_sequential_counts<S: CliqueSpace>(space: &S, expected: [(u64, usize); 3]) {
    let exact = peel(space).kappa;
    let modes = [SweepMode::Frontier, SweepMode::FlagScan, SweepMode::FullScan];
    let runs =
        modes.map(|mode| and(space, &LocalConfig::default().sweep_mode(mode), &Order::Natural));
    for ((mode, r), want) in modes.iter().zip(&runs).zip(expected) {
        let tag = format!("{} {mode:?}", space.name());
        assert_eq!(r.tau, exact, "{tag}: diverged from peeling");
        assert!(r.converged, "{tag}");
        assert_eq!((r.scheduler.items_processed, r.sweeps), want, "{tag}: (processed, sweeps)");
    }

    let [frontier, _, full] = &runs;
    let n = space.num_cliques() as u64;
    assert!(
        frontier.total_processed() < n * frontier.sweeps as u64,
        "{}: frontier did {} recomputations over {} sweeps of {n} items — no better than scanning",
        space.name(),
        frontier.total_processed(),
        frontier.sweeps,
    );
    assert!(
        2 * frontier.total_processed() <= full.total_processed(),
        "{}: frontier {} vs full-scan {}: less than 2x saving",
        space.name(),
        frontier.total_processed(),
        full.total_processed()
    );
}

/// The Figure-8 counts on a graph with a long convergence tail: how many
/// r-cliques each sweep mode recomputes, and in how many sweeps. The
/// counts are deterministic for a sequential run, so they are pinned
/// exactly (parallel counts depend on the schedule and are not). They may
/// move only with the sweep-by-sweep counts of old and new run shown in
/// CHANGES.md.
#[test]
fn frontier_processed_beats_full_permutation_scanning() {
    let g = holme_kim(4_000, 4, 0.5, 42);
    pinned_sequential_counts(&CoreSpace::new(&g), [(10_577, 31), (10_583, 31), (124_000, 31)]);
    pinned_sequential_counts(&TrussSpace::precomputed(&g), [(17_075, 8), (17_073, 6), (95_940, 6)]);
}

/// Parallel `Frontier` on the long-tail graph: exact, and the chunk
/// hand-out telemetry reflects the configured worker count.
#[test]
fn parallel_frontier_telemetry_and_exactness() {
    let g = holme_kim(2_000, 4, 0.5, 11);
    let sp = TrussSpace::precomputed(&g);
    let exact = peel(&sp).kappa;
    for threads in [2usize, 4] {
        let cfg = LocalConfig::with_threads(threads).sweep_mode(SweepMode::Frontier);
        assert_and_exact(&sp, &exact, &cfg, &Order::Natural);
    }
}

/// Parallel And is exact at {1, 2, 4, 8} threads × {Natural, Reverse,
/// Random} × {Frontier, FlagScan, FullScan} on core and truss: stale τ
/// reads delay the descent, never corrupt it, and the final certification
/// sweep closes every race.
#[test]
fn parallel_and_is_exact_at_every_thread_count_order_and_mode() {
    let g = holme_kim(300, 4, 0.5, 21);
    let core = CoreSpace::new(&g);
    let truss = TrussSpace::precomputed(&g);
    let (exact_core, exact_truss) = (peel(&core).kappa, peel(&truss).kappa);
    for threads in [1usize, 2, 4, 8] {
        for order in [Order::Natural, Order::Reverse, Order::Random(5)] {
            for mode in [SweepMode::Frontier, SweepMode::FlagScan, SweepMode::FullScan] {
                // A small chunk so that 300 vertices really are shared out.
                let mut cfg = LocalConfig::with_threads(threads).sweep_mode(mode);
                cfg.parallel = cfg.parallel.chunk(16);
                assert_and_exact(&core, &exact_core, &cfg, &order);
                assert_and_exact(&truss, &exact_truss, &cfg, &order);
            }
        }
    }
}

/// Generic (r, s) spaces, (2,4) wider than the inline container buffer:
/// frontier scheduling must match peeling over their resident rows and
/// over their callback walk.
#[test]
fn frontier_on_generic_space_matches_peeling() {
    let g = holme_kim(80, 4, 0.8, 3);
    for (r, s) in [(1, 3), (2, 4)] {
        let sp = CachedSpace::from_graph(&g, r, s);
        let exact = peel(&sp).kappa;
        assert!(exact.iter().any(|&k| k > 1), "({r},{s}) has a non-trivial nucleus");
        for cfg in [frontier_cfg(), frontier_cfg().without_container_cache()] {
            let run = and(&sp, &cfg, &Order::Natural);
            assert_eq!(run.tau, exact, "({r},{s})");
            assert!(run.converged);
        }
    }
}
