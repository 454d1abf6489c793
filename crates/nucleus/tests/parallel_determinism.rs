//! The barrier-free parallel drain is **deterministic by construction**,
//! and this harness proves it by brute interleaving search: every
//! `(threads, seed)` pair runs the drain under a different seeded schedule
//! — per-worker SplitMix64 jitter streams perturb chunk-claim sizes and
//! inject yields/spins at every claim, item, and push (see
//! [`hdsd_parallel::ScheduleJitter`]) — and κ, the canonical `(κ, id)`
//! order, `max_kappa`, and the closed-form `PeelStats` must come out
//! bit-identical to the sequential bucket queue every single time.
//!
//! Thread counts {1, 2, 4, 8} × `HDSD_DETERMINISM_SEEDS` seeds (default
//! 64; the TSan CI lane lowers it) × four spaces: core, truss,
//! (3,4)-nucleus, and the generic enumerator at (r,s) = (1,3). An
//! adversarial variant additionally stalls one worker at every chunk claim
//! (the failpoint-style [`hdsd_parallel::DrainHooks`]), demonstrating the
//! companion paper's claim (arXiv:1704.00386) that stale reads delay —
//! never corrupt — the drain. The And continuous drain gets the same
//! treatment on τ: exact κ at every thread count.

use hdsd_nucleus::{
    and, peel_flat, CliqueSpace, CoreSpace, FlatContainers, GenericSpace, LocalConfig,
    Nucleus34Space, Order, PeelEngine, PeelOptions, PeelResult, TrussSpace,
};
use hdsd_parallel::{DrainControl, DrainEvent, DrainHooks, ParallelConfig, ScheduleJitter};

/// Seeds per (space, thread-count) cell; override with
/// `HDSD_DETERMINISM_SEEDS` (the TSan lane runs fewer, slow-props more).
fn num_seeds() -> u64 {
    std::env::var("HDSD_DETERMINISM_SEEDS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(64)
}

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One drain of `flat` under the schedule control `control`.
fn drain(flat: &FlatContainers, threads: usize, control: DrainControl) -> PeelResult {
    let opts =
        PeelOptions { control, ..PeelOptions::new(ParallelConfig::with_threads(threads).chunk(4)) };
    PeelEngine::new().peel_opts(flat, &opts).expect("an unarmed token never cancels")
}

/// Runs the full seeded-schedule sweep for one space and asserts every
/// run is bit-identical to the sequential reference.
fn check_determinism<S: CliqueSpace>(space: &S) {
    let name = space.name();
    let flat = FlatContainers::build(space);
    let seq = peel_flat(&flat);

    // The canonical parallel order: ids sorted by (κ, id). Schedule-free,
    // so it is the fixed reference every parallel run must reproduce.
    let mut canonical: Vec<u32> = (0..seq.kappa.len() as u32).collect();
    canonical.sort_unstable_by_key(|&i| (seq.kappa[i as usize], i));

    for threads in THREAD_COUNTS {
        for seed in 0..num_seeds() {
            let r = drain(&flat, threads, DrainControl::seeded(seed));
            let tag = format!("{name} threads={threads} seed={seed}");
            assert_eq!(r.kappa, seq.kappa, "{tag}: κ diverged");
            assert_eq!(r.order, canonical, "{tag}: order diverged");
            assert_eq!(r.max_kappa, seq.max_kappa, "{tag}: max κ diverged");
            assert_eq!(r.stats, seq.stats, "{tag}: work counters diverged");
        }
    }
}

#[test]
fn core_peel_is_bit_identical_under_seeded_schedules() {
    let g = hdsd_datasets::holme_kim(400, 4, 0.5, 7);
    check_determinism(&CoreSpace::new(&g));
}

#[test]
fn truss_peel_is_bit_identical_under_seeded_schedules() {
    let g = hdsd_datasets::holme_kim(240, 4, 0.5, 7);
    check_determinism(&TrussSpace::precomputed(&g));
}

#[test]
fn nucleus34_peel_is_bit_identical_under_seeded_schedules() {
    let g = hdsd_datasets::holme_kim(150, 4, 0.7, 7);
    check_determinism(&Nucleus34Space::precomputed(&g));
}

#[test]
fn generic_13_peel_is_bit_identical_under_seeded_schedules() {
    // The generic enumerator at (r,s) = (1,3): triangle containers over
    // vertices, group = binom(3,1) − 1 = 2, but through the dynamic-width
    // dispatch — the drain's runtime-arity path.
    let g = hdsd_datasets::holme_kim(220, 4, 0.6, 7);
    check_determinism(&GenericSpace::new(&g, 1, 3));
}

#[test]
fn stalled_worker_cannot_change_the_result() {
    // Adversarial staleness: worker 1 sleeps at every chunk claim, so the
    // other workers race far ahead and worker 1 keeps acting on stale
    // degree reads. The peeled-position (κ) check makes every stale write
    // attempt harmless: the result stays bit-identical.
    let g = hdsd_datasets::holme_kim(240, 4, 0.5, 9);
    let sp = TrussSpace::precomputed(&g);
    let flat = FlatContainers::build(&sp);
    let seq = peel_flat(&flat);
    let mut canonical: Vec<u32> = (0..seq.kappa.len() as u32).collect();
    canonical.sort_unstable_by_key(|&i| (seq.kappa[i as usize], i));

    for seed in 0..4 {
        let ctl = DrainControl {
            jitter: Some(ScheduleJitter::new(seed)),
            hooks: DrainHooks::with(|worker, event| {
                if worker == 1 && event == DrainEvent::Claim {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }),
        };
        let r = drain(&flat, 4, ctl);
        assert_eq!(r.kappa, seq.kappa, "seed={seed}: stalled worker corrupted κ");
        assert_eq!(r.order, canonical, "seed={seed}");
        assert_eq!(r.stats, seq.stats, "seed={seed}");
        let drain = r.drain.expect("parallel run reports drain telemetry");
        assert!(
            drain.chunks_claimed > 0,
            "seed={seed}: the drain must have made parallel progress"
        );
    }
}

#[test]
fn and_continuous_drain_converges_exactly_at_every_thread_count() {
    // The And worklist has no seeded-schedule hook — its drain is *free*
    // asynchrony — but exactness must hold at every thread count and
    // order, certified by the final verification round.
    let g = hdsd_datasets::holme_kim(300, 4, 0.5, 21);
    let core = CoreSpace::new(&g);
    let truss = TrussSpace::precomputed(&g);
    let exact_core = peel_flat(&FlatContainers::build(&core)).kappa;
    let exact_truss = peel_flat(&FlatContainers::build(&truss)).kappa;

    for threads in THREAD_COUNTS {
        for order in [Order::Natural, Order::Reverse, Order::Random(5)] {
            let cfg = LocalConfig::with_threads(threads);
            let rc = and(&core, &cfg, &order);
            assert_eq!(rc.tau, exact_core, "core threads={threads} order={order:?}");
            assert!(rc.converged);
            let rt = and(&truss, &cfg, &order);
            assert_eq!(rt.tau, exact_truss, "truss threads={threads} order={order:?}");
            assert!(rt.converged);
        }
    }
}
