//! Property tests for the flat peeling engine: on random Holme–Kim
//! graphs, [`peel_flat`] (and the reusable [`PeelEngine`], and the
//! dispatching [`peel`]) must be **bit-identical** to the container-walk
//! baseline [`peel_walk`] — κ, processing order, max κ, and the
//! deterministic work counters — across every clique space, including
//! generic (r, s) spaces wider than every monomorphized arity. So must
//! [`PeelEngine::peel_under`] with an unarmed token, and the frozen
//! [`peel_parallel`] alias in κ and counters.
//! On one fixed graph the counters' values are pinned exactly. Runs under
//! the nightly slow-props budget (`PROPTEST_CASES`).

use hdsd_nucleus::{
    peel, peel_flat, peel_parallel, peel_walk, CachedSpace, CancelToken, CliqueSpace, CoreSpace,
    FlatContainers, Nucleus34Space, PeelEngine, TrussSpace,
};
use hdsd_parallel::ParallelConfig;
use proptest::prelude::*;

fn arb_holme_kim() -> impl Strategy<Value = hdsd_graph::CsrGraph> {
    (20u32..80, 2u32..5, 0u32..=100, 0u64..1_000_000)
        .prop_map(|(n, m, p, seed)| hdsd_datasets::holme_kim(n, m, p as f64 / 100.0, seed))
}

/// One space's full equivalence check; `engine` is shared across spaces to
/// exercise scratch reuse over differently-sized universes.
fn check_space<S: CliqueSpace>(space: &S, engine: &mut PeelEngine) {
    let walk = peel_walk(space);
    let flat = FlatContainers::build(space);
    let one_shot = peel_flat(&flat);
    let reused = engine.peel(&flat);
    let dispatched = peel(space);
    let under = engine.peel_under(&flat, &CancelToken::none()).expect("unarmed");

    for (label, r) in [
        ("peel_flat", &one_shot),
        ("PeelEngine", &reused),
        ("peel", &dispatched),
        ("peel_under", &under),
    ] {
        assert_eq!(r.kappa, walk.kappa, "{}: {label} κ diverged", space.name());
        assert_eq!(r.order, walk.order, "{}: {label} order diverged", space.name());
        assert_eq!(r.max_kappa, walk.max_kappa, "{}: {label} max κ diverged", space.name());
    }
    // The sequential engines execute the identical visit sequence, so the
    // work counters must match exactly (`peel_work_counters_are_pinned`
    // pins their values).
    assert_eq!(one_shot.stats, walk.stats, "{}: work counters diverged", space.name());
    assert_eq!(reused.stats, walk.stats, "{}: engine counters diverged", space.name());
    assert_eq!(under.stats, walk.stats, "{}: peel_under counters diverged", space.name());

    // Invariants of the result itself.
    let ks: Vec<u32> = walk.order.iter().map(|&i| walk.kappa[i as usize]).collect();
    assert!(ks.windows(2).all(|w| w[0] <= w[1]), "{}: order not κ-sorted", space.name());
    assert_eq!(walk.max_kappa, walk.kappa.iter().copied().max().unwrap_or(0));

    // The frozen alias is `peel` whatever thread count it is handed, plus
    // the one telemetry field `benchmark/` reads.
    let par = peel_parallel(space, ParallelConfig::with_threads(3));
    assert_eq!(par.kappa, walk.kappa, "{}", space.name());
    assert_eq!(par.stats, walk.stats, "{}: peel_parallel counters diverged", space.name());
    assert_eq!(par.drain.map(|d| d.epilogue_items), Some(walk.kappa.len() as u64));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn flat_peel_is_bit_identical_on_all_spaces(g in arb_holme_kim()) {
        let mut engine = PeelEngine::new();
        check_space(&CoreSpace::new(&g), &mut engine);
        check_space(&TrussSpace::precomputed(&g), &mut engine);
        check_space(&Nucleus34Space::precomputed(&g), &mut engine);
        // The generic enumerator at group = binom(3,1) − 1 = 2 (same width
        // as truss, different id/order structure)...
        check_space(&CachedSpace::from_graph(&g, 1, 3), &mut engine);
        // ...and at group = binom(4,2) − 1 = 5, which exceeds every
        // monomorphized arity and exercises the width-at-runtime fallback
        // (run::<0>).
        check_space(&CachedSpace::from_graph(&g, 2, 4), &mut engine);
    }

    #[test]
    fn flat_peel_survives_edge_deletion_noise(
        g in arb_holme_kim(),
        step in 3usize..13,
    ) {
        // Thin the graph so isolated edges/vertices and empty container
        // rows appear, then re-check the truss space (the two-others fast
        // path) end to end.
        let keep: Vec<(u32, u32)> = g
            .edges()
            .iter()
            .enumerate()
            .filter(|(i, _)| i % step != 0)
            .map(|(_, &e)| e)
            .collect();
        let thinned = hdsd_graph::GraphBuilder::new()
            .with_num_vertices(g.num_vertices())
            .edges(keep)
            .build();
        let mut engine = PeelEngine::new();
        check_space(&TrussSpace::on_the_fly(&thinned), &mut engine);
        check_space(&CoreSpace::new(&thinned), &mut engine);
    }
}

/// `(containers_scanned, dead_containers, bucket_moves, max_kappa)` of
/// the exact peel of `space`, through the walk, the flat engine and the
/// serving engine's cancellable form alike.
fn assert_pinned_counters<S: CliqueSpace>(space: &S, expected: (u64, u64, u64, u32)) {
    let flat = FlatContainers::build(space);
    let under = PeelEngine::new().peel_under(&flat, &CancelToken::none()).expect("unarmed");
    for (label, r) in
        [("peel_walk", peel_walk(space)), ("peel_flat", peel_flat(&flat)), ("peel_under", under)]
    {
        let s = r.stats;
        assert_eq!(
            (s.containers_scanned, s.dead_containers, s.bucket_moves, r.max_kappa),
            expected,
            "{}: {label} (containers_scanned, dead_containers, bucket_moves, max_kappa)",
            space.name()
        );
    }
}

/// The peel's work counters are functions of the graph alone, so on one
/// fixed graph they are pinned exactly: a change that makes the peel scan
/// more (or fewer) containers or move more buckets has to change these
/// numbers on purpose.
#[test]
fn peel_work_counters_are_pinned() {
    let g = hdsd_datasets::holme_kim(2_000, 6, 0.8, 7);
    assert_pinned_counters(&CoreSpace::new(&g), (23_958, 11_979, 11_958, 6));
    assert_pinned_counters(&TrussSpace::precomputed(&g), (32_712, 21_808, 13_799, 5));
    assert_pinned_counters(&Nucleus34Space::precomputed(&g), (11_164, 8_373, 2_476, 4));
}

#[test]
fn empty_and_containerless_spaces() {
    let empty = hdsd_graph::graph_from_edges([]);
    let sp = CoreSpace::new(&empty);
    let flat = FlatContainers::build(&sp);
    let r = peel_flat(&flat);
    assert!(r.kappa.is_empty());
    assert_eq!(r.max_kappa, 0);

    // A triangle-free graph: every truss container row is empty.
    let path = hdsd_graph::graph_from_edges([(0, 1), (1, 2), (2, 3)]);
    let truss = TrussSpace::precomputed(&path);
    let flat = FlatContainers::build(&truss);
    let r = peel_flat(&flat);
    assert_eq!(r.kappa, vec![0, 0, 0]);
    assert_eq!(r.kappa, peel_walk(&truss).kappa);
}

#[test]
fn isolated_vertices_and_reuse_across_sizes() {
    let g1 = hdsd_graph::GraphBuilder::new().with_num_vertices(6).edges([(0, 1), (1, 2)]).build();
    let g2 = hdsd_datasets::holme_kim(60, 3, 0.4, 5);
    let mut engine = PeelEngine::new();
    // Big space first, then a smaller one: scratch shrinks correctly.
    let big = FlatContainers::build(&CoreSpace::new(&g2));
    let small = FlatContainers::build(&CoreSpace::new(&g1));
    assert_eq!(engine.peel(&big).kappa, peel_walk(&CoreSpace::new(&g2)).kappa);
    let r = engine.peel(&small);
    assert_eq!(r.kappa, vec![1, 1, 1, 0, 0, 0]);
    // And back up again.
    assert_eq!(engine.peel(&big).kappa, peel_walk(&CoreSpace::new(&g2)).kappa);
}
