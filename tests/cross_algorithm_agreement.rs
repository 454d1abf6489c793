//! Cross-crate integration: every algorithm (peeling sequential/parallel,
//! Snd sequential/parallel, And in several orders with and without
//! notification) must produce identical κ indices on arbitrary graphs, for
//! every decomposition space. The generic (r, s) builder is held to the
//! specialized spaces elementwise and to a brute-force space that tests
//! every vertex subset, the independent oracle.

use hdsd::prelude::*;
use proptest::prelude::*;

#[path = "../crates/nucleus/tests/common/mod.rs"]
mod common;
use common::{sorted_row, BruteSpace};

/// Arbitrary small graph as an edge list over `n ≤ 24` vertices.
fn arb_graph() -> impl Strategy<Value = hdsd::graph::CsrGraph> {
    proptest::collection::vec((0u32..24, 0u32..24), 0..120)
        .prop_map(|edges| hdsd::graph::GraphBuilder::new().edges(edges).build())
}

/// Arbitrary graph on `n ≤ 16` vertices, dense enough for K5s: the range
/// the brute-force space covers.
fn arb_small_graph() -> impl Strategy<Value = hdsd::graph::CsrGraph> {
    proptest::collection::vec((0u32..16, 0u32..16), 0..100)
        .prop_map(|edges| hdsd::graph::GraphBuilder::new().edges(edges).build())
}

/// Random Holme–Kim graph (triangle-rich, so every space has containers).
fn arb_holme_kim() -> impl Strategy<Value = hdsd::graph::CsrGraph> {
    (20u32..80, 2u32..5, 0u32..=100, 0u64..1_000_000)
        .prop_map(|(n, m, p, seed)| hdsd::datasets::holme_kim(n, m, p as f64 / 100.0, seed))
}

/// Snd's and sequential And's per-sweep trajectories over `space` must not
/// depend on how the kernels reach its containers: built rows (the source
/// space under the default budget), resident rows (its `CachedSpace`), or
/// the callback walk (`without_container_cache`, over either).
fn check_access_path_is_invisible<S: CliqueSpace>(space: &S) {
    let cached = hdsd::nucleus::CachedSpace::build(space);
    let flat = LocalConfig::sequential();
    let walk = flat.without_container_cache();

    let s = snd(space, &flat);
    let a = and(space, &flat, &Order::Natural);
    assert_eq!(a.tau, peel(space).kappa, "{}", space.name());
    for (label, s2, a2) in [
        ("resident rows", snd(&cached, &flat), and(&cached, &flat, &Order::Natural)),
        ("walk", snd(space, &walk), and(space, &walk, &Order::Natural)),
        ("walk over resident rows", snd(&cached, &walk), and(&cached, &walk, &Order::Natural)),
    ] {
        let tag = format!("{} via {label}", space.name());
        assert_eq!(s2.updates_per_iter, s.updates_per_iter, "Snd {tag}");
        assert_eq!(a2.updates_per_iter, a.updates_per_iter, "And {tag}");
        assert_eq!(a2.processed_per_iter, a.processed_per_iter, "And {tag}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn access_path_never_changes_the_trajectory(g in arb_holme_kim()) {
        check_access_path_is_invisible(&CoreSpace::new(&g));
        check_access_path_is_invisible(&TrussSpace::precomputed(&g));
        check_access_path_is_invisible(&Nucleus34Space::precomputed(&g));
        check_access_path_is_invisible(&CachedSpace::from_graph(&g, 1, 3));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn core_all_algorithms_agree(g in arb_graph()) {
        let sp = CoreSpace::new(&g);
        let exact = peel(&sp).kappa;
        prop_assert_eq!(&snd(&sp, &LocalConfig::default()).tau, &exact);
        prop_assert_eq!(&and(&sp, &LocalConfig::default(), &Order::Natural).tau, &exact);
        prop_assert_eq!(&and(&sp, &LocalConfig::default(), &Order::Reverse).tau, &exact);
        prop_assert_eq!(&and(&sp, &LocalConfig::default(), &Order::Random(1)).tau, &exact);
        let full_scan = AndOptions { notification: false, ..AndOptions::default() };
        prop_assert_eq!(&and_opts(&sp, &LocalConfig::default(), &Order::Natural, full_scan).unwrap().tau, &exact);
        prop_assert_eq!(&peel_parallel(&sp, ParallelConfig::with_threads(3).chunk(4)).kappa, &exact);
        prop_assert_eq!(&snd(&sp, &LocalConfig::with_threads(3)).tau, &exact);
        prop_assert_eq!(&and(&sp, &LocalConfig::with_threads(3), &Order::Natural).tau, &exact);
    }

    #[test]
    fn truss_all_algorithms_agree(g in arb_graph()) {
        let pre = TrussSpace::precomputed(&g);
        let fly = TrussSpace::on_the_fly(&g);
        let exact = peel(&pre).kappa;
        prop_assert_eq!(&peel(&fly).kappa, &exact);
        prop_assert_eq!(&snd(&pre, &LocalConfig::default()).tau, &exact);
        prop_assert_eq!(&snd(&fly, &LocalConfig::default()).tau, &exact);
        prop_assert_eq!(&and(&pre, &LocalConfig::default(), &Order::IncreasingDegree).tau, &exact);
        prop_assert_eq!(&and(&fly, &LocalConfig::with_threads(2), &Order::Natural).tau, &exact);
    }

    #[test]
    fn nucleus34_all_algorithms_agree(g in arb_graph()) {
        let pre = Nucleus34Space::precomputed(&g);
        let fly = Nucleus34Space::on_the_fly(&g);
        let exact = peel(&pre).kappa;
        prop_assert_eq!(&peel(&fly).kappa, &exact);
        prop_assert_eq!(&snd(&pre, &LocalConfig::default()).tau, &exact);
        prop_assert_eq!(&and(&fly, &LocalConfig::default(), &Order::Natural).tau, &exact);
    }

    #[test]
    fn generic_space_is_consistent_oracle(g in arb_graph()) {
        // (1,2) generic == core space, (2,3) generic == truss space: ids
        // are vertex ids and edge ids, so degrees, rows and κ align.
        let core = CoreSpace::new(&g);
        let gen12 = CachedSpace::from_graph(&g, 1, 2);
        same_space(&gen12, &core);
        prop_assert_eq!(&peel(&gen12).kappa, &peel(&core).kappa);

        let truss = TrussSpace::precomputed(&g);
        let gen23 = CachedSpace::from_graph(&g, 2, 3);
        same_space(&gen23, &truss);
        prop_assert_eq!(&peel(&gen23).kappa, &peel(&truss).kappa);

        // Exotic (1,3): vertices by triangle participation — snd == peel.
        let gen13 = CachedSpace::from_graph(&g, 1, 3);
        prop_assert_eq!(&snd(&gen13, &LocalConfig::default()).tau, &peel(&gen13).kappa);

        // Exotic (2,4): edges by K4 participation — and == peel.
        let gen24 = CachedSpace::from_graph(&g, 2, 4);
        prop_assert_eq!(
            &and(&gen24, &LocalConfig::default(), &Order::Natural).tau,
            &peel(&gen24).kappa
        );
    }

    #[test]
    fn generic_34_matches_specialized_34(g in arb_graph()) {
        // Both number triangles lexicographically.
        let spec = Nucleus34Space::precomputed(&g);
        let gen = CachedSpace::from_graph(&g, 3, 4);
        same_space(&gen, &spec);
        prop_assert_eq!(peel(&gen).kappa, peel(&spec).kappa);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn generic_builder_matches_brute_force_oracle(g in arb_small_graph()) {
        for (r, s) in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (2, 5)] {
            let built = CachedSpace::from_graph(&g, r, s);
            let brute = BruteSpace::new(&g, r, s);
            prop_assert_eq!(built.num_cliques(), brute.num_cliques(), "({}, {})", r, s);
            for i in 0..brute.num_cliques() {
                prop_assert_eq!(built.clique_vertices(i), brute.clique(i), "({}, {}) clique {}", r, s, i);
                prop_assert_eq!(sorted_row(&built, i), sorted_row(&brute, i), "({}, {}) row {}", r, s, i);
            }
            prop_assert_eq!(peel(&built).kappa, peel(&brute).kappa, "({}, {}) κ", r, s);
        }
    }
}

/// `a` and `b` are the same space: the same r-cliques under the same ids,
/// with the same rows.
fn same_space<A: CliqueSpace, B: CliqueSpace>(a: &A, b: &B) {
    assert_eq!(a.num_cliques(), b.num_cliques(), "{} vs {}", a.name(), b.name());
    assert_eq!(a.initial_degrees(), b.initial_degrees(), "{} vs {}", a.name(), b.name());
    let (mut va, mut vb) = (Vec::new(), Vec::new());
    for i in 0..a.num_cliques() {
        va.clear();
        vb.clear();
        a.vertices_of(i, &mut va);
        b.vertices_of(i, &mut vb);
        assert_eq!(va, vb, "{} vs {}: vertices of {i}", a.name(), b.name());
        assert_eq!(sorted_row(a, i), sorted_row(b, i), "{} vs {}: row {i}", a.name(), b.name());
    }
}

#[test]
fn large_scale_agreement_on_registry_dataset() {
    // One heavier end-to-end check on a registry stand-in.
    let g = hdsd::datasets::Dataset::Sse.generate(0.2);
    let core = CoreSpace::new(&g);
    let exact = peel(&core).kappa;
    assert_eq!(snd(&core, &LocalConfig::with_threads(4)).tau, exact);
    assert_eq!(and(&core, &LocalConfig::default(), &Order::Natural).tau, exact);

    let truss = TrussSpace::precomputed(&g);
    let exact_t = peel(&truss).kappa;
    assert_eq!(snd(&truss, &LocalConfig::with_threads(2)).tau, exact_t);
}
