//! The forest-equivalence property harness for incremental hierarchy
//! construction and repair: on random Holme–Kim graphs the builder gives
//! one forest whichever way a space serves its rows, and with random mixed
//! insert/remove batches, for **all three** maintained clique spaces
//! (core, truss, (3,4)), the forest repaired by the serving engine's update
//! step (`GraphStep` + `update_space`, which calls [`Hierarchy::repair`])
//! must be structurally identical — canonical-form equal, see
//! `hdsd_nucleus::hierarchy::canonical` — to a cold [`build_hierarchy`]
//! over the post-batch space. Repairs are *chained* (each round repairs
//! the previous round's repaired forest), so drift would compound and be
//! caught.
//!
//! Forest equality is subtle because node ids are renumbering-dependent;
//! `canonical()` quotients ids and sibling order away, which is what makes
//! "repaired ≡ rebuilt" a checkable property at all. The suite also
//! cross-checks the repair telemetry: the stats partition the repaired
//! forest, a small batch preserves most of it, and on one fixed stream the
//! per-batch counts are pinned exactly. No-op batches are skipped, as the
//! engine skips them.
//!
//! Case counts are tuned for the PR gate; the nightly `slow-props` CI job
//! reruns this suite with `PROPTEST_CASES` raised (the vendored proptest
//! honors the same env var as the real crate).

use hdsd_graph::{CsrGraph, TriangleList, VertexId};
use hdsd_nucleus::{
    assert_forest_eq, build_hierarchy, build_hierarchy_within, peel, update_space, CachedSpace,
    CancelToken, CliqueSpace, CoreSpace, GraphStep, Hierarchy, Nucleus34Space, RepairStats,
    SpaceSel, TrussSpace,
};
use proptest::prelude::*;
use proptest::splitmix64 as splitmix;

mod common;
use common::BruteSpace;

type Batch = Vec<(VertexId, VertexId)>;

/// A random mixed batch with the same no-op noise the public API must
/// tolerate: duplicate/reversed inserts, self-loops, already-present
/// edges, absent removals, and endpoints beyond the current vertex set.
fn random_batch(g: &CsrGraph, rng: &mut u64) -> (Batch, Batch) {
    let n = g.num_vertices() as u64;
    let m = g.num_edges() as u64;
    let mut ins = Vec::new();
    for _ in 0..(splitmix(rng) % 5 + 1) {
        let u = (splitmix(rng) % (n + 3)) as u32;
        let v = (splitmix(rng) % (n + 3)) as u32;
        ins.push((u, v));
        if splitmix(rng).is_multiple_of(4) {
            ins.push((v, u)); // duplicate, reversed
        }
    }
    if splitmix(rng).is_multiple_of(3) {
        ins.push((5, 5)); // self-loop
        if m > 0 {
            ins.push(g.edges()[(splitmix(rng) % m) as usize]); // already present
        }
    }
    let mut rm = Vec::new();
    if m > 0 {
        for _ in 0..(splitmix(rng) % 4 + 1) {
            rm.push(g.edges()[(splitmix(rng) % m) as usize]);
        }
    }
    rm.push(((splitmix(rng) % (n + 6)) as u32, (splitmix(rng) % (n + 6)) as u32)); // likely absent
    (ins, rm)
}

/// One space as the serving engine keeps it between batches: graph, rows,
/// κ and a resident forest.
struct Resident {
    graph: CsrGraph,
    cached: CachedSpace,
    kappa: Vec<u32>,
    forest: Hierarchy,
}

impl Resident {
    fn new(sel: SpaceSel, graph: CsrGraph) -> Resident {
        let triangles = sel.needs_triangles().then(|| TriangleList::build(&graph));
        let cached = sel.build_cached(&graph, triangles.as_ref());
        let kappa = peel(&cached).kappa;
        let forest = build_hierarchy(&cached, &kappa);
        Resident { graph, cached, kappa, forest }
    }

    /// One batch through the engine's update step, forest included.
    /// `None` for a batch that changes nothing (the engine keeps the old
    /// state and runs no step).
    fn apply(
        &mut self,
        ins: &[(VertexId, VertexId)],
        rm: &[(VertexId, VertexId)],
    ) -> Option<RepairStats> {
        let step = GraphStep::new(&self.graph, ins, rm);
        if step.is_noop() {
            return None;
        }
        let up =
            update_space(&self.cached, Some(&self.forest), &step, &CancelToken::none()).unwrap();
        let (forest, stats) = up.forest.expect("a resident forest is repaired");
        self.graph = step.new_graph;
        (self.cached, self.kappa, self.forest) = (up.cached, up.kappa, forest);
        Some(stats)
    }
}

/// Drives one space through `rounds` chained batches, asserting after
/// each that the repaired forest is canonical-form equal to a cold rebuild
/// of the post-batch space. Returns aggregate preservation counters so
/// callers can assert the repair actually reuses work overall.
fn chained_repairs_equal_cold(
    sel: SpaceSel,
    g: CsrGraph,
    rounds: usize,
    rng: &mut u64,
) -> (usize, usize) {
    let mut res = Resident::new(sel, g);
    let mut preserved_total = 0usize;
    let mut nodes_total = 0usize;
    for round in 0..rounds {
        let (ins, rm) = random_batch(&res.graph, rng);
        // Chained: each round repairs the previous round's repaired forest.
        let Some(stats) = res.apply(&ins, &rm) else { continue };
        let repaired = &res.forest;
        let cold = build_hierarchy(&res.cached, &res.kappa);
        // The property: repair ≡ cold rebuild, structurally. On failure,
        // print the reproducing inputs before the canonical diagnostic.
        if repaired.canonical() != cold.canonical() {
            eprintln!(
                "{} repair diverged from cold rebuild at round {round}: \
                 ins {ins:?}, rm {rm:?}, stats {stats:?}",
                sel.name()
            );
        }
        assert_forest_eq(repaired, &cold);
        assert!(
            stats.preserved_nodes + stats.rebuilt_nodes == repaired.len(),
            "{}: stats don't partition the result: {stats:?} vs {} nodes",
            sel.name(),
            repaired.len()
        );
        preserved_total += stats.preserved_nodes;
        nodes_total += repaired.len();
    }
    (preserved_total, nodes_total)
}

/// The builder reads rows only through [`CliqueSpace::for_each_container`],
/// so the space's own callback walk and the flat rows of its
/// [`CachedSpace`] snapshot (other row orders, same s-cliques) must give
/// the same forest.
fn native_and_cached_rows_agree<S: CliqueSpace>(space: &S) {
    let kappa = peel(space).kappa;
    let cached = CachedSpace::build(space);
    assert_forest_eq(&build_hierarchy(space, &kappa), &build_hierarchy(&cached, &kappa));
}

/// A token tripping at either pinned stage aborts the build with that
/// stage's name; one that never trips changes nothing.
fn cancelled_builds_name_the_stage<S: CliqueSpace>(space: &S) {
    let kappa = peel(space).kappa;
    let stage_at = |checks: i64| {
        build_hierarchy_within(space, &kappa, &CancelToken::tripping_after_checks(checks))
            .map_err(|c| c.stage)
    };
    // Fewer than a cancel chunk of cliques: check 1 opens the top level's
    // scan, check 2 precedes its unions.
    assert_eq!(stage_at(1).unwrap_err(), "hierarchy s-clique scan", "{}", space.name());
    assert_eq!(stage_at(2).unwrap_err(), "hierarchy union-find", "{}", space.name());
    assert_forest_eq(&stage_at(i64::MAX).unwrap(), &build_hierarchy(space, &kappa));
}

#[test]
fn every_access_path_names_the_pinned_cancel_stages() {
    let g = hdsd_datasets::holme_kim(120, 5, 0.8, 21);
    cancelled_builds_name_the_stage(&CoreSpace::new(&g));
    cancelled_builds_name_the_stage(&TrussSpace::on_the_fly(&g));
    cancelled_builds_name_the_stage(&Nucleus34Space::precomputed(&g));
    cancelled_builds_name_the_stage(&CachedSpace::from_graph(&g, 1, 3));
    cancelled_builds_name_the_stage(&CachedSpace::build(&TrussSpace::precomputed(&g)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn one_builder_two_access_paths_same_forest(
        n in 30u32..120,
        m in 2u32..6,
        p in 0u32..=100,
        seed in 0u64..1_000_000,
    ) {
        let g = hdsd_datasets::holme_kim(n, m, p as f64 / 100.0, seed);
        native_and_cached_rows_agree(&CoreSpace::new(&g));
        native_and_cached_rows_agree(&TrussSpace::on_the_fly(&g));
        native_and_cached_rows_agree(&Nucleus34Space::precomputed(&g));
    }

    #[test]
    fn generic_forests_match_the_brute_force_space(
        edges in proptest::collection::vec((0u32..16, 0u32..16), 0..100),
    ) {
        let g = hdsd_graph::GraphBuilder::new().edges(edges).build();
        for (r, s) in [(1, 3), (2, 4)] {
            let built = CachedSpace::from_graph(&g, r, s);
            let brute = BruteSpace::new(&g, r, s);
            let kappa = peel(&brute).kappa;
            prop_assert_eq!(&peel(&built).kappa, &kappa, "({}, {})", r, s);
            assert_forest_eq(&build_hierarchy(&built, &kappa), &build_hierarchy(&brute, &kappa));
        }
    }

    #[test]
    fn core_repair_equals_cold_rebuild(
        n in 40u32..140,
        m in 2u32..5,
        p in 0u32..=100,
        seed in 0u64..1_000_000,
        batch_seed in 0u64..1_000_000,
    ) {
        let g = hdsd_datasets::holme_kim(n, m, p as f64 / 100.0, seed);
        let mut rng = batch_seed ^ 0xC04E;
        chained_repairs_equal_cold(SpaceSel::Core, g, 3, &mut rng);
    }

    #[test]
    fn truss_repair_equals_cold_rebuild(
        n in 40u32..120,
        m in 2u32..5,
        p in 0u32..=100,
        seed in 0u64..1_000_000,
        batch_seed in 0u64..1_000_000,
    ) {
        let g = hdsd_datasets::holme_kim(n, m, p as f64 / 100.0, seed);
        let mut rng = batch_seed ^ 0x7255;
        chained_repairs_equal_cold(SpaceSel::Truss, g, 3, &mut rng);
    }

    #[test]
    fn nucleus34_repair_equals_cold_rebuild(
        n in 30u32..80,
        m in 3u32..6,
        p in 20u32..=100,
        seed in 0u64..1_000_000,
        batch_seed in 0u64..1_000_000,
    ) {
        let g = hdsd_datasets::holme_kim(n, m, p as f64 / 100.0, seed);
        let mut rng = batch_seed ^ 0x3434;
        chained_repairs_equal_cold(SpaceSel::Nucleus34, g, 2, &mut rng);
    }
}

/// On a graph with many far-apart communities and a single-edge batch, the
/// repair must actually *preserve* most of the forest — asserted on
/// counters rather than wall clocks. Truss, because its forest has one
/// subtree per community; the core forest here is a four-node chain that
/// any batch perturbs whole (the repair's `full_rebuild` case).
#[test]
fn small_batches_preserve_most_of_the_forest() {
    let g = hdsd_datasets::planted_partition(&[20, 20, 20, 20, 20], 0.5, 0.01, 77);
    // An absent edge inside the first community: a batch that changes
    // something (a present edge would be a no-op, with nothing to repair).
    let v = (1..20).find(|&v| g.edge_id(0, v).is_none()).expect("community 0 is not a clique");
    let mut res = Resident::new(SpaceSel::Truss, g);
    let stats = res.apply(&[(0, v)], &[]).expect("the edge is new");
    let repaired = &res.forest;
    assert_forest_eq(repaired, &build_hierarchy(&res.cached, &res.kappa));
    assert!(
        stats.preserved_nodes * 2 > repaired.len(),
        "one-edge batch should preserve most nodes: {stats:?} of {} nodes",
        repaired.len()
    );
    assert!(
        stats.scanned_scliques < res.graph.num_edges(),
        "one-edge batch should not re-scan every s-clique: {stats:?}"
    );
}

/// A fixed stream of small mixed batches (two random inserts, three
/// present edges removed) on a thinned power-law graph, through all three
/// spaces with resident forests: how much of each forest the repair
/// grafts back is a function of the inputs, so it is pinned exactly per
/// batch as `(preserved_nodes, rebuilt_nodes, full_rebuild)`. The core
/// forest is a five-node chain that both batches perturb whole; only the
/// first is caught up front by the `full_rebuild` short-circuit.
#[test]
fn repair_preservation_is_pinned() {
    let g = hdsd_datasets::thin_edges(&hdsd_datasets::holme_kim(2_000, 5, 0.4, 7), 0.7, 7);
    let mut spaces = [SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34]
        .map(|sel| Resident::new(sel, g.clone()));
    // Per batch: core, truss, (3,4).
    let expected = [
        [(0, 5, true), (398, 2, false), (28, 0, false)],
        [(0, 5, false), (399, 1, false), (28, 0, false)],
    ];
    let mut rng = 0xDECAF;
    for (batch, want) in expected.into_iter().enumerate() {
        let (ins, rm) = {
            let g = &spaces[0].graph;
            let nv = g.num_vertices() as u64;
            let ins: Batch = (0..2)
                .map(|_| ((splitmix(&mut rng) % nv) as u32, (splitmix(&mut rng) % nv) as u32))
                .collect();
            let rm: Batch = (0..3)
                .map(|_| g.edges()[(splitmix(&mut rng) % g.num_edges() as u64) as usize])
                .collect();
            (ins, rm)
        };
        for (res, want) in spaces.iter_mut().zip(want) {
            let s = res.apply(&ins, &rm).expect("the batch changes the graph");
            assert_forest_eq(&res.forest, &build_hierarchy(&res.cached, &res.kappa));
            assert_eq!(
                (s.preserved_nodes, s.rebuilt_nodes, s.full_rebuild),
                want,
                "{} batch {batch}: (preserved_nodes, rebuilt_nodes, full_rebuild)",
                res.cached.name()
            );
        }
    }
}

/// Deletion-heavy batches exercise subtree splits and node removals.
#[test]
fn deletion_heavy_batches_stay_equivalent() {
    let base = hdsd_datasets::holme_kim(150, 5, 0.6, 9);
    for kind_rounds in 0..3u64 {
        let mut rng = 0xDE1E ^ kind_rounds;
        let mut res = Resident::new(SpaceSel::Truss, base.clone());
        for _ in 0..3 {
            let victims: Vec<(u32, u32)> = {
                let edges = res.graph.edges();
                (0..12).map(|_| edges[(splitmix(&mut rng) % edges.len() as u64) as usize]).collect()
            };
            res.apply(&[], &victims);
            assert_forest_eq(&res.forest, &build_hierarchy(&res.cached, &res.kappa));
        }
    }
}

/// Batches that wipe the graph entirely (and then regrow it) hit the
/// degenerate ends of the repair: empty forests on both sides.
#[test]
fn wipe_and_regrow_round_trips() {
    let g = hdsd_datasets::holme_kim(40, 3, 0.5, 4);
    let all_edges: Vec<(u32, u32)> = g.edges().to_vec();
    let mut res = Resident::new(SpaceSel::Core, g);

    res.apply(&[], &all_edges).expect("wiping changes the graph");
    assert!(res.forest.is_empty(), "wiped graph must repair to an empty forest");
    assert_forest_eq(&res.forest, &build_hierarchy(&res.cached, &res.kappa));

    res.apply(&all_edges, &[]).expect("regrowing changes the graph");
    assert_forest_eq(&res.forest, &build_hierarchy(&res.cached, &res.kappa));
}
