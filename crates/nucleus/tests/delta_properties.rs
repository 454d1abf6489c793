//! Property tests for the incremental update path: on random Holme–Kim
//! graphs with random mixed insert/remove batches, the delta-maintained
//! structures must be **structurally identical** to from-scratch builds at
//! every layer (CSR, r-clique lists, container caches), the splice's
//! touched set must be exactly the surviving cliques whose container set
//! changed, and the refreshed κ of the serving engine's update step
//! (`GraphStep` + `update_space`) must stay bit-identical to a cold peel
//! for all three spaces. On small graphs the one splice is also held to a
//! brute-force space for every (r, s) pair. Case counts are
//! proptest-driven, so the nightly `slow-props` job's `PROPTEST_CASES`
//! override deepens this suite too.

mod common;

use common::{sorted_row, BruteSpace};
use hdsd_graph::{apply_edge_batch, graph_from_edges, CsrGraph, TriangleList, VertexId, NO_ID};
use hdsd_nucleus::{
    peel, rebuild_graph, space_delta, update_space, CachedSpace, CancelToken, CliqueSpace,
    GraphStep, SpaceDelta, SpaceSel,
};

use proptest::prelude::*;
use proptest::splitmix64 as splitmix;

type Batch = Vec<(VertexId, VertexId)>;

/// A random mixed batch: inserts may duplicate, touch new vertices, repeat
/// existing edges, or contain self-loops; removes mix present and absent
/// edges. All the no-op noise the public API must tolerate.
fn random_batch(g: &CsrGraph, rng: &mut u64) -> (Batch, Batch) {
    let n = g.num_vertices() as u64;
    let m = g.num_edges() as u64;
    let mut ins = Vec::new();
    for _ in 0..(splitmix(rng) % 6 + 1) {
        let u = (splitmix(rng) % (n + 4)) as u32;
        let v = (splitmix(rng) % (n + 4)) as u32;
        ins.push((u, v));
        if splitmix(rng).is_multiple_of(4) {
            ins.push((v, u)); // duplicate, reversed
        }
    }
    if splitmix(rng).is_multiple_of(3) {
        ins.push((7, 7)); // self-loop
        if m > 0 {
            ins.push(g.edges()[(splitmix(rng) % m) as usize]); // already present
        }
    }
    let mut rm = Vec::new();
    if m > 0 {
        for _ in 0..(splitmix(rng) % 5 + 1) {
            rm.push(g.edges()[(splitmix(rng) % m) as usize]);
        }
    }
    rm.push(((splitmix(rng) % (n + 8)) as u32, (splitmix(rng) % (n + 8)) as u32)); // likely absent
    (ins, rm)
}

fn assert_same_graph(a: &CsrGraph, b: &CsrGraph, ctx: &str) {
    assert_eq!(a.num_vertices(), b.num_vertices(), "{ctx}: vertex count");
    assert_eq!(a.edges(), b.edges(), "{ctx}: edge list");
    for v in a.vertices() {
        assert_eq!(a.neighbors(v), b.neighbors(v), "{ctx}: neighbors of {v}");
        assert_eq!(a.neighbor_edge_ids(v), b.neighbor_edge_ids(v), "{ctx}: edge ids of {v}");
    }
}

fn sorted_containers(space: &CachedSpace, i: usize) -> Vec<Vec<usize>> {
    let mut v: Vec<Vec<usize>> = Vec::new();
    space.for_each_container(i, |o| {
        let mut c = o.to_vec();
        c.sort_unstable();
        v.push(c);
    });
    v.sort();
    v
}

/// A row as a sorted multiset of sorted containers, members named by *old*
/// id through `remap` (`NO_ID` for a batch-created member).
fn row_in_old_ids(space: &CachedSpace, i: usize, remap: impl Fn(usize) -> u32) -> Vec<Vec<u32>> {
    let mut v: Vec<Vec<u32>> = Vec::new();
    space.for_each_container(i, |o| {
        let mut c: Vec<u32> = o.iter().map(|&x| remap(x)).collect();
        c.sort_unstable();
        v.push(c);
    });
    v.sort();
    v
}

/// `SpaceDelta::touched` against its definition, by brute force: the
/// surviving new ids whose container multiset, read through `new_to_old`,
/// differs from the old row.
fn assert_touched_is_exact(old: &CachedSpace, sd: &SpaceDelta, ctx: &str) {
    let brute: Vec<u32> = (0..sd.cached.num_cliques())
        .filter(|&i| {
            let o = sd.new_to_old[i];
            o != NO_ID
                && row_in_old_ids(&sd.cached, i, |x| sd.new_to_old[x])
                    != row_in_old_ids(old, o as usize, |x| x as u32)
        })
        .map(|i| i as u32)
        .collect();
    assert_eq!(sd.touched, brute, "{ctx}: touched set");
}

fn assert_same_cached(spliced: &CachedSpace, fresh: &CachedSpace, ctx: &str) {
    assert_eq!(spliced.num_cliques(), fresh.num_cliques(), "{ctx}: clique count");
    for i in 0..fresh.num_cliques() {
        assert_eq!(spliced.degree(i), fresh.degree(i), "{ctx}: degree of {i}");
        assert_eq!(spliced.clique_vertices(i), fresh.clique_vertices(i), "{ctx}: vertices of {i}");
        assert_eq!(sorted_containers(spliced, i), sorted_containers(fresh, i), "{ctx}: row {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn delta_structures_match_from_scratch_builds(
        n in 120u32..360,
        m in 4u32..7,
        seed in 0u64..1_000_000,
        batch_seed in 0u64..1_000_000,
    ) {
        let base = hdsd_datasets::holme_kim(n, m, 0.5, seed);
        let g = hdsd_datasets::thin_edges(&base, 0.75, seed);
        let tl = TriangleList::build(&g);

        let mut rng = 0xABCDEF ^ batch_seed;
        let (mut ins, rm) = random_batch(&g, &mut rng);
        if batch_seed.is_multiple_of(2) {
            ins.push(rm[0]); // removed and re-inserted in one batch: present
        }
        let ctx = format!("n {n} m {m} seed {seed} batch {batch_seed}");

        // Layer 1: the spliced CSR is bit-identical to a rebuild.
        let (g2, ed) = apply_edge_batch(&g, &ins, &rm);
        let (g_ref, inserted_ref) = rebuild_graph(&g, &ins, &rm);
        assert_same_graph(&g2, &g_ref, &ctx);
        assert_eq!(ed.inserted(), inserted_ref, "{ctx}: inserted count");
        for (old, &new) in ed.old_to_new.iter().enumerate() {
            if new != NO_ID {
                assert_eq!(
                    g.edge_endpoints(old as u32),
                    g2.edge_endpoints(new),
                    "{ctx}: edge remap {old}"
                );
            }
        }

        // Layer 2: each spliced space (r-clique list and rows) matches a
        // cold build, and reports exactly the surviving cliques whose
        // container set changed.
        let tl2 = TriangleList::build(&g2);
        for sel in [SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34] {
            let ctx = format!("{ctx} {}", sel.name());
            let old = sel.build_cached(&g, Some(&tl));
            let sd = space_delta(&old, &g, &g2, &ed);
            assert_same_cached(&sd.cached, &sel.build_cached(&g2, Some(&tl2)), &ctx);
            assert_touched_is_exact(&old, &sd, &ctx);
            assert_remap_keeps_vertices(&old, &sd, &ctx);
            if sel == SpaceSel::Truss {
                // For r = 2 the r-clique remap is the CSR's edge remap.
                assert_eq!(sd.new_to_old, ed.new_to_old, "{ctx}: edge remap");
            }
        }
    }
}

/// Every surviving r-clique (`new_to_old[i] != NO_ID`) names the same
/// vertex tuple before and after the splice.
fn assert_remap_keeps_vertices(old: &CachedSpace, sd: &SpaceDelta, ctx: &str) {
    for (i, &o) in sd.new_to_old.iter().enumerate() {
        if o != NO_ID {
            assert_eq!(
                sd.cached.clique_vertices(i),
                old.clique_vertices(o as usize),
                "{ctx}: remap of {i}"
            );
        }
    }
}

/// The (r, s) pairs the brute-force splice check covers.
const RS_PAIRS: [(usize, usize); 7] = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (2, 5)];

/// A random graph on `n ≤ 16` vertices, dense enough for 5-cliques.
fn small_graph(n: u32, p_percent: u64, rng: &mut u64) -> CsrGraph {
    let mut edges = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            if splitmix(rng) % 100 < p_percent {
                edges.push((u, v));
            }
        }
    }
    hdsd_graph::GraphBuilder::new().with_num_vertices(n as usize).edges(edges).build()
}

/// The splice of one (r, s) space against [`BruteSpace`] on the new graph:
/// r-clique lists equal elementwise, rows equal as multisets, `touched`
/// exact, and every surviving id names the same vertex tuple.
fn splice_matches_brute_force(g: &CsrGraph, ins: &[(u32, u32)], rm: &[(u32, u32)], ctx: &str) {
    let (g2, ed) = apply_edge_batch(g, ins, rm);
    for (r, s) in RS_PAIRS {
        let ctx = format!("{ctx} ({r},{s})");
        let old = CachedSpace::from_graph(g, r, s);
        let sd = space_delta(&old, g, &g2, &ed);
        let brute = BruteSpace::new(&g2, r, s);
        assert_eq!(sd.cached.num_cliques(), brute.num_cliques(), "{ctx}: clique count");
        for i in 0..brute.num_cliques() {
            assert_eq!(sd.cached.clique_vertices(i), brute.clique(i), "{ctx}: vertices of {i}");
            assert_eq!(sorted_row(&sd.cached, i), sorted_row(&brute, i), "{ctx}: row {i}");
        }
        assert_touched_is_exact(&old, &sd, &ctx);
        assert_remap_keeps_vertices(&old, &sd, &ctx);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn splice_matches_brute_force_in_every_space(
        n in 5u32..13,
        p_percent in 35u64..80,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = 0x5EED ^ seed;
        let mut g = small_graph(n, p_percent, &mut rng);
        for round in 0..3 {
            let (mut ins, rm) = random_batch(&g, &mut rng);
            ins.retain(|&(u, v)| u.max(v) < 16); // brute force covers 16 vertices
            if round == 1 {
                ins.push(rm[0]); // removed and re-inserted in one batch
            }
            let ctx = format!("n {n} p {p_percent} seed {seed} round {round}");
            splice_matches_brute_force(&g, &ins, &rm, &ctx);
            g = apply_edge_batch(&g, &ins, &rm).0;
        }
    }
}

#[test]
fn splice_matches_brute_force_around_two_k5s() {
    // Two K5s sharing the edge (3, 4): removing, re-inserting and closing
    // edges there destroys and creates cliques of every size up to 5.
    let mut edges = Vec::new();
    for block in [[0u32, 1, 2, 3, 4], [3, 4, 5, 6, 7]] {
        for (i, &u) in block.iter().enumerate() {
            edges.extend(block[i + 1..].iter().map(|&v| (u, v)));
        }
    }
    let g = graph_from_edges(edges);
    let batches: [(Batch, Batch); 4] = [
        (vec![], vec![(3, 4)]),
        (vec![(3, 4)], vec![(3, 4), (0, 1)]),
        (vec![(2, 5), (2, 6), (2, 7), (9, 9)], vec![]),
        (vec![(0, 8), (1, 8)], vec![(5, 6), (6, 7)]),
    ];
    for (k, (ins, rm)) in batches.iter().enumerate() {
        splice_matches_brute_force(&g, ins, rm, &format!("batch {k}"));
    }
}

/// Carries one space through four random batches with the engine's update
/// step ([`GraphStep`] + [`update_space`]), checking κ against a cold peel
/// of the post-batch graph after each.
fn incremental_stays_exact(sel: SpaceSel, n: u32, seed: u64, batch_seed: u64) {
    let base = hdsd_datasets::holme_kim(n, 4, 0.55, seed ^ 0x55);
    let mut g = hdsd_datasets::thin_edges(&base, 0.8, seed);
    let mut cached = sel.build_cached(&g, Some(&TriangleList::build(&g)));
    let mut rng = 0xFEED ^ batch_seed;
    for round in 0..4 {
        let (ins, rm) = random_batch(&g, &mut rng);
        let step = GraphStep::new(&g, &ins, &rm);
        if step.is_noop() {
            continue; // the engine keeps the old state
        }
        let up = update_space(&cached, None, &step, &CancelToken::none()).unwrap();
        (g, cached) = (step.new_graph, up.cached);
        let exact = peel(&sel.build_cached(&g, Some(&TriangleList::build(&g)))).kappa;
        assert_eq!(
            up.kappa,
            exact,
            "{} diverged from cold peel at n {n} seed {seed} batch {batch_seed} round {round}",
            sel.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn incremental_refresh_is_bit_identical_to_peel(
        n in 100u32..200,
        seed in 0u64..1_000_000,
        batch_seed in 0u64..1_000_000,
    ) {
        for sel in [SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34] {
            incremental_stays_exact(sel, n, seed, batch_seed);
        }
    }
}
