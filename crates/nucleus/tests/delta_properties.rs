//! Property tests for the incremental update path: on random Holme–Kim
//! graphs with random mixed insert/remove batches, the delta-maintained
//! structures must be **structurally identical** to from-scratch builds at
//! every layer (CSR, triangle list, container caches), the splice's
//! touched set must be exactly the surviving cliques whose container set
//! changed, and the refreshed κ of the serving engine's update step
//! (`GraphStep` + `update_space`) must stay bit-identical to a cold peel
//! for all three spaces. Case counts are proptest-driven, so the nightly
//! `slow-props` job's `PROPTEST_CASES` override deepens this suite too.

use hdsd_graph::{apply_edge_batch, triangle_delta, CsrGraph, TriangleList, VertexId, NO_ID};
use hdsd_nucleus::{
    core_space_delta, nucleus34_space_delta, peel, rebuild_graph, truss_space_delta, update_space,
    CachedSpace, CancelToken, CliqueSpace, CoreSpace, GraphStep, Nucleus34Space, SpaceDelta,
    SpaceSel, TrussSpace,
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

fn assert_same_triangles(a: &TriangleList, b: &TriangleList, m: usize, ctx: &str) {
    assert_eq!(a.tri_verts, b.tri_verts, "{ctx}: triangle vertices");
    assert_eq!(a.tri_edges, b.tri_edges, "{ctx}: triangle edges");
    for e in 0..m as u32 {
        assert_eq!(a.triangles_of_edge(e), b.triangles_of_edge(e), "{ctx}: incidence of {e}");
        assert_eq!(a.thirds_of_edge(e), b.thirds_of_edge(e), "{ctx}: thirds of {e}");
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
        let old_truss = CachedSpace::build(&TrussSpace::with_triangles(&g, &tl));
        let old_n34 = CachedSpace::build(&Nucleus34Space::with_triangles(&g, &tl));

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

        // Layer 2: the maintained triangle list matches a fresh build.
        let td = triangle_delta(&tl, &g2, &ed);
        assert_same_triangles(&td.list, &TriangleList::build(&g2), g2.num_edges(), &ctx);

        // Layer 3: spliced container caches match cold builds.
        let truss = truss_space_delta(&old_truss, &tl, &g2, &ed, &td);
        assert_same_cached(
            &truss.cached,
            &CachedSpace::build(&TrussSpace::on_the_fly(&g2)),
            &format!("{ctx} truss"),
        );
        let n34 = nucleus34_space_delta(&old_n34, &g, &tl, &g2, &ed, &td);
        assert_same_cached(
            &n34.cached,
            &CachedSpace::build(&Nucleus34Space::on_the_fly(&g2)),
            &format!("{ctx} nucleus34"),
        );
        let core = core_space_delta(&g, &g2, &ed);
        assert_same_cached(
            &core.cached,
            &CachedSpace::build(&CoreSpace::new(&g2)),
            &format!("{ctx} core"),
        );

        // Layer 4: each splice reports exactly the surviving cliques whose
        // container set changed.
        assert_touched_is_exact(&old_truss, &truss, &format!("{ctx} truss"));
        assert_touched_is_exact(&old_n34, &n34, &format!("{ctx} nucleus34"));
        let old_core = CachedSpace::build(&CoreSpace::new(&g));
        assert_touched_is_exact(&old_core, &core, &format!("{ctx} core"));
    }
}

/// Carries one space through four random batches with the engine's update
/// step ([`GraphStep`] + [`update_space`]), checking κ against a cold peel
/// of the post-batch graph after each.
fn incremental_stays_exact(sel: SpaceSel, n: u32, seed: u64, batch_seed: u64) {
    let base = hdsd_datasets::holme_kim(n, 4, 0.55, seed ^ 0x55);
    let mut g = hdsd_datasets::thin_edges(&base, 0.8, seed);
    let mut tl = sel.needs_triangles().then(|| TriangleList::build(&g));
    let mut cached = sel.build_cached(&g, tl.as_ref());
    let mut rng = 0xFEED ^ batch_seed;
    for round in 0..4 {
        let (ins, rm) = random_batch(&g, &mut rng);
        let step = GraphStep::new(&g, tl.as_ref(), &ins, &rm);
        if step.is_noop() {
            continue; // the engine keeps the old state
        }
        let up = update_space(sel, &cached, None, &step, &CancelToken::none()).unwrap();
        let GraphStep { new_graph, triangles, .. } = step;
        (g, tl, cached) = (new_graph, triangles.map(|td| td.list), up.cached);
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
