//! Brute-force oracles for the clique substrate: every optimized builder
//! (linear orientation, the k-clique lister, counting-sort canonical ids,
//! incidence lists) is checked against the definition on arbitrary small
//! graphs, under degeneracy, degree and arbitrary vertex orders.

use hdsd_graph::{
    count_triangles_per_edge, degeneracy_order, for_each_clique, total_k4, total_triangles,
    CsrGraph, GraphBuilder, K4List, Orientation, TriangleList, VertexOrder,
};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    proptest::collection::vec((0u32..15, 0u32..15), 0..70)
        .prop_map(|edges| GraphBuilder::new().edges(edges).build())
}

/// Every triangle `a < b < c`, lexicographic.
fn brute_triangles(g: &CsrGraph) -> Vec<[u32; 3]> {
    let n = g.num_vertices() as u32;
    let mut out = Vec::new();
    for a in 0..n {
        for b in a + 1..n {
            if !g.has_edge(a, b) {
                continue;
            }
            for c in b + 1..n {
                if g.has_edge(a, c) && g.has_edge(b, c) {
                    out.push([a, b, c]);
                }
            }
        }
    }
    out
}

/// Every 4-clique `a < b < c < d`, lexicographic.
fn brute_k4s(g: &CsrGraph) -> Vec<[u32; 4]> {
    let mut out = Vec::new();
    for [a, b, c] in brute_triangles(g) {
        for d in c + 1..g.num_vertices() as u32 {
            if g.has_edge(a, d) && g.has_edge(b, d) && g.has_edge(c, d) {
                out.push([a, b, c, d]);
            }
        }
    }
    out
}

/// Every k-clique, vertices ascending, lexicographic.
fn brute_cliques(g: &CsrGraph, k: usize) -> Vec<Vec<u32>> {
    fn grow(g: &CsrGraph, k: usize, clique: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        if clique.len() == k {
            out.push(clique.clone());
            return;
        }
        let from = clique.last().map_or(0, |&v| v + 1);
        for v in from..g.num_vertices() as u32 {
            if clique.iter().all(|&u| g.has_edge(u, v)) {
                clique.push(v);
                grow(g, k, clique, out);
                clique.pop();
            }
        }
    }
    let mut out = Vec::new();
    grow(g, k, &mut Vec::new(), &mut out);
    out
}

/// The lister under `orient` reports every k-clique exactly once, ranks
/// ascending, with the true root and path edge ids.
fn check_lister(g: &CsrGraph, name: &str, orient: &Orientation, k: usize) {
    let mut found = Vec::new();
    for_each_clique(g, orient, k, |vs, root, path| {
        assert_eq!(vs.len(), k, "{name} k={k}");
        assert_eq!((root.len(), path.len()), (k - 1, k - 1), "{name} k={k}");
        assert!(vs.windows(2).all(|w| orient.rank(w[0]) < orient.rank(w[1])), "{name}: {vs:?}");
        for i in 0..k - 1 {
            assert_eq!(
                g.edge_id(vs[0], vs[i + 1]),
                Some(root[i]),
                "{name}: root edge {i} of {vs:?}"
            );
            assert_eq!(
                g.edge_id(vs[i], vs[i + 1]),
                Some(path[i]),
                "{name}: path edge {i} of {vs:?}"
            );
        }
        let mut sorted = vs.to_vec();
        sorted.sort_unstable();
        found.push(sorted);
    });
    found.sort_unstable();
    assert_eq!(found, brute_cliques(g, k), "{name}: the {k}-cliques, each once");
}

/// The orientations every builder must be correct under: degeneracy,
/// degree, and a seeded arbitrary permutation.
fn orientations(g: &CsrGraph, seed: u64) -> [(&'static str, Orientation); 3] {
    let mut perm: Vec<u32> = (0..g.num_vertices() as u32).collect();
    let mut state = seed | 1;
    for i in (1..perm.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        perm.swap(i, (state >> 33) as usize % (i + 1));
    }
    [
        ("degeneracy", Orientation::degeneracy(g)),
        ("degree", Orientation::degree(g)),
        ("arbitrary", Orientation::new(g, VertexOrder::from_permutation(&perm))),
    ]
}

/// The whole substrate built under `orient`, against brute force.
fn check_substrate(g: &CsrGraph, name: &str, orient: &Orientation) {
    // Out-lists: each edge oriented once, upward, rank-sorted.
    let mut oriented = vec![0u32; g.num_edges()];
    for v in g.vertices() {
        let ranks: Vec<u32> = orient.out_neighbors(v).iter().map(|&w| orient.rank(w)).collect();
        assert!(ranks.windows(2).all(|r| r[0] < r[1]), "{name}: out({v}) not rank-sorted");
        assert!(ranks.iter().all(|&r| r > orient.rank(v)), "{name}: out({v}) points down");
        for (&w, &e) in orient.out_neighbors(v).iter().zip(orient.out_edge_ids(v)) {
            assert_eq!(g.edge_id(v, w), Some(e), "{name}: out({v}) edge id");
            oriented[e as usize] += 1;
        }
    }
    assert!(oriented.iter().all(|&c| c == 1), "{name}: an edge is not oriented exactly once");

    // Triangles: lexicographic, complete, edges [ab, ac, bc].
    let tl = TriangleList::build_with(g, orient);
    assert_eq!(tl.tri_verts, brute_triangles(g), "{name}: tri_verts");
    for (t, (&[a, b, c], &es)) in tl.tri_verts.iter().zip(&tl.tri_edges).enumerate() {
        let want = [g.edge_id(a, b), g.edge_id(a, c), g.edge_id(b, c)].map(Option::unwrap);
        assert_eq!(es, want, "{name}: tri_edges of {t}");
        assert_eq!(tl.triangle_id(g, a, b, c), Some(t as u32), "{name}: triangle_id of {t}");
    }

    // Incidence: complete, sorted by third vertex, ids aligned.
    for (e, &(u, v)) in g.edges().iter().enumerate() {
        let e = e as u32;
        let thirds: Vec<u32> = g
            .vertices()
            .filter(|&w| w != u && w != v && g.has_edge(u, w) && g.has_edge(v, w))
            .collect();
        assert_eq!(tl.thirds_of_edge(e), thirds, "{name}: thirds of ({u}, {v})");
        assert_eq!(tl.edge_triangle_count(e) as usize, thirds.len());
        for (&t, &w) in tl.triangles_of_edge(e).iter().zip(&thirds) {
            let mut vs = [u, v, w];
            vs.sort_unstable();
            assert_eq!(tl.tri_verts[t as usize], vs, "{name}: incidence of ({u}, {v})");
        }
    }

    // 4-cliques: the quad set equals brute force, with the four triangle
    // ids [abc, abd, acd, bcd] and an incidence that lists exactly them.
    let k4 = K4List::build_with(g, &tl, orient);
    let mut quads: Vec<[u32; 4]> = k4
        .quad_tris
        .iter()
        .map(|&[abc, abd, ..]| {
            let [a, b, c] = tl.tri_verts[abc as usize];
            [a, b, c, tl.tri_verts[abd as usize][2]]
        })
        .collect();
    for (q, (&[a, b, c, d], &ts)) in quads.iter().zip(&k4.quad_tris).enumerate() {
        let want = [[a, b, c], [a, b, d], [a, c, d], [b, c, d]]
            .map(|[x, y, z]| tl.triangle_id(g, x, y, z).expect("face of a K4"));
        assert_eq!(ts, want, "{name}: quad_tris of K4 {q}");
    }
    for t in 0..tl.len() as u32 {
        let want: Vec<u32> =
            (0..k4.len() as u32).filter(|&q| k4.quad_tris[q as usize].contains(&t)).collect();
        assert_eq!(k4.k4s_of_triangle(t), want, "{name}: K4s of triangle {t}");
    }
    quads.sort_unstable();
    assert_eq!(quads, brute_k4s(g), "{name}: K4 set");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn triangle_total_matches_brute_force(g in arb_graph()) {
        prop_assert_eq!(total_triangles(&g), brute_triangles(&g).len() as u64);
    }

    #[test]
    fn k4_total_matches_brute_force(g in arb_graph()) {
        prop_assert_eq!(total_k4(&g), brute_k4s(&g).len() as u64);
    }

    #[test]
    fn per_edge_counts_match_brute_force(g in arb_graph()) {
        let counts = count_triangles_per_edge(&g);
        for (e, &(u, v)) in g.edges().iter().enumerate() {
            let brute = g
                .vertices()
                .filter(|&w| w != u && w != v && g.has_edge(u, w) && g.has_edge(v, w))
                .count() as u32;
            prop_assert_eq!(counts[e], brute, "edge ({}, {})", u, v);
        }
    }

    #[test]
    fn triangle_list_is_complete_and_exact(g in arb_graph()) {
        let tl = TriangleList::build(&g);
        prop_assert_eq!(tl.len(), brute_triangles(&g).len());
        // every listed triple really is a triangle, listed once
        let mut seen = std::collections::HashSet::new();
        for vs in &tl.tri_verts {
            prop_assert!(g.has_edge(vs[0], vs[1]));
            prop_assert!(g.has_edge(vs[0], vs[2]));
            prop_assert!(g.has_edge(vs[1], vs[2]));
            prop_assert!(seen.insert(*vs), "duplicate triangle {:?}", vs);
        }
    }

    #[test]
    fn substrate_matches_brute_force_under_every_order(g in arb_graph(), seed in 0u64..u64::MAX) {
        for (name, orient) in orientations(&g, seed) {
            check_substrate(&g, name, &orient);
        }
    }

    #[test]
    fn lister_reports_every_clique_once_under_every_order(g in arb_graph(), seed in 0u64..u64::MAX) {
        for (name, orient) in orientations(&g, seed) {
            for k in 1..=5 {
                check_lister(&g, name, &orient, k);
            }
        }
    }

    #[test]
    fn degeneracy_bounds_out_degrees(g in arb_graph()) {
        let (order, d) = degeneracy_order(&g);
        let o = Orientation::new(&g, order);
        prop_assert!(o.max_out_degree() <= d as usize);
        // the degeneracy of a graph with any edge is >= 1
        if g.num_edges() > 0 {
            prop_assert!(d >= 1);
        }
    }

    #[test]
    fn builder_is_idempotent(g in arb_graph()) {
        let rebuilt = GraphBuilder::new()
            .with_num_vertices(g.num_vertices())
            .edges(g.edges().iter().copied())
            .build();
        prop_assert_eq!(g.edges(), rebuilt.edges());
        prop_assert_eq!(g.num_vertices(), rebuilt.num_vertices());
    }

    #[test]
    fn edge_id_lookup_agrees_with_edge_table(g in arb_graph()) {
        for (e, &(u, v)) in g.edges().iter().enumerate() {
            prop_assert_eq!(g.edge_id(u, v), Some(e as u32));
            prop_assert_eq!(g.edge_id(v, u), Some(e as u32));
        }
        // a non-edge never resolves
        let n = g.num_vertices() as u32;
        for u in 0..n.min(6) {
            for v in 0..n.min(6) {
                if u != v && !g.has_edge(u, v) {
                    prop_assert_eq!(g.edge_id(u, v), None);
                }
            }
        }
    }

    #[test]
    fn io_round_trip_preserves_graph(g in arb_graph()) {
        let mut buf = Vec::new();
        {
            use std::io::Write;
            writeln!(buf, "# test").unwrap();
            for &(u, v) in g.edges() {
                writeln!(buf, "{u} {v}").unwrap();
            }
        }
        let g2 = hdsd_graph::io::read_edge_list_from(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(g.edges(), g2.edges());
    }
}
