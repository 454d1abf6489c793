//! Definitional validation of the hierarchy output: every node the forest
//! reports must actually *be* a k-(r,s) nucleus — minimum S-degree ≥ k
//! inside the materialized subgraph, S-connected, and maximal (the parent
//! fails the child's k).

use hdsd::graph::{density, induced_subgraph, CsrGraph, GraphBuilder, VertexId};
use hdsd::nucleus::hierarchy::{Hierarchy, HierarchyNode};
use hdsd::nucleus::CachedSpace;
use hdsd::prelude::*;
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = hdsd::graph::CsrGraph> {
    proptest::collection::vec((0u32..18, 0u32..18), 10..90)
        .prop_map(|edges| GraphBuilder::new().edges(edges).build())
}

/// Dense random graphs whose vertex ids are spread over several 64-bit
/// words (ids `7 i`, up to 161), with isolated ids in between.
fn arb_spread_graph() -> impl Strategy<Value = hdsd::graph::CsrGraph> {
    proptest::collection::vec((0u32..24, 0u32..24), 10..140).prop_map(|edges| {
        GraphBuilder::new().edges(edges.into_iter().map(|(u, v)| (7 * u, 7 * v))).build()
    })
}

/// The forest of `space` plus two hand-made roots: one owning no clique
/// (0 vertices) and one owning clique 0 alone (1 vertex in the core
/// space), so the `|V| < 2` density is covered too.
fn forest_with_small_nodes<S: CliqueSpace>(space: &S) -> Hierarchy {
    let kappa = peel(space).kappa;
    let mut forest = build_hierarchy(space, &kappa);
    let mut owned = vec![vec![]];
    if space.num_cliques() > 0 {
        owned.push(vec![0]);
    }
    for own_cliques in owned {
        forest.roots.push(forest.nodes.len() as u32);
        let size = own_cliques.len();
        forest.nodes.push(HierarchyNode {
            k: 0,
            parent: None,
            children: vec![],
            own_cliques,
            size,
        });
    }
    forest
}

/// Checks every node's materialization against an independent reference:
/// member cliques → their vertices → sort → dedup, and the density of
/// the induced subgraph those vertices span.
fn check_materialization<S: CliqueSpace>(forest: &Hierarchy, space: &S, g: &CsrGraph) {
    for id in 0..forest.len() as u32 {
        let mut reference: Vec<VertexId> = Vec::new();
        for c in forest.member_cliques(id) {
            space.vertices_of(c as usize, &mut reference);
        }
        reference.sort_unstable();
        reference.dedup();
        let sub = induced_subgraph(g, &reference);

        let (d, vertices) = forest.materialize(id, space, g);
        assert_eq!(&vertices, &reference, "node {} vertex set", id);
        assert_eq!(forest.member_vertices(id, space), reference.clone());
        assert_eq!(d.k, forest.nodes[id as usize].k);
        assert_eq!(d.vertices, reference.len());
        assert_eq!(d.edges, sub.graph.num_edges(), "node {} edge count", id);
        assert_eq!(d.density.to_bits(), density(&sub.graph).to_bits(), "node {}", id);
        if reference.len() < 2 {
            assert_eq!(d.density, 0.0);
        }
        assert_eq!(forest.node_density(id, space, g), d);
    }
}

/// [`check_materialization`] over the core, truss and (3,4) forests of
/// `g`, on the borrowed spaces and on their `CachedSpace` copies.
fn check_all_spaces(g: &CsrGraph) {
    let core = CoreSpace::new(g);
    let truss = TrussSpace::precomputed(g);
    let n34 = Nucleus34Space::precomputed(g);
    check_materialization(&forest_with_small_nodes(&core), &core, g);
    check_materialization(&forest_with_small_nodes(&truss), &truss, g);
    check_materialization(&forest_with_small_nodes(&n34), &n34, g);
    for cached in [CachedSpace::build(&core), CachedSpace::build(&truss), CachedSpace::build(&n34)]
    {
        check_materialization(&forest_with_small_nodes(&cached), &cached, g);
    }
}

// One subtree walk gives the sorted vertex set and the induced edge count
// of every node, bit-identical to building the subgraph.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn materialize_matches_the_induced_subgraph(g in arb_graph()) {
        check_all_spaces(&g);
    }

    #[test]
    fn materialize_matches_across_bitset_words(g in arb_spread_graph()) {
        check_all_spaces(&g);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn core_nodes_are_k_cores(g in arb_graph()) {
        let sp = CoreSpace::new(&g);
        let kappa = peel(&sp).kappa;
        let forest = build_hierarchy(&sp, &kappa);
        for id in 0..forest.len() as u32 {
            let k = forest.nodes[id as usize].k;
            let verts = forest.member_vertices(id, &sp);
            let sub = hdsd::graph::induced_subgraph(&g, &verts);
            // minimum degree >= k
            for v in sub.graph.vertices() {
                prop_assert!(
                    sub.graph.degree(v) >= k as usize,
                    "node {id} (k={k}): vertex {} has degree {}",
                    sub.original[v as usize],
                    sub.graph.degree(v)
                );
            }
            // connected
            if sub.graph.num_vertices() > 0 {
                let cc = hdsd::graph::connected_components(&sub.graph);
                prop_assert_eq!(cc.num_components, 1, "node {} not connected", id);
            }
        }
    }

    #[test]
    fn truss_nodes_are_k_trusses(g in arb_graph()) {
        let sp = TrussSpace::precomputed(&g);
        let kappa = peel(&sp).kappa;
        let forest = build_hierarchy(&sp, &kappa);
        for id in 0..forest.len() as u32 {
            let k = forest.nodes[id as usize].k;
            let member_edges = forest.member_cliques(id);
            // Subgraph formed by exactly the member edges.
            let sub_edges: Vec<(u32, u32)> = member_edges
                .iter()
                .map(|&e| g.edge_endpoints(e))
                .collect();
            let sub = GraphBuilder::new().edges(sub_edges.iter().copied()).build();
            let counts = hdsd::graph::count_triangles_per_edge(&sub);
            for (e, &c) in counts.iter().enumerate() {
                prop_assert!(
                    c >= k,
                    "node {id} (k={k}): edge {:?} has only {c} triangles",
                    sub.edge_endpoints(e as u32)
                );
            }
        }
    }

    #[test]
    fn maximality_parent_k_is_strictly_smaller(g in arb_graph()) {
        for as_truss in [false, true] {
            let forest = if as_truss {
                let sp = TrussSpace::precomputed(&g);
                let kappa = peel(&sp).kappa;
                build_hierarchy(&sp, &kappa)
            } else {
                let sp = CoreSpace::new(&g);
                let kappa = peel(&sp).kappa;
                build_hierarchy(&sp, &kappa)
            };
            for node in &forest.nodes {
                if let Some(p) = node.parent {
                    prop_assert!(forest.nodes[p as usize].k < node.k);
                }
                // Sizes add up.
                let child_sum: usize = node
                    .children
                    .iter()
                    .map(|&c| forest.nodes[c as usize].size)
                    .sum();
                prop_assert_eq!(node.size, node.own_cliques.len() + child_sum);
            }
        }
    }

    #[test]
    fn nucleus34_nodes_have_min_k4_degree(g in arb_graph()) {
        let sp = Nucleus34Space::precomputed(&g);
        let kappa = peel(&sp).kappa;
        let forest = build_hierarchy(&sp, &kappa);
        for id in 0..forest.len() as u32 {
            let k = forest.nodes[id as usize].k;
            if k == 0 {
                continue;
            }
            let verts = forest.member_vertices(id, &sp);
            let sub = hdsd::graph::induced_subgraph(&g, &verts);
            // Within the materialized subgraph, the member triangles must
            // keep ≥ k K4s. Membership check via vertex mapping: count K4s
            // per triangle in the subgraph and compare on member triangles.
            let tl = hdsd::graph::TriangleList::build(&sub.graph);
            let counts = hdsd::graph::count_k4_per_triangle(&sub.graph, &tl);
            // map member triangles into subgraph vertex ids
            let mut to_local = std::collections::HashMap::new();
            for (local, &orig) in sub.original.iter().enumerate() {
                to_local.insert(orig, local as u32);
            }
            for &t in &forest.member_cliques(id) {
                let mut vs = Vec::new();
                sp.vertices_of(t as usize, &mut vs);
                let l: Vec<u32> = vs.iter().map(|v| to_local[v]).collect();
                let tid = tl
                    .triangle_id(&sub.graph, l[0], l[1], l[2])
                    .expect("member triangle must exist in materialized subgraph");
                prop_assert!(
                    counts[tid as usize] >= k,
                    "node {id} (k={k}): triangle {vs:?} has {} K4s",
                    counts[tid as usize]
                );
            }
        }
    }
}

#[test]
fn hierarchy_on_registry_dataset_is_consistent() {
    let g = hdsd::datasets::Dataset::Fb.generate(0.1);
    let sp = TrussSpace::precomputed(&g);
    let kappa = peel(&sp).kappa;
    let forest = build_hierarchy(&sp, &kappa);
    // Spot-check the deepest leaf satisfies its k.
    let leaf = *forest.leaves().iter().max_by_key(|&&l| forest.nodes[l as usize].k).unwrap();
    let k = forest.nodes[leaf as usize].k;
    let member_edges = forest.member_cliques(leaf);
    let sub = GraphBuilder::new().edges(member_edges.iter().map(|&e| g.edge_endpoints(e))).build();
    let counts = hdsd::graph::count_triangles_per_edge(&sub);
    assert!(counts.iter().all(|&c| c >= k), "deepest truss leaf fails its k");
}
