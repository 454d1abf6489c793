//! Recovering a planted community hierarchy with nucleus decompositions —
//! the use case that motivates the paper (dense subgraphs at multiple
//! granularities with their containment relations, e.g. research-topic
//! hierarchies in citation networks).
//!
//! We plant a two-level community structure (4 tight leaf communities
//! inside 2 looser super-communities inside a sparse background), then show
//! that the nucleus forest recovers the nesting: leaves of the forest are
//! the planted leaf communities, their parents the super-communities, with
//! density increasing toward the leaves.
//!
//! Run with: `cargo run --release --example community_hierarchy`

use hdsd::datasets::{nested_communities, NestedCommunitySpec};
use hdsd::prelude::*;

fn main() {
    let leaf_size = 24;
    let spec = [
        NestedCommunitySpec { branching: 2, p: 0.22 }, // super-communities
        NestedCommunitySpec { branching: 2, p: 0.85 }, // leaf communities
    ];
    let g = nested_communities(leaf_size, &spec, 0.02, 7);
    println!(
        "planted graph: {} vertices, {} edges, overall density {:.4}",
        g.num_vertices(),
        g.num_edges(),
        hdsd::graph::density(&g)
    );

    for decomposition in ["core", "truss"] {
        println!("\n=== {decomposition} hierarchy ===");
        match decomposition {
            "core" => {
                let sp = CoreSpace::new(&g);
                report(&sp, &g);
            }
            "truss" => {
                let sp = TrussSpace::precomputed(&g);
                report(&sp, &g);
            }
            _ => unreachable!(),
        }
    }
}

fn report<S: CliqueSpace>(space: &S, g: &hdsd::graph::CsrGraph) {
    let kappa = peel(space).kappa;
    let forest = build_hierarchy(space, &kappa);
    println!(
        "{}: {} nuclei, {} roots, depth {}",
        space.name(),
        forest.len(),
        forest.roots.len(),
        forest.depth()
    );

    // Print the root-to-leaf chain densities for the largest root.
    let Some(&root) = forest.roots.iter().max_by_key(|&&r| forest.nodes[r as usize].size) else {
        return;
    };
    let mut frontier = vec![(root, 0usize)];
    let mut reported = 0;
    while let Some((id, depth)) = frontier.pop() {
        let d = forest.node_density(id, space, g);
        if d.vertices >= 8 {
            println!(
                "{:indent$}k={:<3} |V|={:<4} |E|={:<5} density={:.3}",
                "",
                d.k,
                d.vertices,
                d.edges,
                d.density,
                indent = depth * 2
            );
            reported += 1;
            if reported > 24 {
                println!("  … (truncated)");
                break;
            }
        }
        for &c in &forest.nodes[id as usize].children {
            // Nuclei nest: a child is a denser k-nucleus inside its parent.
            assert!(forest.nodes[c as usize].k > forest.nodes[id as usize].k);
            frontier.push((c, depth + 1));
        }
    }

    // Quality check: the densest leaves should align with planted leaves.
    let best_leaf = forest
        .leaves()
        .into_iter()
        .map(|l| forest.node_density(l, space, g))
        .max_by(|a, b| a.density.total_cmp(&b.density));
    if let Some(d) = best_leaf {
        assert!(d.density > hdsd::graph::density(g), "a leaf nucleus is denser than the graph");
        println!(
            "densest leaf nucleus: k={} with {} vertices at density {:.3}",
            d.k, d.vertices, d.density
        );
    }
}
