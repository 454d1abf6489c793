//! §1/§2 motivation: hierarchy quality — the (3,4) nucleus decomposition
//! finds denser subgraphs with richer hierarchy than trusses and cores
//! (the claim behind the paper's Figure 3 and its prior-work citations).

use hdsd_datasets::{nested_communities, Dataset, NestedCommunitySpec};
use hdsd_graph::CsrGraph;
use hdsd_nucleus::{
    build_hierarchy, peel, CachedSpace, CliqueSpace, CoreSpace, Hierarchy, Nucleus34Space,
    TrussSpace,
};

use crate::{Env, Table};

/// Regenerates the hierarchy-quality comparison.
pub fn run(env: &Env) {
    println!("Hierarchy quality — cores vs trusses vs (3,4) nuclei\n");

    println!("== planted nested communities (ground truth: 4 leaves in 2 supers) ==");
    let planted = nested_communities(
        20,
        &[
            NestedCommunitySpec { branching: 2, p: 0.25 },
            NestedCommunitySpec { branching: 2, p: 0.8 },
        ],
        0.02,
        31,
    );
    compare(&planted);

    println!("\n== facebook stand-in ==");
    let fb = env.load(Dataset::Fb);
    compare(&fb);

    println!("\nPaper shape: (3,4) nuclei are the densest and expose the deepest");
    println!("hierarchy; trusses beat cores; density increases toward the leaves.");
}

fn compare(g: &CsrGraph) {
    let t = Table::new(&[
        ("space", 12),
        ("nuclei", 7),
        ("depth", 6),
        ("best-density", 13),
        ("best-|V|", 9),
        ("avg-leaf-density", 17),
    ]);
    {
        let sp = CoreSpace::new(g);
        let kappa = peel(&sp).kappa;
        let h = build_hierarchy(&sp, &kappa);
        report(&t, &sp, g, &h);
    }
    {
        let sp = CachedSpace::from_graph(g, 1, 3);
        let kappa = peel(&sp).kappa;
        let h = build_hierarchy(&sp, &kappa);
        report(&t, &sp, g, &h);
    }
    {
        let sp = TrussSpace::precomputed(g);
        let kappa = peel(&sp).kappa;
        let h = build_hierarchy(&sp, &kappa);
        report(&t, &sp, g, &h);
    }
    {
        let sp = Nucleus34Space::precomputed(g);
        let kappa = peel(&sp).kappa;
        let h = build_hierarchy(&sp, &kappa);
        report(&t, &sp, g, &h);
    }
}

fn report<S: CliqueSpace>(t: &Table, space: &S, g: &CsrGraph, h: &Hierarchy) {
    // Best-density nucleus with at least 6 vertices (trivial near-cliques
    // of 3-4 vertices would otherwise always win with density 1).
    let mut best_density = 0.0f64;
    let mut best_v = 0usize;
    let mut leaf_density_sum = 0.0f64;
    let mut leaf_count = 0usize;
    for id in 0..h.len() as u32 {
        let d = h.node_density(id, space, g);
        if d.vertices >= 6 && d.density > best_density {
            best_density = d.density;
            best_v = d.vertices;
        }
    }
    for id in h.leaves() {
        let d = h.node_density(id, space, g);
        if d.vertices >= 6 {
            leaf_density_sum += d.density;
            leaf_count += 1;
        }
    }
    t.row(&[
        space.name(),
        format!("{}", h.len()),
        format!("{}", h.depth()),
        format!("{best_density:.3}"),
        format!("{best_v}"),
        if leaf_count > 0 {
            format!("{:.3}", leaf_density_sum / leaf_count as f64)
        } else {
            "—".to_string()
        },
    ]);
}
