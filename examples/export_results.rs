//! Exporting decomposition artifacts: κ tables as TSV and the nucleus
//! forest as GraphViz dot, plus the (1,3) "triangle-core" space that shows
//! what instantiating the framework for a new (r, s) costs: one builder
//! call.
//!
//! Run with: `cargo run --release --example export_results`
//! Outputs land in `target/hdsd-exports/`.

use hdsd::nucleus::{write_hierarchy_dot, write_kappa_tsv};
use hdsd::prelude::*;
use std::fs::File;
use std::io::BufWriter;

fn main() -> std::io::Result<()> {
    let out_dir = std::path::Path::new("target/hdsd-exports");
    std::fs::create_dir_all(out_dir)?;

    let g = hdsd::datasets::planted_partition(&[25, 25, 25], 0.5, 0.03, 11);
    println!("graph: {} vertices, {} edges", g.num_vertices(), g.num_edges());

    // --- truss decomposition: TSV + dot ---------------------------------
    let truss = TrussSpace::precomputed(&g);
    let kappa = peel(&truss).kappa;
    let tsv_path = out_dir.join("truss_kappa.tsv");
    write_kappa_tsv(&truss, &kappa, BufWriter::new(File::create(&tsv_path)?))?;
    println!("wrote {}", tsv_path.display());

    let forest = build_hierarchy(&truss, &kappa);
    let dot_path = out_dir.join("truss_hierarchy.dot");
    write_hierarchy_dot(&forest, &truss, &g, true, BufWriter::new(File::create(&dot_path)?))?;
    println!(
        "wrote {} ({} nuclei, depth {}) — render with `dot -Tsvg`",
        dot_path.display(),
        forest.len(),
        forest.depth()
    );

    // --- the (1,3) extension space ---------------------------------------
    // Vertices scored by triangle participation: the "triangle k-core".
    // Same algorithms, new space — the framework's generality in action.
    let v13 = CachedSpace::from_graph(&g, 1, 3);
    let exact13 = peel(&v13);
    let local13 = snd(&v13, &LocalConfig::default());
    assert_eq!(local13.tau, exact13.kappa);
    println!(
        "(1,3) triangle-core: max κ = {}, Snd converged in {} iterations",
        exact13.max_kappa,
        local13.iterations_to_converge()
    );
    let tsv13 = out_dir.join("triangle_core_kappa.tsv");
    write_kappa_tsv(&v13, &exact13.kappa, BufWriter::new(File::create(&tsv13)?))?;
    println!("wrote {}", tsv13.display());

    // --- densest nucleus shortcut ----------------------------------------
    if let Some((d, verts)) = hdsd::nucleus::densest_nucleus(&truss, &g, 8) {
        println!(
            "densest truss nucleus (≥8 vertices): k={} |V|={} density={:.3}, members {:?}…",
            d.k,
            d.vertices,
            d.density,
            &verts[..verts.len().min(10)]
        );
    }
    Ok(())
}
