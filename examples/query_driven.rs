//! Query-driven estimation: answer "how deep does this vertex/edge sit in
//! the dense hierarchy?" for a handful of queries without decomposing the
//! whole graph — the scenario from the paper's introduction that peeling
//! fundamentally cannot serve (it reveals the densest regions last).
//!
//! For each query we run `t` local h-index iterations on the t-hop
//! neighborhood and compare against the exact κ from a full peel,
//! reporting accuracy and the fraction of the graph touched.
//!
//! Run with: `cargo run --release --example query_driven`

use hdsd::metrics::relative_error_stats;
use hdsd::prelude::*;

fn main() {
    let g = hdsd::datasets::holme_kim(10_000, 8, 0.5, 123);
    println!("graph: {} vertices, {} edges", g.num_vertices(), g.num_edges());

    // Ground truth (what a full decomposition would cost us).
    let core = CoreSpace::new(&g);
    let exact = peel(&core).kappa;

    // 50 queries spread over the id space (deterministic).
    let queries: Vec<u32> = (0..50u32).map(|i| i * (g.num_vertices() as u32 / 50)).collect();
    let exact_q: Vec<u32> = queries.iter().map(|&q| exact[q as usize]).collect();

    println!("\ncore-number estimation, 50 queries:");
    println!(
        "{:>5} {:>12} {:>12} {:>14} {:>16}",
        "iters", "exact-frac", "mean-rel-err", "max-abs-err", "avg-explored"
    );
    for t in [0usize, 1, 2, 3, 4, 6, 8] {
        let ests = estimate_core_numbers(&g, &queries, t);
        let est_vals: Vec<u32> = ests.iter().map(|e| e.estimate).collect();
        // Theorem 1: every estimate bounds the exact core number from above.
        assert!(est_vals.iter().zip(&exact_q).all(|(e, k)| e >= k));
        let stats = relative_error_stats(&est_vals, &exact_q);
        let avg_explored =
            ests.iter().map(|e| e.explored).sum::<usize>() as f64 / ests.len() as f64;
        println!(
            "{:>5} {:>12.3} {:>12.4} {:>14} {:>13.1} ({:.2}% of V)",
            t,
            stats.exact_fraction,
            stats.mean_relative_error,
            stats.max_abs_error,
            avg_explored,
            100.0 * avg_explored / g.num_vertices() as f64
        );
    }

    // Truss-number queries on a few edges.
    let truss = TrussSpace::on_the_fly(&g);
    let exact_t = peel(&truss).kappa;
    let equeries: Vec<u32> = (0..20u32).map(|i| i * (g.num_edges() as u32 / 20)).collect();
    let exact_eq: Vec<u32> = equeries.iter().map(|&e| exact_t[e as usize]).collect();

    println!("\ntruss-number estimation, 20 query edges:");
    println!("{:>5} {:>12} {:>12} {:>14}", "iters", "exact-frac", "mean-rel-err", "max-abs-err");
    for t in [1usize, 2, 3, 4] {
        let ests = estimate_truss_numbers(&g, &equeries, t);
        let est_vals: Vec<u32> = ests.iter().map(|e| e.estimate).collect();
        assert!(est_vals.iter().zip(&exact_eq).all(|(e, k)| e >= k));
        let stats = relative_error_stats(&est_vals, &exact_eq);
        println!(
            "{:>5} {:>12.3} {:>12.4} {:>14}",
            t, stats.exact_fraction, stats.mean_relative_error, stats.max_abs_error
        );
    }

    println!("\ntake-away: a handful of iterations on a local ball gives near-exact");
    println!("κ estimates while touching a small fraction of the graph.");
}
