//! Incremental core maintenance: keep κ₂ exact while edges stream in and
//! out, without re-running a full decomposition — an extension the paper's
//! locality makes possible (the asynchronous iteration converges to κ from
//! any stale-but-lifted upper bound; see `hdsd::nucleus::AndOptions::tau_init`).
//!
//! Run with: `cargo run --release --example incremental_updates`

use hdsd::nucleus::IncrementalCore;
use hdsd::prelude::*;
use std::time::Instant;

fn main() {
    let g = hdsd::datasets::thin_edges(&hdsd::datasets::holme_kim(20_000, 8, 0.5, 77), 0.7, 77);
    println!("initial graph: {} vertices, {} edges", g.num_vertices(), g.num_edges());

    // Cold-start cost for reference.
    let t0 = Instant::now();
    let cold = snd(&CoreSpace::new(&g), &LocalConfig::default());
    let cold_time = t0.elapsed();
    println!(
        "cold decomposition: {} sweeps in {:.1} ms",
        cold.sweeps,
        cold_time.as_secs_f64() * 1e3
    );

    let mut inc = IncrementalCore::new(g);

    // Stream 10 batches of mixed insertions and deletions.
    let mut state = 0xD1Eu64;
    let mut rand = move |m: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    println!("\n{:>6} {:>8} {:>10} {:>12} {:>12}", "batch", "op", "edges", "sweeps", "time-ms");
    for batch in 0..10 {
        if batch % 2 == 0 {
            // Small insert batches keep the candidate set (the cliques the
            // +1-per-insertion bound can actually reach) tight; large
            // batches widen the lift and erode the warm start's edge.
            let n = inc.graph().num_vertices() as u64;
            let edges: Vec<(u32, u32)> = (0..4).map(|_| (rand(n) as u32, rand(n) as u32)).collect();
            let t = Instant::now();
            let sweeps = inc.insert_edges(&edges);
            println!(
                "{:>6} {:>8} {:>10} {:>12} {:>12.1}",
                batch,
                "insert",
                edges.len(),
                sweeps,
                t.elapsed().as_secs_f64() * 1e3
            );
        } else {
            let m = inc.graph().num_edges() as u64;
            let victims: Vec<(u32, u32)> =
                (0..20).map(|_| inc.graph().edges()[rand(m) as usize]).collect();
            let t = Instant::now();
            let sweeps = inc.remove_edges(&victims);
            println!(
                "{:>6} {:>8} {:>10} {:>12} {:>12.1}",
                batch,
                "delete",
                victims.len(),
                sweeps,
                t.elapsed().as_secs_f64() * 1e3
            );
        }
    }

    // Verify exactness against a from-scratch decomposition.
    let fresh = peel(&CoreSpace::new(inc.graph())).kappa;
    assert_eq!(inc.core_numbers(), fresh.as_slice());
    println!("\nfinal κ verified against a from-scratch peel: exact ✓");
    println!(
        "deletions refresh in a handful of sweeps vs the cold run's {} — the payoff of \
         locality. (The same machinery now maintains k-truss and (3,4)-nucleus indices: \
         see Incremental<TrussKind> / Incremental<Nucleus34Kind>.)",
        cold.sweeps
    );
}
