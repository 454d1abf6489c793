//! Incremental core maintenance: keep κ₂ exact while edges stream in and
//! out, without rebuilding the graph or its container rows — each batch is
//! spliced into the resident rows and κ is refreshed by one peel of them
//! (the paper's Theorem 4: one pass in κ order converges; see
//! `hdsd::nucleus::refresh_kappa`).
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
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("cold decomposition: {} sweeps in {cold_ms:.1} ms", cold.sweeps);

    let mut inc = IncrementalCore::new(g);

    // Stream 10 batches of mixed insertions and deletions.
    let mut state = 0xD1Eu64;
    let mut rand = move |m: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    println!("\n{:>6} {:>8} {:>10} {:>12} {:>12}", "batch", "op", "edges", "touched", "time-ms");
    let mut batch_ms = Vec::new();
    for batch in 0..10 {
        let (op, edges): (_, Vec<(u32, u32)>) = if batch % 2 == 0 {
            let n = inc.graph().num_vertices() as u64;
            ("insert", (0..4).map(|_| (rand(n) as u32, rand(n) as u32)).collect())
        } else {
            let m = inc.graph().num_edges() as u64;
            ("delete", (0..20).map(|_| inc.graph().edges()[rand(m) as usize]).collect())
        };
        let t = Instant::now();
        // `touched`: vertices whose neighbor row the batch changed.
        let touched =
            if op == "insert" { inc.insert_edges(&edges) } else { inc.remove_edges(&edges) };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        batch_ms.push(ms);
        println!("{batch:>6} {op:>8} {:>10} {touched:>12} {ms:>12.1}", edges.len());
    }

    // Verify exactness against a from-scratch decomposition.
    let fresh = peel(&CoreSpace::new(inc.graph())).kappa;
    assert_eq!(inc.core_numbers(), fresh.as_slice());
    println!("\nfinal κ verified against a from-scratch peel: exact ✓");
    batch_ms.sort_by(f64::total_cmp);
    println!(
        "a batch refreshes in {:.1} ms (median) against the cold decomposition's {cold_ms:.1} ms \
         — splice the rows, peel them once. (The same machinery maintains k-truss and \
         (3,4)-nucleus indices: see Incremental<TrussKind> / Incremental<Nucleus34Kind>.)",
        batch_ms[batch_ms.len() / 2]
    );
}
