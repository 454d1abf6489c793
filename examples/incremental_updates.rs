//! Incremental maintenance: keep κ exact while edges stream in and out,
//! without rebuilding the graph or its container rows — each batch is
//! spliced into the resident rows and κ is refreshed by one peel of them
//! (the paper's Theorem 4: one pass in κ order converges). This is the
//! update step the serving engine runs: `hdsd::nucleus::GraphStep` applies
//! the batch to the graph once, `hdsd::nucleus::update_space` carries one
//! space across it.
//!
//! Run with: `cargo run --release --example incremental_updates`

use hdsd::nucleus::{update_space, CancelToken, GraphStep, SpaceSel};
use hdsd::prelude::*;
use std::time::Instant;

fn main() {
    let mut g = hdsd::datasets::thin_edges(&hdsd::datasets::holme_kim(20_000, 8, 0.5, 77), 0.7, 77);
    println!("initial graph: {} vertices, {} edges", g.num_vertices(), g.num_edges());

    // Cold-start cost for reference.
    let t0 = Instant::now();
    let cold = snd(&CoreSpace::new(&g), &LocalConfig::default());
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("cold decomposition: {} sweeps in {cold_ms:.1} ms", cold.sweeps);

    // The core space's resident rows; truss and (3,4) would also keep the
    // triangle list they are built over.
    let sel = SpaceSel::Core;
    let mut cached = sel.build_cached(&g, None);
    let mut kappa = peel(&cached).kappa;

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
            let n = g.num_vertices() as u64;
            ("insert", (0..4).map(|_| (rand(n) as u32, rand(n) as u32)).collect())
        } else {
            let m = g.num_edges() as u64;
            ("delete", (0..20).map(|_| g.edges()[rand(m) as usize]).collect())
        };
        let (ins, rm) = if op == "insert" { (&edges[..], &[][..]) } else { (&[][..], &edges[..]) };
        let t = Instant::now();
        let step = GraphStep::new(&g, None, ins, rm);
        if step.is_noop() {
            continue;
        }
        let up = update_space(sel, &cached, None, &step, &CancelToken::none())
            .expect("an unarmed token never cancels");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        batch_ms.push(ms);
        // `touched`: vertices whose neighbor row the batch changed.
        println!("{batch:>6} {op:>8} {:>10} {:>12} {ms:>12.1}", edges.len(), up.touched.len());
        (g, cached, kappa) = (step.new_graph, up.cached, up.kappa);
    }

    // Verify exactness against a from-scratch decomposition.
    let fresh = peel(&CoreSpace::new(&g)).kappa;
    assert_eq!(kappa, fresh);
    println!("\nfinal κ verified against a from-scratch peel: exact ✓");
    batch_ms.sort_by(f64::total_cmp);
    println!(
        "a batch refreshes in {:.1} ms (median) against the cold decomposition's {cold_ms:.1} ms \
         — splice the rows, peel them once. (The same update_space call maintains the k-truss \
         and (3,4)-nucleus spaces, and repairs a resident forest when one is passed.)",
        batch_ms[batch_ms.len() / 2]
    );
}
