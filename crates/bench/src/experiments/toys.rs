//! Figures 2–4: the paper's worked toy examples, traced step by step.

use hdsd_nucleus::toys::{
    fig2_core_toy, fig2_kappa_order, fig3_nucleus_toy, fig4_levels_toy, fig5_truss_toy,
};
use hdsd_nucleus::{
    and_opts, build_hierarchy, degree_levels, peel, snd_with_observer, AndOptions, CliqueSpace,
    CoreSpace, LocalConfig, Nucleus34Space, Order, TrussSpace,
};

use crate::Env;

/// Prints all toy traces.
pub fn run(_env: &Env) {
    fig2();
    fig3();
    fig4();
    fig5();
}

fn fig2() {
    println!("Figure 2 — Snd vs And on the 6-vertex core toy (a..f = 0..5)\n");
    let g = fig2_core_toy();
    let sp = CoreSpace::new(&g);
    println!("  τ0 (degrees)        : {:?}", sp.initial_degrees());
    snd_with_observer(&sp, &LocalConfig::default(), &mut |ev| {
        println!("  Snd τ{}              : {:?}  ({} updates)", ev.iteration, ev.tau, ev.updates);
    });
    let exact = peel(&sp);
    println!("  exact κ (peeling)   : {:?}", exact.kappa);

    for (label, order) in [
        ("And alphabetical", Order::Natural),
        ("And {f,e,a,b,c,d}", Order::Custom(fig2_kappa_order())),
    ] {
        let mut sweeps = Vec::new();
        let mut record = |ev: hdsd_nucleus::IterationEvent<'_>| {
            sweeps.push((ev.tau.to_vec(), ev.updates));
        };
        let opts = AndOptions { observer: Some(&mut record), ..AndOptions::default() };
        let r = and_opts(&sp, &LocalConfig::default(), &order, opts)
            .expect("an unarmed token never cancels");
        println!(
            "  {label}: converged in {} updating sweep(s); final {:?}",
            r.iterations_to_converge(),
            r.tau
        );
    }
    println!();
}

fn fig3() {
    println!("Figure 3 — k-truss vs (3,4) nuclei on the 8-vertex toy (a..h = 0..7)\n");
    let g = fig3_nucleus_toy();
    let truss = TrussSpace::precomputed(&g);
    let kt = peel(&truss).kappa;
    println!("  truss numbers per edge:");
    for e in 0..g.num_edges() as u32 {
        let (u, v) = g.edge_endpoints(e);
        print!("  ({u},{v})={}", kt[e as usize]);
    }
    println!("\n");
    let nuc = Nucleus34Space::precomputed(&g);
    let kn = peel(&nuc).kappa;
    let h = build_hierarchy(&nuc, &kn);
    let ones = h.nuclei_at(1);
    println!("  1-(3,4) nuclei found: {}", ones.len());
    for id in ones {
        println!("    vertices {:?}", h.member_vertices(id, &nuc));
    }
    println!("  (paper: two separate nuclei {{a,b,c,d}} and {{c,d,e,f,h}} — not merged,");
    println!("   since no 4-clique carries S-connectivity across the shared edge (c,d))\n");
}

fn fig4() {
    println!("Figure 4 — degree levels on the 7-vertex toy (a..g = 0..6)\n");
    let g = fig4_levels_toy();
    let sp = CoreSpace::new(&g);
    let lv = degree_levels(&sp);
    for (name, v) in ["a", "b", "c", "d", "e", "f", "g"].iter().zip(0..) {
        println!("  level({name}) = {}", lv.level[v as usize]);
    }
    println!(
        "  level sizes: {:?} (paper: L0={{a}}, L1={{b}}, L2={{c,g}}, L3={{d,e,f}})\n",
        lv.level_sizes()
    );
}

fn fig5() {
    println!("Figure 5 companion — first τ update of edge (a,b) in the truss toy\n");
    let g = fig5_truss_toy();
    let sp = TrussSpace::precomputed(&g);
    let ab = g.edge_id(0, 1).unwrap() as usize;
    println!("  d3(ab) = {} triangles", sp.degree(ab));
    let r = hdsd_nucleus::snd(&sp, &LocalConfig::default().max_iterations(1));
    println!("  τ1(ab) = {} (paper walkthrough: H({{4,3,3,2}}) = 3)\n", r.tau[ab]);
}
