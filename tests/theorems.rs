//! Property tests for the paper's theorems, run end-to-end across crates.
//!
//! * Theorem 1 — monotonicity (`τ_{t+1} ≤ τ_t`) and the lower bound
//!   (`τ_t ≥ κ`), for Snd and for parallel And (whose correctness under
//!   stale reads the paper rests on exactly this property).
//! * Theorem 2 — κ is non-decreasing across degree levels.
//! * Theorem 3 / Lemma 2 — r-cliques in level `L_i` converge within `i`
//!   iterations; the level count bounds Snd's iteration count.
//! * Theorem 4 — And in non-decreasing final-κ order converges in a single
//!   updating sweep; and so the serving engine's update step (splice, one
//!   peel, forest repair) equals a cold decomposition after every batch.

use hdsd::nucleus::{update_space, CancelToken, GraphStep, IterationEvent, SpaceSel};
use hdsd::prelude::*;
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = hdsd::graph::CsrGraph> {
    proptest::collection::vec((0u32..20, 0u32..20), 0..100)
        .prop_map(|edges| hdsd::graph::GraphBuilder::new().edges(edges).build())
}

/// Names the first run over `sp` — Snd, or parallel And at 2 and 4 threads
/// — whose per-sweep τ snapshots break Theorem 1: τ rose between two
/// sweeps, or dropped below κ.
fn theorem1_violation<S: CliqueSpace>(sp: &S) -> Option<String> {
    let exact = peel(sp).kappa;
    let mut snaps: Vec<Vec<u32>> = Vec::new();
    let mut runs = Vec::new();
    snd_with_observer(sp, &LocalConfig::default(), &mut |ev| snaps.push(ev.tau.to_vec()));
    runs.push(("snd".to_string(), std::mem::take(&mut snaps)));
    for threads in [2, 4] {
        // Chunks of 4, so that a 20-vertex graph really is shared out.
        let mut cfg = LocalConfig::with_threads(threads);
        cfg.parallel = cfg.parallel.chunk(4);
        let mut observe = |ev: IterationEvent<'_>| snaps.push(ev.tau.to_vec());
        let opts = AndOptions { observer: Some(&mut observe), ..AndOptions::default() };
        and_opts(sp, &cfg, &Order::Natural, opts).expect("an unarmed token never cancels");
        runs.push((format!("and, {threads} threads"), std::mem::take(&mut snaps)));
    }
    runs.into_iter().find_map(|(run, snaps)| {
        let monotone = snaps.windows(2).all(|w| w[1].iter().zip(&w[0]).all(|(a, b)| a <= b));
        let bounded = snaps.iter().all(|tau| tau.iter().zip(&exact).all(|(a, k)| a >= k));
        (!monotone || !bounded).then_some(run)
    })
}

/// Carries `sel` through two batches with the update step the serving
/// engine runs (`GraphStep` + `update_space`, forest passed in) — insert
/// `extra`, then delete half of what exists — asserting after each that
/// κ equals a cold peel and the repaired forest a cold `build_hierarchy`.
fn update_step_matches_cold(sel: SpaceSel, mut g: hdsd::graph::CsrGraph, extra: &[(u32, u32)]) {
    use hdsd::graph::TriangleList;
    let mut cached = sel.build_cached(&g, Some(&TriangleList::build(&g)));
    let mut forest = build_hierarchy(&cached, &peel(&cached).kappa);
    for insert in [true, false] {
        let (ins, rm) = if insert {
            (extra.to_vec(), Vec::new())
        } else {
            (Vec::new(), g.edges().iter().copied().step_by(2).collect())
        };
        let step = GraphStep::new(&g, &ins, &rm);
        if step.is_noop() {
            continue; // the engine keeps the old state
        }
        let up = update_space(&cached, Some(&forest), &step, &CancelToken::none())
            .expect("an unarmed token never cancels");
        (g, cached) = (step.new_graph, up.cached);
        let cold = sel.build_cached(&g, Some(&TriangleList::build(&g)));
        assert_eq!(up.kappa, peel(&cold).kappa, "{} κ, insert batch: {insert}", sel.name());
        forest = up.forest.expect("a resident forest is repaired").0;
        hdsd::nucleus::assert_forest_eq(&forest, &build_hierarchy(&cold, &up.kappa));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn theorem1_monotone_and_lower_bounded(g in arb_graph()) {
        let broken = theorem1_violation(&CoreSpace::new(&g));
        prop_assert!(broken.is_none(), "Theorem 1 violated by {broken:?}");
    }

    #[test]
    fn theorem1_for_truss(g in arb_graph()) {
        let broken = theorem1_violation(&TrussSpace::precomputed(&g));
        prop_assert!(broken.is_none(), "Theorem 1 violated by {broken:?}");
    }

    #[test]
    fn theorem2_levels_sort_kappa(g in arb_graph()) {
        let sp = CoreSpace::new(&g);
        let lv = degree_levels(&sp);
        let kappa = peel(&sp).kappa;
        for i in 0..kappa.len() {
            for j in 0..kappa.len() {
                if lv.level[i] < lv.level[j] {
                    prop_assert!(
                        kappa[i] <= kappa[j],
                        "level({i})={} < level({j})={} but κ({i})={} > κ({j})={}",
                        lv.level[i], lv.level[j], kappa[i], kappa[j]
                    );
                }
            }
        }
    }

    #[test]
    fn theorem3_level_i_converges_within_i_iterations(g in arb_graph()) {
        let sp = CoreSpace::new(&g);
        let lv = degree_levels(&sp);
        let exact = peel(&sp).kappa;
        let mut snapshots: Vec<Vec<u32>> = Vec::new();
        snd_with_observer(&sp, &LocalConfig::default(), &mut |ev| {
            snapshots.push(ev.tau.to_vec());
        });
        // After iteration t (1-based snapshots), all cliques in levels <= t
        // must equal κ. (Level-0 cliques already start at κ = τ0.)
        for (t, snap) in snapshots.iter().enumerate() {
            let iter = t + 1;
            for i in 0..exact.len() {
                if (lv.level[i] as usize) <= iter {
                    prop_assert_eq!(
                        snap[i], exact[i],
                        "level {} clique {} not converged by iteration {}",
                        lv.level[i], i, iter
                    );
                }
            }
        }
        // Lemma 2: total updating iterations bounded by the level count.
        let updating = snapshots.len().saturating_sub(1);
        prop_assert!(updating <= lv.num_levels.max(1));
    }

    #[test]
    fn theorem4_single_sweep_in_peel_order(g in arb_graph()) {
        for as_truss in [false, true] {
            let iters = if as_truss {
                let sp = TrussSpace::precomputed(&g);
                let p = peel(&sp);
                let r = and(&sp, &LocalConfig::default(), &Order::Custom(p.order.clone()));
                prop_assert_eq!(&r.tau, &p.kappa);
                r.iterations_to_converge()
            } else {
                let sp = CoreSpace::new(&g);
                let p = peel(&sp);
                let r = and(&sp, &LocalConfig::default(), &Order::Custom(p.order.clone()));
                prop_assert_eq!(&r.tau, &p.kappa);
                r.iterations_to_converge()
            };
            prop_assert!(iters <= 1, "Theorem 4: took {iters} updating sweeps");
        }
    }

    #[test]
    fn resume_from_any_upper_bound_reaches_kappa(
        g in arb_graph(),
        bumps in proptest::collection::vec(0u32..6, 20),
    ) {
        // The resume property of `AndOptions::tau_init`: And started from
        // any pointwise upper bound τ_init ≥ κ converges to exactly κ.
        fn resume<S: CliqueSpace>(sp: &S, order: &Order, tau_init: Vec<u32>) -> ConvergenceResult {
            let opts = AndOptions { tau_init: Some(tau_init), ..AndOptions::default() };
            and_opts(sp, &LocalConfig::default(), order, opts).expect("an unarmed token never cancels")
        }
        let sp = CoreSpace::new(&g);
        let exact = peel(&sp).kappa;
        let tau_init: Vec<u32> = exact
            .iter()
            .zip(bumps.iter().cycle())
            .map(|(&k, &b)| k + b)
            .collect();
        let r = resume(&sp, &Order::Natural, tau_init);
        prop_assert!(r.converged);
        prop_assert_eq!(&r.tau, &exact);

        // Also from the extreme upper bound (everything huge).
        let huge = vec![u32::MAX / 2; exact.len()];
        let r2 = resume(&sp, &Order::Reverse, huge);
        prop_assert_eq!(&r2.tau, &exact);

        // And for the truss space with a stale-style bound.
        let ts = TrussSpace::precomputed(&g);
        let exact_t = peel(&ts).kappa;
        let init_t: Vec<u32> = exact_t.iter().map(|&k| k + 2).collect();
        let r3 = resume(&ts, &Order::Natural, init_t);
        prop_assert_eq!(&r3.tau, &exact_t);
    }

    #[test]
    fn incremental_core_matches_rebuild(
        g in arb_graph(),
        extra in proptest::collection::vec((0u32..22, 0u32..22), 1..10),
    ) {
        // The serving engine's update step, over every maintained space.
        for sel in [SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34] {
            update_step_matches_cold(sel, g.clone(), &extra);
        }
    }

    #[test]
    fn kcore_definition_holds(g in arb_graph()) {
        // κ₂ correctness against the definition: the subgraph induced by
        // {v : κ(v) >= k} has minimum degree >= k for every realized k.
        let sp = CoreSpace::new(&g);
        let kappa = peel(&sp).kappa;
        let mut ks: Vec<u32> = kappa.clone();
        ks.sort_unstable();
        ks.dedup();
        for &k in ks.iter().filter(|&&k| k > 0) {
            let members: Vec<u32> = (0..g.num_vertices() as u32)
                .filter(|&v| kappa[v as usize] >= k)
                .collect();
            let sub = hdsd::graph::induced_subgraph(&g, &members);
            for v in sub.graph.vertices() {
                prop_assert!(
                    sub.graph.degree(v) >= k as usize,
                    "vertex {} has degree {} < k={k} in the {k}-core",
                    sub.original[v as usize],
                    sub.graph.degree(v)
                );
            }
        }
    }

    #[test]
    fn ktruss_definition_holds(g in arb_graph()) {
        // Edges with κ₃ >= k, as a subgraph, give every such edge >= k
        // triangles within the subgraph.
        let sp = TrussSpace::precomputed(&g);
        let kappa = peel(&sp).kappa;
        let mut ks: Vec<u32> = kappa.clone();
        ks.sort_unstable();
        ks.dedup();
        for &k in ks.iter().filter(|&&k| k > 0) {
            let edges: Vec<(u32, u32)> = (0..g.num_edges())
                .filter(|&e| kappa[e] >= k)
                .map(|e| g.edge_endpoints(e as u32))
                .collect();
            let sub = hdsd::graph::GraphBuilder::new().edges(edges.iter().copied()).build();
            let counts = hdsd::graph::count_triangles_per_edge(&sub);
            for (e, &c) in counts.iter().enumerate() {
                prop_assert!(
                    c >= k,
                    "edge {:?} has {} < k={k} triangles in the {k}-truss",
                    sub.edge_endpoints(e as u32),
                    c
                );
            }
        }
    }
}
