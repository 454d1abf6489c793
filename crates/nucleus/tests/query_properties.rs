//! Property tests for query-driven local estimation (the Theorem-1
//! guarantees the serving engine leans on): on random Holme–Kim graphs,
//! for every clique space, `local_estimate` must satisfy
//! `κ(q) ≤ estimate ≤ d_s(q)` and reproduce the global Snd trajectory
//! `τ_t(q)` bit-for-bit. Every field of every answer must also equal the
//! map-based [`reference`] estimator's, whatever the space, options,
//! access path (resident rows or container walk) or thread.

mod common;

use common::BruteSpace;
use hdsd_graph::CsrGraph;
use hdsd_nucleus::{
    local_estimate, local_estimate_opts, peel, snd_with_observer, CachedSpace, CliqueSpace,
    CoreSpace, LocalConfig, Nucleus34Space, QueryEstimate, QueryOptions, TrussSpace,
};
use proptest::prelude::*;

/// The estimator as it was before its ball moved into per-thread arrays:
/// three `HashMap`s per query, containers through the callback walk, and
/// the lower bound by an in-place descent to the fixpoint. Kept verbatim
/// as the oracle of the library's [`local_estimate_opts`].
mod reference {
    use hdsd_hindex::HBuffer;
    use hdsd_nucleus::{CliqueSpace, QueryEstimate, QueryOptions};
    use std::collections::HashMap;

    /// [`local_estimate`] with an exploration budget and optional lower-bound
    /// certificate — the serving engine's query primitive.
    pub fn local_estimate_opts<S: CliqueSpace>(
        space: &S,
        q: usize,
        opts: &QueryOptions,
    ) -> QueryEstimate {
        assert!(q < space.num_cliques(), "query clique out of range");
        let t = opts.iterations;
        let cap = opts.budget.unwrap_or(usize::MAX).max(1);
        // `Instant::now` is only consulted when a deadline was set, so the
        // unconstrained path pays nothing.
        let past_deadline = || opts.deadline.is_some_and(|d| std::time::Instant::now() >= d);
        // BFS distances up to t in the r-clique adjacency, stopping at the
        // exploration budget or the deadline.
        let mut dist: HashMap<usize, u32> = HashMap::new();
        dist.insert(q, 0);
        let mut frontier = vec![q];
        let mut truncated = false;
        'bfs: for d in 1..=t as u32 {
            let mut next = Vec::new();
            for &i in &frontier {
                if dist.len() >= cap || past_deadline() {
                    truncated = true;
                    break 'bfs;
                }
                let r = space.try_for_each_container(i, |others| {
                    for &o in others {
                        if !dist.contains_key(&o) {
                            if dist.len() >= cap {
                                return std::ops::ControlFlow::Break(());
                            }
                            dist.insert(o, d);
                            next.push(o);
                        }
                    }
                    std::ops::ControlFlow::Continue(())
                });
                if r.is_break() {
                    truncated = true;
                    break 'bfs;
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }

        // τ values for the explored ball; everything outside keeps τ0 = d_s,
        // which is only ever *read* (never recomputed), preserving equality
        // with the global Snd trajectory.
        let mut tau: HashMap<usize, u32> = HashMap::with_capacity(dist.len());
        for &i in dist.keys() {
            tau.insert(i, space.degree(i));
        }

        let mut buf = HBuffer::new();
        let mut curr: Vec<(usize, u32)> = Vec::new();
        for j in 1..=t as u32 {
            // Recompute τ_j for r-cliques within distance t - j: their next
            // value needs neighbors' τ_{j-1}, available within distance
            // t - j + 1.
            let radius = (t as u32) - j;
            curr.clear();
            for (&i, &d) in &dist {
                if d <= radius {
                    let old = tau[&i];
                    // Reads may touch cliques outside the explored ball only
                    // when d == radius boundary neighbors were explored at
                    // d + 1 <= t; cliques never explored read their d_s.
                    let read = |o: usize| -> u32 {
                        tau.get(&o).copied().unwrap_or_else(|| space.degree(o))
                    };
                    let new = update_one_map(space, i, old, &read, &mut buf);
                    curr.push((i, new));
                }
            }
            for &(i, v) in &curr {
                tau.insert(i, v);
            }
        }

        // The certificate is strictly optional work; past the deadline it is
        // skipped (0 is always a valid lower bound) and the cut is reported.
        // A deadline tripping *inside* the descent also yields 0: intermediate
        // descent values are not yet certificates, only the fixpoint is.
        let lower = if opts.lower_bound && !past_deadline() {
            match ball_lower_bound(space, q, &dist, opts.deadline) {
                Some(l) => l,
                None => {
                    truncated = true;
                    0
                }
            }
        } else {
            if opts.lower_bound {
                truncated = true;
            }
            0
        };
        QueryEstimate {
            estimate: tau[&q],
            lower,
            degree: space.degree(q),
            explored: dist.len(),
            iterations: t,
            truncated,
        }
    }

    /// The peel value of `q` in the sub-hypergraph induced by the explored
    /// ball: only containers whose members all lie inside the ball count.
    /// Because that restricted clique set satisfies its own support
    /// thresholds, `κ(q)` in the full graph is at least this value — a local,
    /// certificate-style lower bound in the spirit of Andersen's local dense
    /// subgraph algorithms.
    ///
    /// Returns `None` when the deadline trips mid-descent: the intermediate
    /// values are not valid lower bounds (the certificate argument only holds
    /// at the fixpoint), so the caller must fall back to 0 and report the cut.
    fn ball_lower_bound<S: CliqueSpace>(
        space: &S,
        q: usize,
        dist: &HashMap<usize, u32>,
        deadline: Option<std::time::Instant>,
    ) -> Option<u32> {
        // Materialize the induced sub-hypergraph once — dense ids, flat CSR
        // of the inside-ball containers — so the fixpoint descent below is a
        // contiguous array scan instead of re-running container walks and
        // hash lookups every iteration (this is the serving engine's
        // per-request path).
        let members: Vec<usize> = dist.keys().copied().collect();
        let index: HashMap<usize, u32> =
            members.iter().enumerate().map(|(d, &i)| (i, d as u32)).collect();
        let past_deadline = || deadline.is_some_and(|d| std::time::Instant::now() >= d);
        let mut offsets = vec![0usize; members.len() + 1];
        let mut flat: Vec<u32> = Vec::new();
        let mut group = 0usize;
        for (d, &i) in members.iter().enumerate() {
            if d % 1024 == 0 && past_deadline() {
                return None;
            }
            space.for_each_container(i, |others| {
                if others.iter().all(|o| index.contains_key(o)) {
                    group = others.len();
                    for &o in others {
                        flat.push(index[&o]);
                    }
                }
            });
            offsets[d + 1] = flat.len();
        }
        if group == 0 {
            return Some(0); // no container lies fully inside the ball
        }

        // In-place descent to the fixpoint (values only decrease; the h-index
        // over the restricted container set converges to that sub-hypergraph's
        // peel value).
        let mut tau: Vec<u32> =
            (0..members.len()).map(|d| ((offsets[d + 1] - offsets[d]) / group) as u32).collect();
        let mut buf = HBuffer::new();
        loop {
            // One check per descent iteration: each pass is a bounded array
            // scan, so the overshoot past the deadline is at most one pass.
            if past_deadline() {
                return None;
            }
            let mut changed = false;
            for d in 0..members.len() {
                let old = tau[d];
                if old == 0 {
                    continue;
                }
                let mut session = buf.session((offsets[d + 1] - offsets[d]) / group);
                for chunk in flat[offsets[d]..offsets[d + 1]].chunks_exact(group) {
                    let mut m = u32::MAX;
                    for &o in chunk {
                        m = m.min(tau[o as usize]);
                    }
                    session.push(m);
                }
                let new = session.finish().min(old);
                if new != old {
                    tau[d] = new;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        Some(tau[index[&q] as usize])
    }

    /// `update_one` against a map-backed τ lookup.
    fn update_one_map<S: CliqueSpace>(
        space: &S,
        i: usize,
        old: u32,
        read: &impl Fn(usize) -> u32,
        buf: &mut HBuffer,
    ) -> u32 {
        if old == 0 {
            return 0;
        }
        let deg = space.degree(i) as usize;
        let mut session = buf.session(deg);
        space.for_each_container(i, |others| {
            let mut m = u32::MAX;
            for &o in others {
                m = m.min(read(o));
            }
            session.push(m);
        });
        session.finish()
    }
}

/// The fields an answer is compared on.
fn fields(e: &QueryEstimate) -> (u32, u32, u32, usize, usize, bool) {
    (e.estimate, e.lower, e.degree, e.explored, e.iterations, e.truncated)
}

/// `local_estimate_opts` on `space` answers exactly like the reference
/// (`q` is taken modulo the space's size; an empty space is skipped).
fn check_reference<S: CliqueSpace>(space: &S, q: usize, opts: &QueryOptions) {
    let n = space.num_cliques();
    if n == 0 {
        return;
    }
    let q = q % n;
    assert_eq!(
        fields(&local_estimate_opts(space, q, opts)),
        fields(&reference::local_estimate_opts(space, q, opts)),
        "{} q={q} {opts:?}",
        space.name()
    );
}

/// t ∈ 0..=4 × budget ∈ {None, 1, 4, 16, 64} × lower bound off / on.
fn option_grid() -> impl Iterator<Item = QueryOptions> {
    let budgets = [None, Some(1), Some(4), Some(16), Some(64)];
    (0..=4usize).flat_map(move |iterations| {
        budgets.into_iter().flat_map(move |budget| {
            [false, true].map(|lower_bound| QueryOptions {
                iterations,
                budget,
                lower_bound,
                deadline: None,
            })
        })
    })
}

/// A space that panics inside its container walk on one chosen clique.
struct PanicsAt<'a, S> {
    inner: &'a S,
    at: usize,
}

impl<S: CliqueSpace> CliqueSpace for PanicsAt<'_, S> {
    fn num_cliques(&self) -> usize {
        self.inner.num_cliques()
    }

    fn initial_degrees(&self) -> Vec<u32> {
        self.inner.initial_degrees()
    }

    fn degree(&self, i: usize) -> u32 {
        self.inner.degree(i)
    }

    fn try_for_each_container<F: FnMut(&[usize]) -> std::ops::ControlFlow<()>>(
        &self,
        i: usize,
        f: F,
    ) -> std::ops::ControlFlow<()> {
        assert_ne!(i, self.at, "container walk reached the chosen clique");
        self.inner.try_for_each_container(i, f)
    }

    fn r(&self) -> usize {
        self.inner.r()
    }

    fn s(&self) -> usize {
        self.inner.s()
    }

    fn vertices_of(&self, i: usize, out: &mut Vec<hdsd_graph::VertexId>) {
        self.inner.vertices_of(i, out)
    }
}

fn arb_holme_kim() -> impl Strategy<Value = hdsd_graph::CsrGraph> {
    (20u32..70, 2u32..5, 0u32..=100, 0u64..1_000_000)
        .prop_map(|(n, m, p, seed)| hdsd_datasets::holme_kim(n, m, p as f64 / 100.0, seed))
}

/// Exhaustive check of one space: every estimate is bracketed by
/// `[κ(q), d_s(q)]`, matches the global Snd `τ_t(q)` exactly, and the
/// optional lower bound never exceeds κ.
fn check_space<S: CliqueSpace>(space: &S, queries: &[usize], iterations: &[usize]) {
    if space.num_cliques() == 0 {
        return;
    }
    let exact = peel(space).kappa;
    // Record the exact global τ_t snapshots.
    let mut snapshots: Vec<Vec<u32>> = Vec::new();
    snd_with_observer(space, &LocalConfig::sequential(), &mut |ev| {
        snapshots.push(ev.tau.to_vec());
    });
    for &q in queries {
        let q = q % space.num_cliques();
        for &t in iterations {
            let est = local_estimate(space, q, t);
            assert!(
                est.estimate >= exact[q],
                "{}: estimate {} below κ {} at q={q}, t={t}",
                space.name(),
                est.estimate,
                exact[q]
            );
            assert!(
                est.estimate <= space.degree(q),
                "{}: estimate above d_s at q={q}, t={t}",
                space.name()
            );
            assert_eq!(est.degree, space.degree(q));
            // Bit-for-bit: τ_t(q) from the global synchronous run. After
            // global convergence the trajectory is constant.
            let global = match snapshots.get(t.saturating_sub(1)) {
                Some(snap) if t >= 1 => snap[q],
                _ if t == 0 => space.degree(q),
                _ => *snapshots.last().map(|s| &s[q]).unwrap_or(&space.degree(q)),
            };
            assert_eq!(
                est.estimate,
                global,
                "{}: local estimate diverges from global Snd at q={q}, t={t}",
                space.name()
            );
            // The certificate interval brackets κ.
            let opts =
                QueryOptions { iterations: t, budget: None, lower_bound: true, deadline: None };
            let bounded = local_estimate_opts(space, q, &opts);
            assert_eq!(bounded.estimate, est.estimate, "options path must agree");
            assert!(
                bounded.lower <= exact[q],
                "{}: lower bound {} above κ {} at q={q}",
                space.name(),
                bounded.lower,
                exact[q]
            );
        }
    }
}

/// Core, truss and (3,4), each as resident rows and as a container walk,
/// against the reference. Per query the largest space (truss) alternates
/// with smaller ones on this thread, so a slot left set by one query
/// would be read by the next.
fn check_reference_on_holme_kim(g: &CsrGraph) {
    let core_walk = CoreSpace::new(g);
    let core_rows = CachedSpace::build(&core_walk);
    let truss_walk = TrussSpace::on_the_fly(g);
    let truss_rows = CachedSpace::build(&truss_walk);
    let n34_walk = Nucleus34Space::on_the_fly(g);
    let n34_rows = CachedSpace::build(&n34_walk);
    for opts in option_grid() {
        for q in [0usize, 7, 13, 29, 57] {
            check_reference(&truss_rows, q, &opts);
            check_reference(&core_walk, q, &opts);
            check_reference(&truss_walk, q, &opts);
            check_reference(&n34_rows, q, &opts);
            check_reference(&core_rows, q, &opts);
            check_reference(&n34_walk, q, &opts);
        }
    }
}

/// The (1,3) and (2,4) spaces by definition (walk) and from the generic
/// builder (rows), every query, against the reference.
fn check_reference_on_brute_spaces(g: &CsrGraph) {
    for (r, s) in [(1, 3), (2, 4)] {
        let walk = BruteSpace::new(g, r, s);
        let rows = CachedSpace::from_graph(g, r, s);
        assert_eq!(walk.num_cliques(), rows.num_cliques());
        for opts in option_grid() {
            for q in 0..walk.num_cliques() {
                check_reference(&walk, q, &opts);
                check_reference(&rows, q, &opts);
            }
        }
    }
}

#[test]
fn a_query_after_an_unwind_matches_the_reference() {
    let g = hdsd_datasets::holme_kim(60, 3, 0.5, 5);
    let rows = CachedSpace::build(&CoreSpace::new(&g));
    let opts = QueryOptions { iterations: 3, budget: Some(16), lower_bound: true, deadline: None };
    let mut first = None;
    rows.for_each_container(0, |others| {
        first.get_or_insert(others[0]);
    });
    // The walk panics at vertex 0's first neighbour, on the second BFS
    // level: the ball's slots are set when the query unwinds.
    let panicky = PanicsAt { inner: &rows, at: first.expect("vertex 0 has a neighbour") };
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        local_estimate_opts(&panicky, 0, &QueryOptions { budget: None, ..opts })
    }));
    assert!(unwound.is_err(), "the chosen clique was never walked");
    for q in 0..rows.num_cliques() {
        check_reference(&rows, q, &opts);
        check_reference(&rows, q, &QueryOptions { budget: None, ..opts });
    }
}

#[test]
fn four_threads_estimate_alike() {
    let g = hdsd_datasets::holme_kim(300, 5, 0.5, 17);
    let truss = CachedSpace::build(&TrussSpace::precomputed(&g));
    let ids: Vec<usize> = (0..truss.num_cliques()).step_by(5).collect();
    let opts = QueryOptions { iterations: 3, budget: Some(64), lower_bound: true, deadline: None };
    let run =
        || ids.iter().map(|&q| fields(&local_estimate_opts(&truss, q, &opts))).collect::<Vec<_>>();
    let answers: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4).map(|_| s.spawn(run)).collect();
        handles.into_iter().map(|h| h.join().expect("estimating thread panicked")).collect()
    });
    let want: Vec<_> =
        ids.iter().map(|&q| fields(&reference::local_estimate_opts(&truss, q, &opts))).collect();
    for got in &answers {
        assert_eq!(got, &want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn estimate_matches_the_reference_on_every_space(g in arb_holme_kim()) {
        check_reference_on_holme_kim(&g);
    }


    #[test]
    fn estimate_brackets_kappa_and_matches_snd_on_all_spaces(g in arb_holme_kim()) {
        let queries = [0usize, 7, 13, 29, 57];
        let iterations = [0usize, 1, 2, 4];
        check_space(&CoreSpace::new(&g), &queries, &iterations);
        check_space(&TrussSpace::precomputed(&g), &queries, &iterations);
        check_space(&Nucleus34Space::precomputed(&g), &queries, &iterations);
    }

    #[test]
    fn budgeted_estimates_stay_sound(g in arb_holme_kim(), budget in 1usize..64) {
        let sp = TrussSpace::precomputed(&g);
        if sp.num_cliques() > 0 {
            let exact = peel(&sp).kappa;
            for q in [0usize, 11, 47] {
                let q = q % sp.num_cliques();
                let opts = QueryOptions { iterations: 3, budget: Some(budget), lower_bound: true, deadline: None };
                let est = local_estimate_opts(&sp, q, &opts);
                prop_assert!(est.lower <= exact[q]);
                prop_assert!(est.estimate >= exact[q]);
                prop_assert!(est.estimate <= sp.degree(q));
            }
        }
    }
}

proptest! {
    // Every query of every space, so fewer graphs.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn estimate_matches_the_reference_on_brute_spaces(
        m in 2u32..5,
        p in 0u32..=100,
        seed in 0u64..1_000_000,
    ) {
        check_reference_on_brute_spaces(&hdsd_datasets::holme_kim(16, m, p as f64 / 100.0, seed));
    }
}
