//! Query-driven local estimation of κ indices (the paper's §1/§6
//! query-driven scenario).
//!
//! The peeling algorithm cannot answer "what is the core number of this
//! vertex?" without decomposing the entire graph. The local formulation
//! can: `τ_t(q)` depends only on the t-hop neighborhood of `q` in the
//! r-clique adjacency (neighbors = r-cliques sharing an s-clique), so a
//! query is answered by pulling exactly that neighborhood and running `t`
//! synchronous updates on it. The estimate equals the global Snd value
//! `τ_t(q)` bit-for-bit — Theorem 1 then gives the guarantee
//! `κ(q) ≤ estimate ≤ d_s(q)`, with the upper bound shrinking per
//! iteration.
//!
//! A query costs its ball and hashes nothing:
//!
//! * **Per-thread arrays indexed by clique id.** Each thread keeps one
//!   scratch: a `u32` slot per r-clique id of the largest space it has
//!   estimated (the clique's index in the ball, or empty), and the ball's
//!   members, BFS distances and τ values as vectors in discovery order. A
//!   query first clears the slots its predecessor on the thread set, so
//!   a predecessor that unwound leaves nothing stale.
//! * **Rows read in place.** A space with resident rows
//!   ([`CliqueSpace::as_flat`], every engine space) is read as packed
//!   `&[u32]` rows; any other space's container walk is packed into one
//!   reused row buffer, so one kernel serves both.
//! * **Rounds stop when stationary.** Round `j` recomputes the members
//!   within `t − j` of `q` (a prefix of the discovery order). Once a round
//!   changes no τ, every later round reads the same inputs and returns
//!   the same values, so the loop stops with `τ_t(q)` already in hand.
//!   A deadline is checked once per round; on a trip the current
//!   `τ_j(q) ≥ κ(q)` is returned, marked truncated.
//! * **Lower bound by peeling the ball.** The ball's inside containers
//!   (every member in the ball) become a [`FlatContainers`] in ball
//!   indices, and the exact bucket queue ([`PeelEngine`]) gives κ of `q`
//!   in that sub-hypergraph.

use std::cell::RefCell;
use std::time::Instant;

use hdsd_hindex::HBuffer;

use crate::cancel::CancelToken;
use crate::peel::{PeelEngine, PEEL_CANCEL_CHUNK};
use crate::space::{others_per_container, CliqueSpace, FlatContainers};

/// Options for a budgeted local estimation.
#[derive(Clone, Copy, Debug)]
pub struct QueryOptions {
    /// Iterations of the local update (`t`). More iterations tighten the
    /// upper bound toward κ (Theorem 1). Any value is accepted: rounds stop
    /// once τ is stationary in the explored ball.
    pub iterations: usize,
    /// Maximum r-cliques to pull into the explored ball; `None` explores
    /// the full `t`-hop neighborhood. A truncated ball keeps the estimate
    /// a valid upper bound (outside reads fall back to `d_s ≥ κ`) but
    /// breaks bit-equality with the global Snd trajectory.
    pub budget: Option<usize>,
    /// Also compute a κ *lower* bound: the peel value at `q` of the
    /// sub-hypergraph induced by the explored ball (containers whose
    /// members all lie inside). That restricted universe satisfies its own
    /// support thresholds, so its peel value at `q` certifies
    /// `κ(q) ≥ lower` — together with the estimate this brackets
    /// `lower ≤ κ(q) ≤ estimate`.
    pub lower_bound: bool,
    /// Wall-clock deadline, checked at the same points as `budget` and once
    /// per round. Exploration stops once the deadline passes, the rounds
    /// stop at the current `τ_j(q)`, and the lower-bound certificate is
    /// skipped (left at 0, which is always valid); the result is marked
    /// `truncated`. The estimate stays a correct upper bound exactly as
    /// under a budget cut — unexplored reads fall back to `d_s ≥ κ`.
    pub deadline: Option<Instant>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions { iterations: 3, budget: None, lower_bound: false, deadline: None }
    }
}

/// Result of one local estimation.
#[derive(Clone, Debug)]
pub struct QueryEstimate {
    /// Estimated κ: a certified upper bound (equals the global `τ_t` at
    /// the query when the ball was not truncated).
    pub estimate: u32,
    /// Certified lower bound on κ (0 unless [`QueryOptions::lower_bound`]).
    pub lower: u32,
    /// `d_s(q)`: the iteration-0 upper bound, for reference.
    pub degree: u32,
    /// r-cliques touched (size of the explored neighborhood).
    pub explored: usize,
    /// Iterations requested (`t`); rounds past a stationary τ are skipped,
    /// which leaves the estimate unchanged.
    pub iterations: usize,
    /// Whether the exploration budget or the deadline cut the work short.
    pub truncated: bool,
}

/// Estimates κ of r-clique `q` with `t` iterations of the local update,
/// touching only the `t`-hop neighborhood of `q`. The estimate equals the
/// global Snd `τ_t(q)` bit-for-bit.
pub fn local_estimate<S: CliqueSpace>(space: &S, q: usize, t: usize) -> QueryEstimate {
    local_estimate_opts(space, q, &QueryOptions { iterations: t, ..QueryOptions::default() })
}

/// [`local_estimate`] with an exploration budget and optional lower-bound
/// certificate — the serving engine's query primitive.
pub fn local_estimate_opts<S: CliqueSpace>(
    space: &S,
    q: usize,
    opts: &QueryOptions,
) -> QueryEstimate {
    assert!(q < space.num_cliques(), "query clique out of range");
    BALL.with(|ball| ball.borrow_mut().estimate(space, q, opts))
}

/// Slot of an r-clique outside the ball.
const OUTSIDE: u32 = u32::MAX;

thread_local! {
    static BALL: RefCell<Ball> = RefCell::new(Ball::default());
}

/// One thread's ball state, kept across its queries.
#[derive(Default)]
struct Ball {
    /// Ball index per r-clique id, [`OUTSIDE`] when not in the ball.
    /// Between queries only the last ball's members are set.
    slot: Vec<u32>,
    /// Members (r-clique ids) in discovery order: `q` first, distances
    /// non-decreasing.
    members: Vec<u32>,
    /// BFS distance of each member from `q`.
    dist: Vec<u32>,
    /// τ of each member.
    tau: Vec<u32>,
    /// One round's new τ for the members it recomputes.
    next: Vec<u32>,
    /// A row packed from a container walk.
    row: Vec<u32>,
    hbuf: HBuffer,
    peel: PeelEngine,
}

impl Ball {
    fn estimate<S: CliqueSpace>(
        &mut self,
        space: &S,
        q: usize,
        opts: &QueryOptions,
    ) -> QueryEstimate {
        let Ball { slot, members, dist, tau, next, row, hbuf, peel } = self;
        let t = opts.iterations;
        let cap = opts.budget.unwrap_or(usize::MAX).max(1);
        let group = others_per_container(space);
        // `Instant::now` is only consulted when a deadline was set, so the
        // unconstrained path pays nothing.
        let past_deadline = || opts.deadline.is_some_and(|d| Instant::now() >= d);
        // The previous query's slots, also when it unwound.
        for &m in members.iter() {
            slot[m as usize] = OUTSIDE;
        }
        if slot.len() < space.num_cliques() {
            slot.resize(space.num_cliques(), OUTSIDE);
        }
        members.clear();
        dist.clear();

        // BFS distances up to t in the r-clique adjacency, stopping at the
        // exploration budget or the deadline. Level d - 1 is the range
        // `level` of the discovery order.
        slot[q] = 0;
        members.push(q as u32);
        dist.push(0);
        let mut truncated = false;
        let mut level = 0..1;
        'bfs: for d in 1..=t {
            for k in level.clone() {
                if members.len() >= cap || past_deadline() {
                    truncated = true;
                    break 'bfs;
                }
                for &o in row_of(space, members[k] as usize, row) {
                    if slot[o as usize] == OUTSIDE {
                        if members.len() >= cap {
                            truncated = true;
                            break 'bfs;
                        }
                        slot[o as usize] = members.len() as u32;
                        members.push(o);
                        dist.push(d as u32);
                    }
                }
            }
            level = level.end..members.len();
            if level.is_empty() {
                break;
            }
        }

        // τ for the ball; everything outside keeps τ0 = d_s, which is only
        // ever *read*, preserving equality with the global Snd trajectory.
        tau.clear();
        tau.extend(members.iter().map(|&m| space.degree(m as usize)));
        for j in 1..=t {
            if past_deadline() {
                truncated = true;
                break;
            }
            // τ_j for the members within t - j of q: their inputs, the
            // τ_{j-1} of members within t - j + 1, are all current.
            let radius = t - j;
            let inner = dist.partition_point(|&d| d as usize <= radius);
            next.clear();
            for k in 0..inner {
                let new = match tau[k] {
                    0 => 0,
                    _ => {
                        let read = |o: u32| match slot[o as usize] {
                            OUTSIDE => space.degree(o as usize),
                            s => tau[s as usize],
                        };
                        hbuf.fused_rho_h(row_of(space, members[k] as usize, row), group, read)
                    }
                };
                next.push(new);
            }
            if tau[..inner] == next[..] {
                break; // stationary: every later round returns these values
            }
            tau[..inner].copy_from_slice(&next[..]);
        }

        // The certificate is strictly optional work: past the deadline it
        // is skipped or abandoned (0 is always a valid lower bound) and the
        // cut is reported.
        let mut lower = 0;
        if opts.lower_bound {
            match ball_kappa(space, members, slot, row, group, peel, opts.deadline) {
                Some(l) => lower = l,
                None => truncated = true,
            }
        }
        QueryEstimate {
            estimate: tau[0],
            lower,
            degree: space.degree(q),
            explored: members.len(),
            iterations: t,
            truncated,
        }
    }
}

/// The containers of r-clique `i`, `group` other-member ids each: the
/// space's resident row in place, or its container walk packed into `buf`.
fn row_of<'a, S: CliqueSpace>(space: &'a S, i: usize, buf: &'a mut Vec<u32>) -> &'a [u32] {
    if let Some(flat) = space.as_flat() {
        return flat.containers(i);
    }
    buf.clear();
    space.for_each_container(i, |others| buf.extend(others.iter().map(|&o| o as u32)));
    buf
}

/// The peel value of `q` (ball index 0) in the sub-hypergraph induced by
/// the ball: only containers whose members all lie inside count. Because
/// that restricted clique set satisfies its own support thresholds,
/// `κ(q)` in the full graph is at least this value — a local,
/// certificate-style lower bound in the spirit of Andersen's local dense
/// subgraph algorithms.
///
/// Returns `None` when the deadline passes first: only the exact peel
/// value is a certificate, so the caller falls back to 0 and reports the
/// cut.
fn ball_kappa<S: CliqueSpace>(
    space: &S,
    members: &[u32],
    slot: &[u32],
    row: &mut Vec<u32>,
    group: usize,
    peel: &mut PeelEngine,
    deadline: Option<Instant>,
) -> Option<u32> {
    let cancel = CancelToken::with_deadline(deadline);
    let mut offsets = Vec::with_capacity(members.len() + 1);
    offsets.push(0);
    let mut inside = Vec::new();
    for (k, &m) in members.iter().enumerate() {
        if k % PEEL_CANCEL_CHUNK == 0 && cancel.is_cancelled() {
            return None;
        }
        for c in row_of(space, m as usize, row).chunks_exact(group) {
            if c.iter().all(|&o| slot[o as usize] != OUTSIDE) {
                inside.extend(c.iter().map(|&o| slot[o as usize]));
            }
        }
        offsets.push(inside.len() / group);
    }
    let ball = FlatContainers::from_rows(group, offsets, inside);
    peel.peel_under(&ball, &cancel).ok().map(|p| p.kappa[0])
}

/// Estimates core numbers (κ₂) for a set of query vertices.
pub fn estimate_core_numbers(
    graph: &hdsd_graph::CsrGraph,
    queries: &[hdsd_graph::VertexId],
    iterations: usize,
) -> Vec<QueryEstimate> {
    let space = crate::space::CoreSpace::new(graph);
    queries.iter().map(|&v| local_estimate(&space, v as usize, iterations)).collect()
}

/// Estimates truss numbers (κ₃) for a set of query edges.
pub fn estimate_truss_numbers(
    graph: &hdsd_graph::CsrGraph,
    query_edges: &[hdsd_graph::EdgeId],
    iterations: usize,
) -> Vec<QueryEstimate> {
    let space = crate::space::TrussSpace::on_the_fly(graph);
    query_edges.iter().map(|&e| local_estimate(&space, e as usize, iterations)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::LocalConfig;
    use crate::peel::peel;
    use crate::snd::snd_with_observer;
    use crate::space::{CoreSpace, TrussSpace};

    #[test]
    fn estimate_matches_global_snd_trajectory() {
        let g = hdsd_datasets::holme_kim(200, 4, 0.5, 7);
        let sp = CoreSpace::new(&g);
        // Record the exact global τ_t values.
        let mut snapshots: Vec<Vec<u32>> = Vec::new();
        snd_with_observer(&sp, &LocalConfig::sequential(), &mut |ev| {
            snapshots.push(ev.tau.to_vec());
        });
        for &q in &[0usize, 17, 55, 123, 199] {
            for t in 1..=3usize {
                let est = local_estimate(&sp, q, t);
                assert_eq!(
                    est.estimate,
                    snapshots[t - 1][q],
                    "query {q} at t={t} disagrees with global Snd"
                );
            }
        }
    }

    #[test]
    fn estimates_bound_kappa_from_above_and_shrink() {
        let g = hdsd_datasets::erdos_renyi_gnm(150, 600, 2);
        let sp = CoreSpace::new(&g);
        let exact = peel(&sp).kappa;
        for q in [3usize, 42, 99] {
            let mut prev = u32::MAX;
            for t in 0..5 {
                let est = local_estimate(&sp, q, t);
                assert!(est.estimate >= exact[q], "estimate below κ");
                assert!(est.estimate <= prev, "estimate not monotone");
                prev = est.estimate;
            }
        }
    }

    #[test]
    fn zero_iterations_returns_degree() {
        let g = hdsd_datasets::erdos_renyi_gnm(50, 120, 4);
        let sp = CoreSpace::new(&g);
        let est = local_estimate(&sp, 7, 0);
        assert_eq!(est.estimate, sp.degree(7));
        assert_eq!(est.explored, 1);
    }

    #[test]
    fn explored_ball_grows_with_iterations() {
        let g = hdsd_datasets::holme_kim(300, 3, 0.4, 11);
        let sp = CoreSpace::new(&g);
        let e1 = local_estimate(&sp, 5, 1);
        let e3 = local_estimate(&sp, 5, 3);
        assert!(e3.explored >= e1.explored);
        assert!(e1.explored <= g.num_vertices());
    }

    #[test]
    fn budget_truncates_but_keeps_upper_bound() {
        let g = hdsd_datasets::holme_kim(300, 5, 0.5, 8);
        let sp = CoreSpace::new(&g);
        let exact = peel(&sp).kappa;
        let full = local_estimate(&sp, 7, 4);
        assert!(!full.truncated);
        for budget in [1usize, 4, 16, 64] {
            let est = local_estimate_opts(
                &sp,
                7,
                &QueryOptions {
                    iterations: 4,
                    budget: Some(budget),
                    lower_bound: true,
                    deadline: None,
                },
            );
            assert!(est.explored <= budget.max(1) + 1, "budget {budget} overshot");
            assert!(est.estimate >= exact[7], "budget {budget} broke the upper bound");
            assert!(est.estimate <= est.degree);
            assert!(est.lower <= exact[7], "budget {budget} broke the lower bound");
            if budget < full.explored {
                assert!(est.truncated, "budget {budget} of {} not flagged", full.explored);
            }
        }
        // An unconstrained run reproduces local_estimate exactly.
        let opts = QueryOptions { iterations: 4, budget: None, lower_bound: false, deadline: None };
        assert_eq!(local_estimate_opts(&sp, 7, &opts).estimate, full.estimate);
    }

    #[test]
    fn lower_bound_brackets_kappa_on_all_spaces() {
        let g = hdsd_datasets::holme_kim(150, 5, 0.6, 21);
        let core = CoreSpace::new(&g);
        let truss = TrussSpace::precomputed(&g);
        let opts = QueryOptions { iterations: 3, budget: None, lower_bound: true, deadline: None };
        for q in [0usize, 11, 60, 120] {
            let exact = peel(&core).kappa;
            let est = local_estimate_opts(&core, q, &opts);
            assert!(est.lower <= exact[q] && exact[q] <= est.estimate, "core {q}");
        }
        let exact_t = peel(&truss).kappa;
        for q in [0usize, 25, 80] {
            let est = local_estimate_opts(&truss, q, &opts);
            assert!(est.lower <= exact_t[q] && exact_t[q] <= est.estimate, "truss {q}");
        }
    }

    #[test]
    fn lower_bound_is_exact_on_a_clique() {
        // Inside K5 every vertex has κ = 4; a 1-hop ball already contains
        // the whole clique, so the certificate is tight.
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in u + 1..5 {
                edges.push((u, v));
            }
        }
        edges.push((4, 5)); // pendant
        let g = hdsd_graph::graph_from_edges(edges);
        let sp = CoreSpace::new(&g);
        let est = local_estimate_opts(
            &sp,
            0,
            &QueryOptions { iterations: 2, budget: None, lower_bound: true, deadline: None },
        );
        assert_eq!(est.lower, 4);
        assert_eq!(est.estimate, 4);
    }

    #[test]
    fn unbounded_iterations_stop_when_stationary() {
        // Rounds count in usize and stop once τ no longer moves, so any t
        // past convergence returns κ itself (the ball is the component).
        let g = hdsd_datasets::holme_kim(120, 4, 0.5, 3);
        let sp = CoreSpace::new(&g);
        let exact = peel(&sp).kappa;
        let opts = QueryOptions {
            iterations: usize::MAX,
            budget: None,
            lower_bound: true,
            deadline: None,
        };
        for q in [0usize, 30, 77, 119] {
            let est = local_estimate_opts(&sp, q, &opts);
            assert_eq!(est.estimate, exact[q], "vertex {q}");
            assert_eq!(est.lower, exact[q], "vertex {q}");
            assert_eq!(est.iterations, usize::MAX);
            assert!(!est.truncated);
        }
    }

    #[test]
    fn passed_deadline_bounds_unbounded_iterations() {
        let g = hdsd_datasets::holme_kim(200, 5, 0.5, 9);
        let sp = CoreSpace::new(&g);
        let exact = peel(&sp).kappa;
        for q in [0usize, 42, 199] {
            let opts = QueryOptions {
                iterations: usize::MAX,
                budget: None,
                lower_bound: true,
                deadline: Some(std::time::Instant::now()),
            };
            let est = local_estimate_opts(&sp, q, &opts);
            assert!(est.truncated, "vertex {q}");
            assert!(est.lower <= exact[q] && exact[q] <= est.estimate, "vertex {q}");
            assert!(est.estimate <= est.degree);
        }
    }

    #[test]
    fn truss_query_helper() {
        let g = hdsd_datasets::holme_kim(120, 5, 0.6, 5);
        let tsp = TrussSpace::on_the_fly(&g);
        let exact = peel(&tsp).kappa;
        let queries: Vec<u32> = vec![0, 10, 20];
        let ests = estimate_truss_numbers(&g, &queries, 4);
        for (q, est) in queries.iter().zip(&ests) {
            assert!(est.estimate >= exact[*q as usize]);
        }
    }

    #[test]
    fn core_query_helper_converges_to_exact_on_small_graph() {
        let g = hdsd_datasets::erdos_renyi_gnm(40, 90, 9);
        let sp = CoreSpace::new(&g);
        let exact = peel(&sp).kappa;
        // Enough iterations: estimates equal exact κ.
        let queries: Vec<u32> = (0..40).collect();
        let ests = estimate_core_numbers(&g, &queries, 40);
        for (q, est) in queries.iter().zip(&ests) {
            assert_eq!(est.estimate, exact[*q as usize], "vertex {q}");
        }
    }
}
