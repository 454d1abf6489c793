//! Snd — Synchronous Nucleus Decomposition (the paper's Algorithm 2).
//!
//! Jacobi-style iteration: every r-clique recomputes its τ from the
//! *previous* iteration's values (`τ_{t+1} = Uτ_t`), so the result is
//! deterministic and independent of processing order. All r-cliques can be
//! processed in parallel within an iteration; the only cross-iteration
//! state is the double-buffered τ array.
//!
//! By Theorem 1 the sequence is non-increasing and lower-bounded by κ, and
//! by Theorem 3 it converges within `max degree level` iterations; both
//! facts are asserted (debug) and tested.

use hdsd_hindex::HBuffer;
use hdsd_parallel::{parallel_for_chunks_with, AtomicU32Vec, SchedulerStats};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::convergence::{ConvergenceResult, IterationEvent, LocalConfig};
use crate::space::{resolve_rows, CliqueSpace, FlatAccess, SweepAccess, WalkAccess};

/// Runs Snd to convergence (or the configured iteration cap).
pub fn snd<S: CliqueSpace>(space: &S, cfg: &LocalConfig) -> ConvergenceResult {
    snd_run(space, cfg, None)
}

/// Runs Snd, invoking `observer` after every iteration with the fresh τ
/// values — the hook behind the convergence-rate and plateau experiments.
///
/// Like And, the sweep body runs against flat container rows — resident
/// ones in place, otherwise a cache built when
/// [`LocalConfig::container_cache_budget`] admits it (Snd revisits every
/// r-clique every iteration, so it benefits even more from the contiguous
/// layout); the rows never change results, only memory traffic.
pub fn snd_with_observer<S: CliqueSpace>(
    space: &S,
    cfg: &LocalConfig,
    observer: &mut dyn FnMut(IterationEvent<'_>),
) -> ConvergenceResult {
    snd_run(space, cfg, Some(observer))
}

fn snd_run<S: CliqueSpace>(
    space: &S,
    cfg: &LocalConfig,
    observer: Option<&mut dyn FnMut(IterationEvent<'_>)>,
) -> ConvergenceResult {
    match resolve_rows(space, cfg.container_cache_budget) {
        Some(rows) => snd_driver(&FlatAccess(&rows), cfg, observer),
        None => snd_driver(&WalkAccess(space), cfg, observer),
    }
}

fn snd_driver<A: SweepAccess>(
    access: &A,
    cfg: &LocalConfig,
    mut observer: Option<&mut dyn FnMut(IterationEvent<'_>)>,
) -> ConvergenceResult {
    let n = access.len();
    let tau = AtomicU32Vec::from_vec(access.initial());
    let mut tau_prev = vec![0u32; n];
    // Filled only for an observer: nobody else reads a per-sweep copy.
    let mut tau_snapshot = Vec::new();

    let mut scheduler = SchedulerStats::default();
    let mut updates_per_iter = Vec::new();
    let mut processed_per_iter = Vec::new();
    let mut converged = false;
    let mut sweeps = 0usize;

    loop {
        if n == 0 {
            converged = true;
            break;
        }
        if cfg.max_iterations.is_some_and(|cap| sweeps >= cap) {
            break;
        }
        tau.copy_to_slice(&mut tau_prev);
        let updates = AtomicUsize::new(0);
        let tau_prev_ref: &[u32] = &tau_prev;
        let tau_ref = &tau;
        let updates_ref = &updates;

        let sweep_stats = parallel_for_chunks_with(n, cfg.parallel, HBuffer::new, |buf, range| {
            let mut local_updates = 0usize;
            for i in range {
                let old = tau_prev_ref[i];
                let new = access.recompute(i, old, |o| tau_prev_ref[o], buf);
                debug_assert!(new <= old, "monotonicity violated at {i}: {old} -> {new}");
                if new != old {
                    tau_ref.set(i, new);
                    local_updates += 1;
                }
            }
            if local_updates > 0 {
                updates_ref.fetch_add(local_updates, Ordering::Relaxed);
            }
        });

        scheduler.merge(&sweep_stats);
        scheduler.items_processed += n as u64;
        sweeps += 1;
        let u = updates.load(Ordering::Relaxed);
        updates_per_iter.push(u);
        processed_per_iter.push(n);
        if let Some(observe) = observer.as_mut() {
            tau_snapshot.resize(n, 0);
            tau.copy_to_slice(&mut tau_snapshot);
            observe(IterationEvent {
                iteration: sweeps,
                tau: &tau_snapshot,
                updates: u,
                processed: n,
            });
        }

        if u == 0 {
            converged = true;
            break;
        }
        if cfg.stable_enough(u, n) {
            break; // stability stopping rule: good enough, not exact
        }
    }

    ConvergenceResult {
        tau: tau.into_vec(),
        sweeps,
        converged,
        updates_per_iter,
        processed_per_iter,
        scheduler,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peel::peel;
    use crate::space::{CachedSpace, CoreSpace, Nucleus34Space, TrussSpace};
    use hdsd_graph::graph_from_edges;

    /// The paper's Figure 2 toy graph for the k-core walkthrough:
    /// vertices a..f = 0..5; edges such that degrees are
    /// a:2, b:3, c:2, d:2, e:2, f:1 and κ₂ = [1,2,2,2,1,1].
    fn paper_fig2_graph() -> hdsd_graph::CsrGraph {
        // a-e, a-b, b-c, b-d, c-d, e-f  (a=0,b=1,c=2,d=3,e=4,f=5)
        graph_from_edges([(0, 4), (0, 1), (1, 2), (1, 3), (2, 3), (4, 5)])
    }

    #[test]
    fn paper_fig2_core_walkthrough() {
        // The paper traces Snd on this graph: τ0 = degrees, τ1 from
        // h-indices, τ2 = κ; convergence detected on the third sweep.
        let g = paper_fig2_graph();
        let sp = CoreSpace::new(&g);
        let mut snapshots: Vec<Vec<u32>> = Vec::new();
        let r = snd_with_observer(&sp, &LocalConfig::sequential(), &mut |ev| {
            snapshots.push(ev.tau.to_vec())
        });
        // τ0 (degrees): a=2, b=3, c=2, d=2, e=2, f=1
        assert_eq!(sp.initial_degrees(), vec![2, 3, 2, 2, 2, 1]);
        // τ1: a = H({τ0(e),τ0(b)}) = H({2,3}) = 2; b = H({2,2,2}) = 2;
        //     e = H({2,1}) = 1 ...
        assert_eq!(snapshots[0], vec![2, 2, 2, 2, 1, 1]);
        // τ2: a = H({τ1(e),τ1(b)}) = H({1,2}) = 1; rest unchanged.
        assert_eq!(snapshots[1], vec![1, 2, 2, 2, 1, 1]);
        // Exact core numbers, matching the peeling ground truth.
        assert_eq!(r.tau, peel(&sp).kappa);
        assert_eq!(r.iterations_to_converge(), 2);
        assert_eq!(r.sweeps, 3); // two updating sweeps + certification sweep
        assert!(r.converged);
    }

    #[test]
    fn snd_equals_peeling_on_truss_and_nucleus() {
        let g = graph_from_edges([
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3), // K4
            (2, 4),
            (2, 5),
            (3, 4),
            (3, 5),
            (4, 5), // second K4 via (2,3)
            (4, 6),
            (4, 7),
            (5, 7), // fringe
        ]);
        let truss = TrussSpace::precomputed(&g);
        assert_eq!(snd(&truss, &LocalConfig::sequential()).tau, peel(&truss).kappa);
        let nuc = Nucleus34Space::precomputed(&g);
        assert_eq!(snd(&nuc, &LocalConfig::sequential()).tau, peel(&nuc).kappa);
        let gen = CachedSpace::from_graph(&g, 1, 3);
        assert_eq!(snd(&gen, &LocalConfig::sequential()).tau, peel(&gen).kappa);
    }

    #[test]
    fn snd_parallel_matches_sequential() {
        let g = hdsd_datasets::erdos_renyi_gnm(200, 900, 3);
        let sp = CoreSpace::new(&g);
        let seq = snd(&sp, &LocalConfig::sequential());
        for threads in [2, 4] {
            let par = snd(&sp, &LocalConfig::with_threads(threads));
            assert_eq!(par.tau, seq.tau);
            // Snd is deterministic: same iteration count too.
            assert_eq!(par.sweeps, seq.sweeps);
        }
    }

    #[test]
    fn capped_iterations_give_monotone_upper_bounds() {
        let g = hdsd_datasets::erdos_renyi_gnm(150, 700, 5);
        let sp = CoreSpace::new(&g);
        let exact = peel(&sp).kappa;
        let mut prev: Option<Vec<u32>> = None;
        for t in 1..=4 {
            let r = snd(&sp, &LocalConfig::sequential().max_iterations(t));
            // Theorem 1: τ_t >= κ everywhere and τ monotone non-increasing.
            for (i, (&a, &k)) in r.tau.iter().zip(&exact).enumerate() {
                assert!(a >= k, "τ_{t}[{i}] = {a} < κ = {k}");
                if let Some(p) = &prev {
                    assert!(a <= p[i], "τ not monotone at {i}");
                }
            }
            prev = Some(r.tau);
        }
    }

    #[test]
    fn empty_and_trivial_graphs() {
        let g = graph_from_edges([]);
        let sp = CoreSpace::new(&g);
        let r = snd(&sp, &LocalConfig::sequential());
        assert!(r.tau.is_empty());
        assert!(r.converged);

        let g1 = graph_from_edges([(0, 1)]);
        let sp1 = CoreSpace::new(&g1);
        let r1 = snd(&sp1, &LocalConfig::sequential());
        assert_eq!(r1.tau, vec![1, 1]);
    }

    #[test]
    fn stability_rule_stops_early_with_valid_bounds() {
        let g = hdsd_datasets::thin_edges(&hdsd_datasets::holme_kim(600, 8, 0.5, 5), 0.7, 5);
        let sp = CoreSpace::new(&g);
        let full = snd(&sp, &LocalConfig::sequential());
        let early = snd(&sp, &LocalConfig::sequential().stop_when_stable(0.98));
        assert!(!early.converged);
        assert!(early.sweeps < full.sweeps, "{} !< {}", early.sweeps, full.sweeps);
        // Theorem 1: still a valid upper bound everywhere.
        for (a, k) in early.tau.iter().zip(&full.tau) {
            assert!(a >= k);
        }
        // threshold 1.0 behaves like run-to-convergence
        let exact = snd(&sp, &LocalConfig::sequential().stop_when_stable(1.0));
        assert!(exact.converged);
        assert_eq!(exact.tau, full.tau);
    }

    #[test]
    fn observer_sees_every_iteration() {
        let g = hdsd_datasets::erdos_renyi_gnm(80, 300, 1);
        let sp = CoreSpace::new(&g);
        let mut iters = Vec::new();
        let r = snd_with_observer(&sp, &LocalConfig::sequential(), &mut |ev| {
            iters.push((ev.iteration, ev.updates, ev.processed));
        });
        assert_eq!(iters.len(), r.sweeps);
        assert_eq!(iters.last().unwrap().1, 0, "last sweep certifies convergence");
        assert!(iters.iter().enumerate().all(|(k, &(it, _, _))| it == k + 1));
    }
}
