//! And — Asynchronous Nucleus Decomposition (the paper's Algorithm 3).
//!
//! Gauss–Seidel-style iteration: τ updates are visible immediately, so
//! information propagates within a sweep and And never needs more sweeps
//! than Snd. The processing order matters: Theorem 4 proves that sweeping
//! in non-decreasing final-κ order (the peeling order) converges in a
//! single iteration, while adversarial orders degrade toward Snd behaviour.
//!
//! ## Scheduling the notification mechanism
//!
//! The §4.2.1 **notification mechanism** — each r-clique carries a wake
//! flag `c(·)`, marks itself idle after recomputing, and is woken only when
//! a neighbor's τ changes — is what makes And beat Snd in practice. How the
//! awake set is *scheduled* is a separate choice ([`crate::SweepMode`]):
//!
//! * [`SweepMode::Frontier`] (default) visits only the awake r-cliques.
//!   Sequentially the awake set is two bitsets indexed by rank (position
//!   in the permutation): this sweep's and the next one's. A sweep walks
//!   the set bits of the first word by word, in ascending rank, which is
//!   permutation order; a wake is one OR into the second. Scheduling costs
//!   `O(n/64 + awake)` per sweep, and sweep 1, with every bit set, needs
//!   no filter. [`Order::Natural`] is the identity, so it materialises
//!   neither the permutation nor a rank array; any other order pays one
//!   `u32` rank per r-clique. With more than one thread the awake set is
//!   the flag bitmap below (see "Parallel variant").
//! * [`SweepMode::FlagScan`] is the paper's literal formulation: walk the
//!   full permutation every sweep and test the wake flag per r-clique as
//!   it goes (each idle one counted in `SchedulerStats::items_skipped`).
//!   Picking up mid-sweep wakes in place (below) moves its recomputations
//!   by well under 1 % either way against `Frontier`.
//! * [`SweepMode::FullScan`] disables notification entirely (the Figure-8
//!   ablation baseline): every sweep recomputes every r-clique.
//!
//! The wake semantics are identical across modes: an r-clique woken while
//! it still awaits processing in the current sweep is visited once, in
//! place, with the newer τ values; one woken after its visit is scheduled
//! for the next sweep. Under `Frontier` a sweep's set is fixed at its
//! start, so an r-clique asleep then also waits for the next sweep
//! (`FlagScan` picks it up in place if its position is still ahead).
//!
//! ## Which drops wake whom
//!
//! A drop τ(i): `old` → `new` changes ρ only in the containers that hold
//! i. For a co-member `o` it can flip "this container has ρ ≥ τ(o)" only
//! when `new < τ(o) ≤ old`: if τ(o) ≤ `new`, i still clears τ(o); if
//! τ(o) > `old`, i already failed it. So a drop raises the flags of those
//! co-members only, which keeps one invariant:
//!
//! > every unflagged r-clique `o` has τ(o) ≤ U(o, τ), i.e. at least τ(o)
//! > of its containers have ρ ≥ τ(o).
//!
//! A visit unflags `o`, then stores `min(old, H)`, so the invariant holds
//! right after it (U(o) reads only the *other* members' τ). A later drop
//! elsewhere either leaves the count it rests on unchanged or raises o's
//! flag. On an empty frontier the invariant holds for every r-clique, so
//! each set {τ ≥ k} gives each of its members ≥ k containers inside the
//! set, hence τ ≤ κ; Theorem 1 gives τ ≥ κ, so τ = κ. The sequential
//! driver therefore stops after the first sweep that changes nothing: it
//! raised no flag, so it leaves the frontier empty, and no certification
//! sweep follows. The first sweep still visits every r-clique, so
//! Theorem 4's single sweep in peel order is untouched.
//!
//! ## Flat container cache
//!
//! Independently of scheduling, sweeps can run against a one-shot CSR
//! materialization of the space's containers
//! ([`crate::space::FlatContainers`]) instead of the callback walk, turning
//! per-container adjacency intersections into contiguous `u32` reads fed to
//! the fused ρ-min + h-index kernels of `hdsd-hindex`. Rows a space already
//! owns ([`CliqueSpace::as_flat`]) are swept in place; otherwise the cache
//! is gated by [`LocalConfig::container_cache_budget`] (the rule every
//! kernel shares, `space/rows.rs`).
//!
//! ## Parallel variant
//!
//! The paper's own: an OpenMP `parallel for, schedule(dynamic)` over the
//! r-cliques with the §4.2.1 wake flags. Each sweep hands the permutation
//! out in [`hdsd_parallel::ParallelConfig::chunk`]-sized dynamic chunks
//! ([`parallel_for_chunks_with`]); a worker tests the wake bit, clears it,
//! recomputes, and on a change sets the bits of the r-clique's neighbors.
//! τ is shared through relaxed atomics, so workers may read a mix of old
//! and new values — harmless, because `U` is monotone and lower-bounded
//! (Theorem 1; arXiv:1704.00386 makes the same argument): every schedule
//! descends to the same fixed point, in the worst case at the synchronous
//! rate. Sweeps are separated by the join of the chunk loop (a per-sweep
//! barrier); there is no worklist and no quiescence protocol. Drops wake
//! through the same filter as above, but a worker may read a co-member's
//! τ while another worker lowers it and so skip a raise the sequential
//! driver would make. A sweep that changed nothing while some r-cliques
//! slept is therefore followed by one final sweep with every flag raised;
//! it covers only such races, and makes results exact regardless of
//! them. [`SweepMode::Frontier`] and
//! [`SweepMode::FlagScan`] are the same run here; [`SweepMode::FullScan`]
//! ignores the flags.

use hdsd_hindex::HBuffer;
use hdsd_parallel::{parallel_for_chunks_with, AtomicBitset, AtomicU32Vec, SchedulerStats};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::cancel::{CancelToken, Cancelled};
use crate::convergence::{ConvergenceResult, IterationEvent, LocalConfig, SweepMode};
use crate::space::{resolve_rows, CliqueSpace, FlatAccess, SweepAccess, WalkAccess};

/// Processing order for the asynchronous sweep.
#[derive(Clone, Debug, Default)]
pub enum Order {
    /// r-clique id order (the paper's default).
    #[default]
    Natural,
    /// Reverse id order.
    Reverse,
    /// Deterministic pseudo-random permutation of the given seed.
    Random(u64),
    /// Non-decreasing initial S-degree (a cheap proxy for κ order).
    IncreasingDegree,
    /// Explicit permutation: `order[k]` = k-th r-clique to process.
    /// Passing a peeling order realizes Theorem 4's single-iteration bound.
    Custom(Vec<u32>),
}

impl Order {
    /// Materializes the permutation for a space of `n` r-cliques.
    pub fn permutation<S: CliqueSpace>(&self, space: &S) -> Vec<u32> {
        let n = space.num_cliques();
        match self {
            Order::Natural => (0..n as u32).collect(),
            Order::Reverse => (0..n as u32).rev().collect(),
            Order::Random(seed) => {
                let mut p: Vec<u32> = (0..n as u32).collect();
                // SplitMix64-driven Fisher–Yates; deterministic, dependency-free.
                let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
                let mut next = || {
                    state = state.wrapping_add(0x9E3779B97F4A7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                    z ^ (z >> 31)
                };
                for i in (1..n).rev() {
                    let j = (next() % (i as u64 + 1)) as usize;
                    p.swap(i, j);
                }
                p
            }
            Order::IncreasingDegree => {
                let mut p: Vec<u32> = (0..n as u32).collect();
                p.sort_by_key(|&i| (space.degree(i as usize), i));
                p
            }
            Order::Custom(p) => {
                // A repeated id leaves another one out: FullScan would then
                // certify a fixed point it never recomputed, and the
                // notification modes could never reach `processed == n`.
                assert_eq!(p.len(), n, "custom order length mismatch");
                let mut seen = vec![false; n];
                for &i in p {
                    assert!((i as usize) < n, "custom order id {i} out of range (n = {n})");
                    assert!(
                        !std::mem::replace(&mut seen[i as usize], true),
                        "custom order repeats id {i}: not a permutation"
                    );
                }
                p.clone()
            }
        }
    }
}

/// Runs And to convergence (or the iteration cap) with wake-flag
/// notifications enabled, scheduled per [`LocalConfig::sweep_mode`].
pub fn and<S: CliqueSpace>(space: &S, cfg: &LocalConfig, order: &Order) -> ConvergenceResult {
    and_opts(space, cfg, order, AndOptions::default()).expect("an unarmed token never cancels")
}

/// Everything one And run can be given beyond its config and order
/// ([`and_opts`]). The default is what [`and`] runs with: notifications
/// on, τ₀ = the S-degrees, every r-clique awake, no cancellation, no
/// observer.
pub struct AndOptions<'a> {
    /// The §4.2.1 wake-flag notification mechanism. `false` recomputes
    /// every r-clique every sweep (forces [`SweepMode::FullScan`]) — the
    /// ablation baseline for Figure 8-style experiments.
    pub notification: bool,
    /// Start from this τ instead of the S-degrees (length must equal
    /// `space.num_cliques()`).
    ///
    /// **Correctness**: the iteration converges to the exact κ from *any*
    /// pointwise upper bound `τ_init ≥ κ`. Proof sketch: `U` is monotone
    /// and `H` over a clique's containers never exceeds its container
    /// count, so `Uτ_init ≤ d_s` pointwise after one sweep; thereafter
    /// `κ = U^t κ ≤ U^t τ_init ≤ U^t d_s → κ` squeezes the sequence onto κ
    /// within the Theorem-3 bound (+1 sweep). A stale decomposition,
    /// suitably bumped, is therefore a valid warm start.
    pub tau_init: Option<Vec<u32>>,
    /// Cooperative cancellation, probed once per sweep (stage
    /// `"and sweep"`) by both drivers. On `Err` all partial τ progress is
    /// discarded — callers that want exactness re-run; callers that came
    /// with a `tau_init` still hold a valid upper bound (τ only descends).
    pub cancel: CancelToken,
    /// Called after every sweep with the fresh τ values.
    pub observer: Option<&'a mut dyn FnMut(IterationEvent<'_>)>,
}

impl Default for AndOptions<'_> {
    fn default() -> Self {
        AndOptions {
            notification: true,
            tau_init: None,
            cancel: CancelToken::none(),
            observer: None,
        }
    }
}

/// The full-control And entry point: [`and`] under `opts`.
///
/// Resolves the access layer (flat rows vs callback walk — the rule every
/// kernel shares, `space/rows.rs`) and the sequential/parallel driver, then
/// runs the sweeps. The drivers are monomorphized over the access layer,
/// so the hot per-container loop has no dynamic dispatch either way.
///
/// # Panics
/// Panics when `opts.tau_init` is given with a length other than
/// `space.num_cliques()`, or when `order` is not a permutation.
pub fn and_opts<S: CliqueSpace>(
    space: &S,
    cfg: &LocalConfig,
    order: &Order,
    opts: AndOptions<'_>,
) -> Result<ConvergenceResult, Cancelled> {
    if let Some(tau) = &opts.tau_init {
        assert_eq!(tau.len(), space.num_cliques(), "tau_init length mismatch");
    }
    let explicit = match order {
        Order::Natural => None,
        _ => Some(order.permutation(space)),
    };
    let perm = explicit.as_deref().map_or(Perm::Identity, Perm::Explicit);
    match resolve_rows(space, cfg.container_cache_budget) {
        Some(rows) => drive(&FlatAccess(&rows), cfg, perm, opts),
        None => drive(&WalkAccess(space), cfg, perm, opts),
    }
}

fn drive<A: SweepAccess>(
    access: &A,
    cfg: &LocalConfig,
    perm: Perm<'_>,
    opts: AndOptions<'_>,
) -> Result<ConvergenceResult, Cancelled> {
    if cfg.parallel.threads <= 1 {
        and_sequential(access, cfg, perm, opts)
    } else {
        and_parallel(access, cfg, perm, opts)
    }
}

/// A processing order as the drivers read it: `id(k)` is the r-clique of
/// rank k. [`Order::Natural`] is the identity and is never materialised.
#[derive(Clone, Copy)]
enum Perm<'a> {
    Identity,
    Explicit(&'a [u32]),
}

impl Perm<'_> {
    #[inline]
    fn id(self, k: usize) -> usize {
        match self {
            Perm::Identity => k,
            Perm::Explicit(p) => p[k] as usize,
        }
    }
}

/// The sequential driver's awake set under [`SweepMode::Frontier`]: two
/// bitsets indexed by rank (position in the permutation), this sweep's
/// and the next one's.
///
/// A sweep walks the set bits of `current` word by word in ascending
/// rank, which is permutation order, so it costs `O(n/64 + awake)`.
/// Wakes set bits of `next` only, so a sweep's set is fixed at its start.
/// A visit clears the r-clique's bit in both, which absorbs a wake that
/// reached it before its visit. A wake, the hottest frontier operation
/// (one per reachable co-member per update), is one OR into `next`. The
/// two swap at the sweep's end, when `current` has been emptied.
struct SeqFrontier<'a> {
    perm: Perm<'a>,
    /// `rank[i]` is r-clique i's position in `perm`; empty for the identity.
    rank: Vec<u32>,
    current: Vec<u64>,
    next: Vec<u64>,
}

impl<'a> SeqFrontier<'a> {
    /// Every r-clique awake, so sweep 1 visits all n without a filter.
    fn seeded(perm: Perm<'a>, n: usize) -> Self {
        let mut current = vec![u64::MAX; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            current[n / 64] = (1 << (n % 64)) - 1;
        }
        let rank = match perm {
            Perm::Identity => Vec::new(),
            Perm::Explicit(p) => {
                let mut rank = vec![0; n];
                for (k, &i) in p.iter().enumerate() {
                    rank[i as usize] = k as u32;
                }
                rank
            }
        };
        SeqFrontier { perm, rank, next: vec![0; current.len()], current }
    }

    /// Runs one sweep and returns its processed and update counts.
    fn sweep<A: SweepAccess>(
        &mut self,
        access: &A,
        tau: &mut [u32],
        buf: &mut HBuffer,
    ) -> (usize, usize) {
        let SeqFrontier { perm, rank, current, next } = self;
        let counts = match *perm {
            Perm::Identity => sweep_bits(access, current, next, tau, buf, |k| k, |i| i),
            Perm::Explicit(p) => {
                sweep_bits(access, current, next, tau, buf, |k| p[k] as usize, |i| rank[i] as usize)
            }
        };
        std::mem::swap(current, next);
        counts
    }
}

/// Visits the set bits of `current` in ascending rank, emptying it, and
/// returns the processed and update counts. `id` maps a rank to its
/// r-clique, `rank` the other way. Each r-clique is unflagged before it is
/// recomputed, so a same-sweep neighbor update re-schedules it (the
/// paper's line 17).
fn sweep_bits<A: SweepAccess>(
    access: &A,
    current: &mut [u64],
    next: &mut [u64],
    tau: &mut [u32],
    buf: &mut HBuffer,
    id: impl Fn(usize) -> usize,
    rank: impl Fn(usize) -> usize,
) -> (usize, usize) {
    let (mut processed, mut updates) = (0, 0);
    for w in 0..current.len() {
        let mut bits = std::mem::take(&mut current[w]);
        processed += bits.count_ones() as usize;
        while bits != 0 {
            let bit = bits.trailing_zeros();
            bits &= bits - 1;
            next[w] &= !(1 << bit);
            let i = id(w * 64 + bit as usize);
            let old = tau[i];
            let new = access.recompute(i, old, |o| tau[o], buf).min(old);
            if new != old {
                debug_assert!(new < old);
                tau[i] = new;
                updates += 1;
                notify(
                    access,
                    i,
                    old,
                    new,
                    |o| tau[o],
                    |o| {
                        let r = rank(o);
                        next[r / 64] |= 1 << (r % 64);
                    },
                );
            }
        }
    }
    (processed, updates)
}

/// The §4.2.1 notification of a drop τ(i): `old` → `new`. Raises (via
/// `raise`) the flag of each co-member `o` with `new < τ(o) ≤ old`, the
/// only ones whose count of containers with ρ ≥ τ(o) the drop can change
/// (see "Which drops wake whom" in the module docs). `read` serves τ.
#[inline]
fn notify<A: SweepAccess>(
    access: &A,
    i: usize,
    old: u32,
    new: u32,
    read: impl Fn(usize) -> u32,
    mut raise: impl FnMut(usize),
) {
    access.wake(i, |o| {
        let t = read(o);
        if new < t && t <= old {
            raise(o);
        }
    });
}

fn and_sequential<A: SweepAccess>(
    access: &A,
    cfg: &LocalConfig,
    perm: Perm<'_>,
    opts: AndOptions<'_>,
) -> Result<ConvergenceResult, Cancelled> {
    let AndOptions { notification, tau_init, cancel, mut observer } = opts;
    let mode = if notification { cfg.sweep_mode } else { SweepMode::FullScan };
    let armed = cancel.is_armed();
    let n = access.len();
    let mut tau = tau_init.unwrap_or_else(|| access.initial());
    let mut buf = HBuffer::new();

    let mut frontier = (mode == SweepMode::Frontier).then(|| SeqFrontier::seeded(perm, n));
    // Wake flags, FlagScan only (all r-cliques start active, as in the
    // paper); the other modes never read them, so don't pay the O(n).
    let mut active = if mode == SweepMode::FlagScan { vec![true; n] } else { Vec::new() };

    let mut scheduler = SchedulerStats::from_chunks(vec![0]);
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
        if armed {
            cancel.check("and sweep")?;
        }
        let mut updates = 0usize;
        let mut processed = 0usize;
        match &mut frontier {
            Some(f) => (processed, updates) = f.sweep(access, &mut tau, &mut buf),
            None => {
                for k in 0..n {
                    let i = perm.id(k);
                    if mode == SweepMode::FlagScan && !active[i] {
                        scheduler.items_skipped += 1;
                        continue;
                    }
                    processed += 1;
                    // Mark idle before recomputing; a same-sweep neighbor
                    // update re-wakes us (the paper's line 17 semantics).
                    if mode == SweepMode::FlagScan {
                        active[i] = false;
                    }
                    let old = tau[i];
                    let new = access.recompute(i, old, |o| tau[o], &mut buf).min(old);
                    if new != old {
                        debug_assert!(new < old);
                        tau[i] = new;
                        updates += 1;
                        if mode == SweepMode::FlagScan {
                            notify(access, i, old, new, |o| tau[o], |o| active[o] = true);
                        }
                    }
                }
            }
        }
        scheduler.chunks_per_worker[0] += 1;
        scheduler.items_processed += processed as u64;
        sweeps += 1;
        updates_per_iter.push(updates);
        processed_per_iter.push(processed);
        if let Some(observe) = observer.as_mut() {
            observe(IterationEvent { iteration: sweeps, tau: &tau, updates, processed });
        }

        if updates == 0 {
            // A sweep that changed nothing raised no flag, so the frontier
            // is empty: τ = κ (see "Which drops wake whom" above).
            converged = true;
            break;
        }
        if cfg.stable_enough(updates, n) {
            break; // stability stopping rule: good enough, not exact
        }
    }

    Ok(ConvergenceResult {
        tau,
        sweeps,
        converged,
        updates_per_iter,
        processed_per_iter,
        scheduler,
    })
}

/// The parallel driver: every sweep is one chunked scan of the
/// permutation against the wake-flag bitmap (see "Parallel variant" in the
/// module docs).
fn and_parallel<A: SweepAccess>(
    access: &A,
    cfg: &LocalConfig,
    perm: Perm<'_>,
    opts: AndOptions<'_>,
) -> Result<ConvergenceResult, Cancelled> {
    let AndOptions { notification, tau_init, cancel, mut observer } = opts;
    // The flag bitmap is the awake set of both notification modes.
    let flags = notification && cfg.sweep_mode != SweepMode::FullScan;
    let armed = cancel.is_armed();
    let n = access.len();
    let tau = AtomicU32Vec::from_vec(tau_init.unwrap_or_else(|| access.initial()));
    // All r-cliques start active, as in the paper; FullScan never reads
    // the flags, so don't pay the O(n).
    let active = AtomicBitset::new(if flags { n } else { 0 }, true);
    let raise = |o: usize| {
        active.set(o);
    };

    let mut scheduler = SchedulerStats::from_chunks(vec![0; cfg.parallel.threads]);
    let mut updates_per_iter = Vec::new();
    let mut processed_per_iter = Vec::new();
    let mut converged = false;
    let mut sweeps = 0usize;
    // Filled only for an observer: nobody else reads a per-sweep copy.
    let mut tau_snapshot = Vec::new();

    loop {
        if n == 0 {
            converged = true;
            break;
        }
        if cfg.max_iterations.is_some_and(|cap| sweeps >= cap) {
            break;
        }
        if armed {
            cancel.check("and sweep")?;
        }
        let updates = AtomicUsize::new(0);
        let processed = AtomicUsize::new(0);
        let skipped = AtomicU64::new(0);

        let sweep_stats = parallel_for_chunks_with(n, cfg.parallel, HBuffer::new, |buf, range| {
            let mut local_updates = 0usize;
            let mut local_processed = 0usize;
            let mut local_skipped = 0u64;
            for k in range {
                let i = perm.id(k);
                if flags {
                    if !active.get(i) {
                        local_skipped += 1;
                        continue;
                    }
                    // Mark idle before recomputing: a concurrent neighbor
                    // update re-wakes us (the paper's line 17).
                    active.clear(i);
                }
                local_processed += 1;
                let old = tau.get(i);
                let new = access.recompute(i, old, |o| tau.get(o), buf).min(old);
                if new != old {
                    tau.set(i, new);
                    local_updates += 1;
                    if flags {
                        notify(access, i, old, new, |o| tau.get(o), raise);
                    }
                }
            }
            if local_updates > 0 {
                updates.fetch_add(local_updates, Ordering::Relaxed);
            }
            if local_processed > 0 {
                processed.fetch_add(local_processed, Ordering::Relaxed);
            }
            if local_skipped > 0 {
                skipped.fetch_add(local_skipped, Ordering::Relaxed);
            }
        });

        scheduler.merge(&sweep_stats);
        sweeps += 1;
        let u = updates.load(Ordering::Relaxed);
        let p = processed.load(Ordering::Relaxed);
        scheduler.items_processed += p as u64;
        scheduler.items_skipped += skipped.load(Ordering::Relaxed);
        updates_per_iter.push(u);
        processed_per_iter.push(p);
        if let Some(observe) = observer.as_mut() {
            tau_snapshot.resize(n, 0);
            tau.copy_to_slice(&mut tau_snapshot);
            observe(IterationEvent {
                iteration: sweeps,
                tau: &tau_snapshot,
                updates: u,
                processed: p,
            });
        }

        if u == 0 {
            // A wake lost to a race could hide pending work: certify the
            // fixed point with a full sweep before declaring victory.
            // (FullScan always visits all n, so `p < n` implies `flags`.)
            if p < n {
                for i in 0..n {
                    active.set(i);
                }
                continue;
            }
            converged = true;
            break;
        }
        if cfg.stable_enough(u, n) {
            break; // stability stopping rule: good enough, not exact
        }
    }

    Ok(ConvergenceResult {
        tau: tau.into_vec(),
        sweeps,
        converged,
        updates_per_iter,
        processed_per_iter,
        scheduler,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peel::peel;
    use crate::snd::snd;
    use crate::space::{CoreSpace, Nucleus34Space, TrussSpace};
    use hdsd_graph::graph_from_edges;
    use proptest::prelude::*;

    fn paper_fig2_graph() -> hdsd_graph::CsrGraph {
        graph_from_edges([(0, 4), (0, 1), (1, 2), (1, 3), (2, 3), (4, 5)])
    }

    #[test]
    fn and_matches_peeling_all_orders() {
        let g = hdsd_datasets::holme_kim(250, 4, 0.5, 21);
        let sp = CoreSpace::new(&g);
        let exact = peel(&sp).kappa;
        for order in [Order::Natural, Order::Reverse, Order::Random(7), Order::IncreasingDegree] {
            let r = and(&sp, &LocalConfig::sequential(), &order);
            assert_eq!(r.tau, exact, "order {order:?}");
            assert!(r.converged);
        }
    }

    #[test]
    fn theorem4_peel_order_converges_in_one_iteration() {
        // Processing in non-decreasing κ order => single updating sweep.
        let g = hdsd_datasets::holme_kim(300, 5, 0.5, 4);
        for use_truss in [false, true] {
            let (iters, ok) = if use_truss {
                let sp = TrussSpace::precomputed(&g);
                let p = peel(&sp);
                let r = and(&sp, &LocalConfig::sequential(), &Order::Custom(p.order.clone()));
                (r.iterations_to_converge(), r.tau == p.kappa)
            } else {
                let sp = CoreSpace::new(&g);
                let p = peel(&sp);
                let r = and(&sp, &LocalConfig::sequential(), &Order::Custom(p.order.clone()));
                (r.iterations_to_converge(), r.tau == p.kappa)
            };
            assert!(ok);
            assert!(iters <= 1, "Theorem 4 violated: {iters} updating iterations");
        }
    }

    #[test]
    fn paper_fig2_alphabetical_vs_kappa_order() {
        // The paper's Figure 2: alphabetical order {a..f} needs two
        // updating iterations; the {f,e,a,b,c,d} order (non-decreasing κ)
        // converges in one.
        let g = paper_fig2_graph();
        let sp = CoreSpace::new(&g);
        let alpha = and(&sp, &LocalConfig::sequential(), &Order::Natural);
        assert_eq!(alpha.tau, vec![1, 2, 2, 2, 1, 1]);
        assert_eq!(alpha.iterations_to_converge(), 2);
        // f=5, e=4, a=0, b=1, c=2, d=3
        let good = and(&sp, &LocalConfig::sequential(), &Order::Custom(vec![5, 4, 0, 1, 2, 3]));
        assert_eq!(good.tau, vec![1, 2, 2, 2, 1, 1]);
        assert_eq!(good.iterations_to_converge(), 1);
    }

    #[test]
    fn and_never_needs_more_updating_sweeps_than_snd() {
        for seed in [1u64, 2, 3] {
            let g = hdsd_datasets::erdos_renyi_gnm(150, 600, seed);
            let sp = CoreSpace::new(&g);
            let s = snd(&sp, &LocalConfig::sequential());
            let a = and(&sp, &LocalConfig::sequential(), &Order::Natural);
            assert_eq!(s.tau, a.tau);
            assert!(
                a.iterations_to_converge() <= s.iterations_to_converge(),
                "seed {seed}: AND {} > SND {}",
                a.iterations_to_converge(),
                s.iterations_to_converge()
            );
        }
    }

    #[test]
    fn notification_reduces_processed_work() {
        let g = hdsd_datasets::holme_kim(400, 5, 0.6, 11);
        let sp = TrussSpace::precomputed(&g);
        let with = and(&sp, &LocalConfig::sequential(), &Order::Natural);
        let without = and_opts(
            &sp,
            &LocalConfig::sequential(),
            &Order::Natural,
            AndOptions { notification: false, ..AndOptions::default() },
        )
        .expect("unarmed");
        assert_eq!(with.tau, without.tau);
        assert!(
            with.total_processed() < without.total_processed(),
            "notification should skip plateau work: {} vs {}",
            with.total_processed(),
            without.total_processed()
        );
    }

    #[test]
    fn sweep_modes_agree_and_frontier_skips_nothing() {
        let g = hdsd_datasets::holme_kim(350, 5, 0.6, 17);
        let sp = TrussSpace::precomputed(&g);
        let exact = peel(&sp).kappa;

        let frontier =
            and(&sp, &LocalConfig::sequential().sweep_mode(SweepMode::Frontier), &Order::Natural);
        let flags =
            and(&sp, &LocalConfig::sequential().sweep_mode(SweepMode::FlagScan), &Order::Natural);
        let full =
            and(&sp, &LocalConfig::sequential().sweep_mode(SweepMode::FullScan), &Order::Natural);

        for r in [&frontier, &flags, &full] {
            assert_eq!(r.tau, exact);
            assert!(r.converged);
        }
        assert_eq!(frontier.scheduler.items_skipped, 0, "frontier never visits idle work");
        assert!(flags.scheduler.items_skipped > 0, "flag scan pays idle checks");
        assert_eq!(
            flags.scheduler.items_skipped + flags.scheduler.items_processed,
            (sp.num_cliques() * flags.sweeps) as u64,
            "flag scan touches n items every sweep"
        );
        assert!(frontier.total_processed() < full.total_processed());
    }

    #[test]
    fn flat_cache_does_not_change_behaviour() {
        let g = hdsd_datasets::holme_kim(300, 5, 0.5, 23);
        let sp = TrussSpace::precomputed(&g);
        let cached = and(&sp, &LocalConfig::sequential(), &Order::Natural);
        let walked =
            and(&sp, &LocalConfig::sequential().without_container_cache(), &Order::Natural);
        assert_eq!(cached.tau, walked.tau);
        assert_eq!(cached.sweeps, walked.sweeps);
        assert_eq!(cached.processed_per_iter, walked.processed_per_iter);
        // A budget too small for the cache must silently fall back.
        let tiny = and(&sp, &LocalConfig::sequential().container_cache_budget(1), &Order::Natural);
        assert_eq!(tiny.tau, walked.tau);
    }

    #[test]
    fn parallel_and_matches_exact_results() {
        let g = hdsd_datasets::holme_kim(300, 5, 0.5, 33);
        let core = CoreSpace::new(&g);
        let exact = peel(&core).kappa;
        for threads in [2, 4] {
            for notification in [true, false] {
                let cfg = LocalConfig::with_threads(threads);
                let opts = AndOptions { notification, ..AndOptions::default() };
                let r = and_opts(&core, &cfg, &Order::Natural, opts).expect("unarmed");
                assert_eq!(r.tau, exact, "threads={threads} notif={notification}");
                assert!(r.converged);
            }
        }
        let truss = TrussSpace::precomputed(&g);
        let exact_t = peel(&truss).kappa;
        for mode in [SweepMode::Frontier, SweepMode::FlagScan] {
            let r = and(&truss, &LocalConfig::with_threads(4).sweep_mode(mode), &Order::Natural);
            assert_eq!(r.tau, exact_t, "mode {mode:?}");
            assert!(r.converged);
        }
    }

    #[test]
    fn and_on_34_nucleus() {
        let g = hdsd_datasets::planted_partition(&[12, 12, 12], 0.8, 0.05, 5);
        let sp = Nucleus34Space::precomputed(&g);
        let exact = peel(&sp).kappa;
        let r = and(&sp, &LocalConfig::sequential(), &Order::Natural);
        assert_eq!(r.tau, exact);
    }

    /// `max_iterations` is a hard cap in every driver: at most `cap` sweeps,
    /// τ ≥ κ pointwise, τ₀ itself at cap 0, and `converged` only for a
    /// certified fixed point — a run the cap stops before its zero-update
    /// sweep is not converged.
    #[test]
    fn max_iterations_is_a_hard_cap_in_every_driver() {
        let fig2 = paper_fig2_graph();
        let gnm = hdsd_datasets::erdos_renyi_gnm(120, 500, 9);
        for g in [&fig2, &gnm] {
            let sp = CoreSpace::new(g);
            let exact = peel(&sp).kappa;
            let tau0 = sp.initial_degrees();
            let run = |driver: &str, cap: Option<usize>| {
                let mut cfg = match driver {
                    "parallel and" => LocalConfig::with_threads(2),
                    _ => LocalConfig::sequential(),
                };
                cfg.max_iterations = cap;
                match driver {
                    "snd" => snd(&sp, &cfg),
                    _ => and(&sp, &cfg, &Order::Natural),
                }
            };
            for driver in ["snd", "and", "parallel and"] {
                let full = run(driver, None);
                for cap in 0..=3 {
                    let r = run(driver, Some(cap));
                    let tag = format!("{driver} cap {cap} n {}", sp.num_cliques());
                    assert!(r.sweeps <= cap, "{tag}: {} sweeps", r.sweeps);
                    assert_eq!(r.processed_per_iter.len(), r.sweeps, "{tag}");
                    assert!(r.tau.iter().zip(&exact).all(|(t, k)| t >= k), "{tag}: τ < κ");
                    if cap == 0 {
                        assert_eq!(r.tau, tau0, "{tag}");
                    }
                    if r.converged {
                        assert_eq!(r.tau, exact, "{tag}");
                        assert_eq!(r.updates_per_iter.last(), Some(&0), "{tag}");
                    }
                    if driver != "parallel and" {
                        // Deterministic: the capped run is a prefix of the full one.
                        assert_eq!(r.sweeps, cap.min(full.sweeps), "{tag}");
                        assert_eq!(r.converged, cap >= full.sweeps, "{tag}");
                    }
                }
            }
        }
        // The figure-2 run ends on a zero-update sweep after its two
        // updating ones: a cap of 3 converges, a cap of 2 stops short.
        let sp = CoreSpace::new(&fig2);
        let capped = and(&sp, &LocalConfig::sequential().max_iterations(3), &Order::Natural);
        assert_eq!((capped.sweeps, capped.converged), (3, true));
        let capped = and(&sp, &LocalConfig::sequential().max_iterations(2), &Order::Natural);
        assert_eq!((capped.sweeps, capped.converged), (2, false));
        // At cap 0 a warm start comes back untouched.
        let warm: Vec<u32> = sp.initial_degrees().iter().map(|d| d + 1).collect();
        for cfg in [LocalConfig::sequential(), LocalConfig::with_threads(2)] {
            let opts = AndOptions { tau_init: Some(warm.clone()), ..AndOptions::default() };
            let r = and_opts(&sp, &cfg.max_iterations(0), &Order::Natural, opts).expect("unarmed");
            assert_eq!((r.tau, r.sweeps, r.converged), (warm.clone(), 0, false));
        }
    }

    /// The `Frontier` schedule written as an ordered worklist keyed by
    /// permutation rank: a sweep pops its set in rank order; a drop
    /// `old` → `new` wakes each co-member with `new < τ ≤ old`, queuing it
    /// for the next sweep unless it is still pending in this one; the run
    /// ends after a sweep without updates. Returns τ and the per-sweep
    /// updates and processed counts.
    fn rank_worklist_reference<S: CliqueSpace>(
        space: &S,
        perm: &[u32],
        tau_init: Option<Vec<u32>>,
    ) -> (Vec<u32>, Vec<usize>, Vec<usize>) {
        use std::collections::BTreeSet;
        let access = WalkAccess(space);
        let n = perm.len();
        let mut rank = vec![0usize; n];
        for (k, &i) in perm.iter().enumerate() {
            rank[i as usize] = k;
        }
        let mut tau = tau_init.unwrap_or_else(|| access.initial());
        let mut buf = HBuffer::new();
        let (mut updates_per_iter, mut processed_per_iter) = (Vec::new(), Vec::new());
        let mut next: BTreeSet<usize> = (0..n).collect();
        loop {
            if n == 0 {
                break;
            }
            let mut pending = std::mem::take(&mut next);
            let (mut updates, mut processed) = (0, 0);
            while let Some(k) = pending.pop_first() {
                let i = perm[k] as usize;
                processed += 1;
                let old = tau[i];
                let new = access.recompute(i, old, |o| tau[o], &mut buf).min(old);
                if new != old {
                    tau[i] = new;
                    updates += 1;
                    access.wake(i, |o| {
                        let t = tau[o];
                        if new < t && t <= old && !pending.contains(&rank[o]) {
                            next.insert(rank[o]);
                        }
                    });
                }
            }
            updates_per_iter.push(updates);
            processed_per_iter.push(processed);
            if updates == 0 {
                break;
            }
        }
        (tau, updates_per_iter, processed_per_iter)
    }

    /// The rank-indexed bitsets schedule exactly as the rank-ordered
    /// worklist: same τ, sweeps and per-sweep counts, over every order
    /// kind, cold and from a bumped stale κ.
    fn assert_frontier_matches_reference<S: CliqueSpace>(space: &S, seed: u64) {
        let n = space.num_cliques();
        let p = peel(space);
        // A stale κ bumped on every fifth r-clique: still an upper bound,
        // so the run converges to κ, waking only the bumped regions.
        let bumped: Vec<u32> = (0..n)
            .map(|i| p.kappa[i] + if (i as u64 + seed).is_multiple_of(5) { 2 } else { 0 })
            .collect();
        let orders =
            [Order::Natural, Order::Reverse, Order::Random(seed), Order::Custom(p.order.clone())];
        for order in &orders {
            for tau_init in [None, Some(bumped.clone())] {
                let tag = format!("{} {order:?} warm={}", space.name(), tau_init.is_some());
                let (tau, updates, processed) =
                    rank_worklist_reference(space, &order.permutation(space), tau_init.clone());
                let opts = AndOptions { tau_init, ..AndOptions::default() };
                let r = and_opts(space, &LocalConfig::sequential(), order, opts).expect("unarmed");
                assert_eq!(r.tau, p.kappa, "{tag}");
                assert!(r.converged, "{tag}");
                assert_eq!(r.tau, tau, "{tag}");
                assert_eq!(r.updates_per_iter, updates, "{tag}");
                assert_eq!(r.processed_per_iter, processed, "{tag}");
                assert_eq!(r.sweeps, processed.len(), "{tag}");
                assert_eq!(r.scheduler.items_skipped, 0, "{tag}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn frontier_schedules_like_a_rank_ordered_worklist(
            n in 30u32..160,
            m in 2u32..6,
            seed in 0u64..10_000,
        ) {
            let g = hdsd_datasets::holme_kim(n, m, 0.6, seed);
            assert_frontier_matches_reference(&CoreSpace::new(&g), seed);
            assert_frontier_matches_reference(&TrussSpace::precomputed(&g), seed);
            assert_frontier_matches_reference(&Nucleus34Space::precomputed(&g), seed);
        }
    }

    /// Core's r-cliques are the n vertices, so these sizes end the
    /// frontier's bitsets just below, on and just past a 64-bit word edge.
    #[test]
    fn frontier_matches_the_reference_at_word_boundaries() {
        for n in [63, 64, 65, 127, 128, 129] {
            let g = hdsd_datasets::holme_kim(n, 3, 0.6, 1);
            let sp = CoreSpace::new(&g);
            assert_eq!(sp.num_cliques(), n as usize);
            assert_frontier_matches_reference(&sp, u64::from(n));
        }
        assert_frontier_matches_reference(&CoreSpace::new(&graph_from_edges([])), 0);
    }

    #[test]
    fn cancelled_and_aborts_sequential_and_parallel() {
        let g = hdsd_datasets::holme_kim(800, 5, 0.5, 41);
        let sp = CoreSpace::new(&g);
        let n = sp.num_cliques();
        let tau: Vec<u32> = (0..n).map(|i| sp.degree(i)).collect();
        let resume_under = |cfg: &LocalConfig, cancel: CancelToken| {
            let opts = AndOptions { tau_init: Some(tau.clone()), cancel, ..AndOptions::default() };
            and_opts(&sp, cfg, &Order::Natural, opts)
        };
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        for threads in [1usize, 4] {
            let cfg = if threads == 1 {
                LocalConfig::sequential()
            } else {
                LocalConfig::with_threads(threads)
            };
            // An expired deadline trips at the first sweep boundary.
            let err = resume_under(&cfg, CancelToken::with_deadline(Some(past))).unwrap_err();
            assert_eq!(err.message(), "deadline exceeded (and sweep)", "threads={threads}");
            // A generous deadline is invisible: exact κ as ever.
            let far = std::time::Instant::now() + std::time::Duration::from_secs(3600);
            let ok = resume_under(&cfg, CancelToken::with_deadline(Some(far)))
                .expect("generous deadline");
            assert_eq!(ok.tau, peel(&sp).kappa, "threads={threads}");
            // A token tripping on its second probe stops either driver at
            // the second sweep boundary.
            let err = resume_under(&cfg, CancelToken::tripping_after_checks(2)).unwrap_err();
            assert_eq!(err.stage, "and sweep", "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "custom order repeats id 1")]
    fn custom_order_with_a_duplicate_is_rejected() {
        let g = paper_fig2_graph();
        let sp = CoreSpace::new(&g);
        // Right length, but 1 appears twice and 2 never.
        and(&sp, &LocalConfig::sequential(), &Order::Custom(vec![0, 1, 1, 3, 4, 5]));
    }

    #[test]
    #[should_panic(expected = "custom order id 6 out of range")]
    fn custom_order_with_an_out_of_range_id_is_rejected() {
        let g = paper_fig2_graph();
        let sp = CoreSpace::new(&g);
        and(&sp, &LocalConfig::sequential(), &Order::Custom(vec![0, 1, 2, 3, 4, 6]));
    }

    #[test]
    fn random_order_is_deterministic_per_seed() {
        let g = hdsd_datasets::erdos_renyi_gnm(60, 150, 2);
        let sp = CoreSpace::new(&g);
        let p1 = Order::Random(5).permutation(&sp);
        let p2 = Order::Random(5).permutation(&sp);
        let p3 = Order::Random(6).permutation(&sp);
        assert_eq!(p1, p2);
        assert_ne!(p1, p3);
        let mut sorted = p1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..60u32).collect::<Vec<_>>());
    }
}
