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
//! * [`SweepMode::Frontier`] (default) keeps the awake r-cliques in an
//!   explicit dedup-on-insert worklist, so per-sweep cost is
//!   `O(|frontier|)`, not `O(n)`. Late, nearly-converged sweeps touch only
//!   the handful of r-cliques that can still change. Sequentially the
//!   worklist is a plain epoch queue drained in permutation order; in
//!   parallel it is a lock-free MPMC ring ([`hdsd_parallel::ConcurrentWorklist`])
//!   drained **continuously** — no epoch snapshot, no sort, no barrier
//!   (see "Parallel variant" below).
//! * [`SweepMode::FlagScan`] is the paper's literal formulation: walk the
//!   full permutation every sweep and test the wake flag per r-clique. It
//!   recomputes the same r-cliques as `Frontier` but pays `O(n)` idle flag
//!   checks per sweep (counted in `SchedulerStats::items_skipped`).
//! * [`SweepMode::FullScan`] disables notification entirely (the Figure-8
//!   ablation baseline): every sweep recomputes every r-clique.
//!
//! The wake semantics are identical across modes: an r-clique woken while
//! it still awaits processing in the current sweep is visited once, in
//! place, with the newer τ values; one woken after its visit is scheduled
//! for the next sweep.
//!
//! ## Flat container cache
//!
//! Independently of scheduling, sweeps can run against a one-shot CSR
//! materialization of the space's containers
//! ([`crate::space::FlatContainers`]) instead of the callback walk, turning
//! per-container adjacency intersections into contiguous `u32` reads fed to
//! the fused ρ-min + h-index kernels of `hdsd-hindex`. Rows a space already
//! owns ([`CliqueSpace::as_flat`]) are swept in place; otherwise the cache
//! is gated by [`LocalConfig::container_cache_budget`] and by each space's
//! [`CliqueSpace::prefers_flat_cache`] hint (the rule every kernel shares,
//! `space/rows.rs`).
//!
//! ## Parallel variant
//!
//! A parallel variant shares τ through relaxed atomics: workers may read a
//! mix of old and new values, which the paper argues (and Theorem 1's
//! monotone, lower-bounded descent guarantees) still converges to the same
//! fixed point — in the worst case it degenerates to the synchronous
//! schedule. Under [`SweepMode::Frontier`] the workers free-run against a
//! lock-free worklist with **no per-epoch barrier**: an update pushes the
//! woken neighbors straight back into the ring and any idle worker picks
//! them up within the same round, which is exactly the asynchrony the
//! companion paper (arXiv:1704.00386) proves harmless. Round termination
//! is exact quiescence counting ([`hdsd_parallel::QuiescenceCounter`]),
//! not an empty-queue check. The scan modes keep their dynamic/static
//! chunk hand-out (the paper's `schedule(dynamic)` ablation, now doubling
//! as the barrier ablation). A final full verification round certifies
//! the fixed point, so results are exact regardless of races.

use hdsd_hindex::HBuffer;
use hdsd_parallel::{
    parallel_for_chunks_with, AtomicBitset, AtomicU32Vec, ConcurrentWorklist, QuiescenceCounter,
    SchedulerStats,
};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::cancel::{CancelToken, Cancelled};
use crate::convergence::{ConvergenceResult, IterationEvent, LocalConfig, SweepMode};
use crate::space::{resolve_rows, CliqueSpace, FlatAccess, SweepAccess, WalkAccess};

/// How many frontier pops a parallel And worker processes between
/// cancellation probes — the per-worker overshoot bound for the drain.
pub const AND_CANCEL_POP_BATCH: u32 = 64;

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
    /// Cooperative cancellation, probed once per sweep and, in the
    /// parallel frontier, every [`AND_CANCEL_POP_BATCH`] pops per worker.
    /// On `Err` all partial τ progress is discarded — callers that want
    /// exactness re-run; callers that came with a `tau_init` still hold a
    /// valid upper bound (τ only descends).
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
    let perm = order.permutation(space);
    match resolve_rows(space, cfg.container_cache_budget) {
        Some(rows) => drive(&FlatAccess(&rows), cfg, &perm, opts),
        None => drive(&WalkAccess(space), cfg, &perm, opts),
    }
}

fn drive<A: SweepAccess>(
    access: &A,
    cfg: &LocalConfig,
    perm: &[u32],
    opts: AndOptions<'_>,
) -> Result<ConvergenceResult, Cancelled> {
    if cfg.parallel.threads <= 1 {
        and_sequential(access, cfg, perm, opts)
    } else {
        and_parallel(access, cfg, perm, opts)
    }
}

/// The continuous-drain frontier of the parallel And: a lock-free MPMC
/// worklist ([`ConcurrentWorklist`]) drained by free-running workers with
/// **no per-epoch barrier, snapshot, or sort** — an updating worker pushes
/// woken neighbors straight back into the ring and any idle worker picks
/// them up immediately. The companion paper's asynchrony argument
/// (arXiv:1704.00386) makes this safe: τ reads may be stale, but `U` is
/// monotone and lower-bounded, so every schedule descends to the same
/// fixed point; the round only ends when [`QuiescenceCounter`] proves every
/// issued item (seeds and wakes alike) was retired.
///
/// Ids are seeded in permutation-rank order, so the first round starts in
/// the requested processing order; after that the drain order is whatever
/// the interleaving produces (exactness never depends on it — the
/// convergence protocol's certification round recomputes everything).
struct DrainFrontier {
    worklist: ConcurrentWorklist,
    quiesce: QuiescenceCounter,
}

impl DrainFrontier {
    /// Builds the worklist with every r-clique scheduled (line 4 of
    /// Algorithm 3: all start awake).
    fn seeded(perm: &[u32]) -> Self {
        let f = DrainFrontier {
            worklist: ConcurrentWorklist::new(perm.len()),
            quiesce: QuiescenceCounter::new(),
        };
        f.reschedule_all(perm);
        f
    }

    /// Issues then publishes `id`, rolling the issue back when the dedup
    /// bit says it is already scheduled (issue-before-publish keeps the
    /// quiescence invariant `retired ≤ issued` exact).
    #[inline]
    fn issue_push(&self, id: u32) {
        self.quiesce.issue(1);
        if !self.worklist.push(id) {
            self.quiesce.retire(1);
        }
    }

    /// Schedules every r-clique again (the certification round). Runs
    /// between rounds, when the drain is quiescent: the ring is empty and
    /// every dedup bit is clear, so each push publishes.
    fn reschedule_all(&self, perm: &[u32]) {
        for &i in perm {
            self.issue_push(i);
        }
    }
}

/// Single-threaded counterpart of [`DrainFrontier`]: the same dedup-on-
/// insert worklist, swept in epochs (snapshot, sort by permutation rank,
/// process) with a plain bool membership array and a plain `Vec`
/// accumulator. Wake pushes are the hottest frontier operation (one per
/// container member per update), so the sequential driver must not pay
/// test-and-set atomics for them.
struct SeqFrontier {
    queued: Vec<bool>,
    next: Vec<u32>,
    rank: Vec<u32>,
    snapshot: Vec<u32>,
}

impl SeqFrontier {
    fn seeded(perm: &[u32]) -> Self {
        let n = perm.len();
        let mut rank = vec![0u32; n];
        for (k, &i) in perm.iter().enumerate() {
            rank[i as usize] = k as u32;
        }
        let mut f = SeqFrontier {
            queued: vec![false; n],
            next: Vec::with_capacity(n),
            rank,
            snapshot: Vec::with_capacity(n),
        };
        f.reschedule_all(perm);
        f
    }

    #[inline]
    fn push(&mut self, id: usize) {
        if !self.queued[id] {
            self.queued[id] = true;
            self.next.push(id as u32);
        }
    }

    /// Swaps the accumulated worklist into the sweep snapshot, ordered by
    /// permutation rank. Membership flags stay set until `unmark`.
    fn begin_sweep(&mut self) {
        std::mem::swap(&mut self.snapshot, &mut self.next);
        self.next.clear();
        let rank = &self.rank;
        self.snapshot.sort_unstable_by_key(|&i| rank[i as usize]);
    }

    fn reschedule_all(&mut self, perm: &[u32]) {
        for &i in perm {
            self.push(i as usize);
        }
    }
}

fn and_sequential<A: SweepAccess>(
    access: &A,
    cfg: &LocalConfig,
    perm: &[u32],
    opts: AndOptions<'_>,
) -> Result<ConvergenceResult, Cancelled> {
    let AndOptions { notification, tau_init, cancel, mut observer } = opts;
    let mode = if notification { cfg.sweep_mode } else { SweepMode::FullScan };
    let armed = cancel.is_armed();
    let n = access.len();
    let mut tau = tau_init.unwrap_or_else(|| access.initial());
    let mut buf = HBuffer::new();

    let mut frontier =
        if mode == SweepMode::Frontier { Some(SeqFrontier::seeded(perm)) } else { None };
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
        if armed {
            cancel.check("and sweep")?;
        }
        let mut updates = 0usize;
        let mut processed = 0usize;
        match &mut frontier {
            Some(f) => {
                f.begin_sweep();
                for idx in 0..f.snapshot.len() {
                    let i = f.snapshot[idx] as usize;
                    // Unmark before recomputing: a same-sweep neighbor
                    // update re-schedules us (the paper's line 17).
                    f.queued[i] = false;
                    processed += 1;
                    let old = tau[i];
                    let new =
                        access.recompute(i, old, |o| tau[o], &mut buf, cfg.preserve_check).min(old);
                    if new != old {
                        debug_assert!(new < old);
                        tau[i] = new;
                        updates += 1;
                        let SeqFrontier { queued, next, .. } = &mut *f;
                        access.wake(i, |o| {
                            if !queued[o] {
                                queued[o] = true;
                                next.push(o as u32);
                            }
                        });
                    }
                }
            }
            None => {
                for &iu in perm {
                    let i = iu as usize;
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
                    let new =
                        access.recompute(i, old, |o| tau[o], &mut buf, cfg.preserve_check).min(old);
                    if new != old {
                        debug_assert!(new < old);
                        tau[i] = new;
                        updates += 1;
                        if mode == SweepMode::FlagScan {
                            access.wake(i, |o| active[o] = true);
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
            // With notifications, a zero-update sweep may simply mean
            // "nobody was awake"; certify with one full sweep.
            if processed < n {
                match &mut frontier {
                    Some(f) => f.reschedule_all(perm),
                    None => active.iter_mut().for_each(|a| *a = true),
                }
                continue;
            }
            converged = true;
            break;
        }
        if cfg.stable_enough(updates, n) {
            break; // stability stopping rule: good enough, not exact
        }
        if let Some(cap) = cfg.max_iterations {
            if sweeps >= cap {
                break;
            }
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

fn and_parallel<A: SweepAccess>(
    access: &A,
    cfg: &LocalConfig,
    perm: &[u32],
    opts: AndOptions<'_>,
) -> Result<ConvergenceResult, Cancelled> {
    let AndOptions { notification, tau_init, cancel, mut observer } = opts;
    let mode = if notification { cfg.sweep_mode } else { SweepMode::FullScan };
    let cancel = &cancel;
    let armed = cancel.is_armed();
    // First cancellation observed inside a frontier drain; the observer
    // also raises `abort` so every free-running peer exits its pop loop.
    let cancel_info: Mutex<Option<Cancelled>> = Mutex::new(None);
    let n = access.len();
    let tau = AtomicU32Vec::from_vec(tau_init.unwrap_or_else(|| access.initial()));

    let frontier =
        if mode == SweepMode::Frontier { Some(DrainFrontier::seeded(perm)) } else { None };
    // Wake flags, FlagScan only; Frontier/FullScan never touch them.
    let active = AtomicBitset::new(if mode == SweepMode::FlagScan { n } else { 0 }, true);

    let mut scheduler = SchedulerStats::default();
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
        if armed {
            cancel.check("and sweep")?;
        }
        let updates = AtomicUsize::new(0);
        let processed = AtomicUsize::new(0);
        let skipped = AtomicU64::new(0);
        let tau_ref = &tau;
        let updates_ref = &updates;
        let processed_ref = &processed;

        // The frontier path is a barrier-free continuous drain; the scan
        // paths hand out chunks through the shared scheduler, so the
        // dynamic-vs-static policy ablation applies to them unchanged.
        let sweep_stats = match &frontier {
            Some(f) => {
                let worklist = &f.worklist;
                let quiesce = &f.quiesce;
                let abort = AtomicBool::new(false);
                let abort_ref = &abort;
                let cancel_info_ref = &cancel_info;
                let threads = cfg.parallel.threads.max(1);
                let mut per_worker = vec![0usize; threads];
                std::thread::scope(|s| {
                    let handles: Vec<_> = (0..threads)
                        .map(|_| {
                            s.spawn(move || {
                                let mut buf = HBuffer::new();
                                let mut claims = 0usize;
                                let mut local_updates = 0usize;
                                let mut local_processed = 0usize;
                                let mut idle = 0u32;
                                let mut since_check = 0u32;
                                loop {
                                    // Quiescence cannot be reached once a
                                    // peer aborts with unretired items, so
                                    // the abort flag is the drain's second
                                    // exit — checked every iteration,
                                    // including the idle spin (which loops
                                    // back here via `continue`).
                                    if armed && abort_ref.load(Ordering::Relaxed) {
                                        break;
                                    }
                                    let Some(iu) = worklist.pop() else {
                                        // Empty is not done: a peer may be
                                        // mid-item about to wake neighbors.
                                        // Only quiescence (all issued work
                                        // retired) ends the round.
                                        if quiesce.quiescent() {
                                            break;
                                        }
                                        idle += 1;
                                        if idle > 4 {
                                            // Oversubscribed hosts: give
                                            // the worker holding the tail
                                            // of the drain the core.
                                            std::thread::yield_now();
                                        } else {
                                            std::hint::spin_loop();
                                        }
                                        continue;
                                    };
                                    idle = 0;
                                    claims += 1;
                                    since_check += 1;
                                    if armed && since_check >= AND_CANCEL_POP_BATCH {
                                        since_check = 0;
                                        if let Err(c) = cancel.check("and frontier") {
                                            let mut slot =
                                                cancel_info_ref.lock().expect("cancel slot");
                                            if slot.is_none() {
                                                *slot = Some(c);
                                            }
                                            drop(slot);
                                            abort_ref.store(true, Ordering::Relaxed);
                                            // The popped item is still
                                            // processed below — a worker
                                            // never abandons a held item,
                                            // bounding overshoot to the
                                            // pop batch plus this one.
                                        }
                                    }
                                    let i = iu as usize;
                                    // Unmark before recomputing: a
                                    // concurrent neighbor update re-issues
                                    // us (the paper's line 17).
                                    worklist.unmark(iu);
                                    local_processed += 1;
                                    let old = tau_ref.get(i);
                                    let new = access
                                        .recompute(
                                            i,
                                            old,
                                            |o| tau_ref.get(o),
                                            &mut buf,
                                            cfg.preserve_check,
                                        )
                                        .min(old);
                                    if new != old {
                                        tau_ref.set(i, new);
                                        local_updates += 1;
                                        access.wake(i, |o| f.issue_push(o as u32));
                                    }
                                    // Retire only after the item's own
                                    // issues are published.
                                    quiesce.retire(1);
                                }
                                (claims, local_updates, local_processed)
                            })
                        })
                        .collect();
                    for (w, h) in handles.into_iter().enumerate() {
                        let (claims, lu, lp) = h.join().expect("And drain worker panicked");
                        per_worker[w] = claims;
                        updates_ref.fetch_add(lu, Ordering::Relaxed);
                        processed_ref.fetch_add(lp, Ordering::Relaxed);
                    }
                });
                SchedulerStats::from_chunks(per_worker)
            }
            None => {
                let active_ref = &active;
                let skipped_ref = &skipped;
                parallel_for_chunks_with(n, cfg.parallel, HBuffer::new, |buf, range| {
                    let mut local_updates = 0usize;
                    let mut local_processed = 0usize;
                    let mut local_skipped = 0u64;
                    for k in range {
                        let i = perm[k] as usize;
                        if mode == SweepMode::FlagScan && !active_ref.get(i) {
                            local_skipped += 1;
                            continue;
                        }
                        local_processed += 1;
                        if mode == SweepMode::FlagScan {
                            active_ref.clear(i);
                        }
                        let old = tau_ref.get(i);
                        let new = access
                            .recompute(i, old, |o| tau_ref.get(o), buf, cfg.preserve_check)
                            .min(old);
                        if new != old {
                            tau_ref.set(i, new);
                            local_updates += 1;
                            if mode == SweepMode::FlagScan {
                                access.wake(i, |o| {
                                    active_ref.set(o);
                                });
                            }
                        }
                    }
                    if local_updates > 0 {
                        updates_ref.fetch_add(local_updates, Ordering::Relaxed);
                    }
                    if local_processed > 0 {
                        processed_ref.fetch_add(local_processed, Ordering::Relaxed);
                    }
                    if local_skipped > 0 {
                        skipped_ref.fetch_add(local_skipped, Ordering::Relaxed);
                    }
                })
            }
        };

        if let Some(c) = cancel_info.lock().expect("cancel slot").take() {
            return Err(c);
        }
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
            // Races (or sleeping cliques) could hide pending work: certify
            // the fixed point with a full sweep before declaring victory.
            if p < n {
                match &frontier {
                    Some(f) => f.reschedule_all(perm),
                    // Only FlagScan can under-process a sweep (FullScan
                    // always visits all n, so `p < n` is unreachable there
                    // and the empty bitset is never touched).
                    None => {
                        for i in 0..n {
                            active.set(i);
                        }
                    }
                }
                continue;
            }
            converged = true;
            break;
        }
        if cfg.stable_enough(u, n) {
            break; // stability stopping rule: good enough, not exact
        }
        if let Some(cap) = cfg.max_iterations {
            if sweeps >= cap {
                break;
            }
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
    fn parallel_frontier_reports_chunk_telemetry() {
        let g = hdsd_datasets::holme_kim(400, 5, 0.5, 3);
        let sp = CoreSpace::new(&g);
        let cfg = LocalConfig::with_threads(4);
        let r = and(&sp, &cfg, &Order::Natural);
        assert_eq!(r.scheduler.chunks_per_worker.len(), 4);
        assert!(r.scheduler.total_chunks() > 0);
        assert_eq!(r.scheduler.items_processed, r.total_processed());
    }

    #[test]
    fn and_on_34_nucleus() {
        let g = hdsd_datasets::planted_partition(&[12, 12, 12], 0.8, 0.05, 5);
        let sp = Nucleus34Space::precomputed(&g);
        let exact = peel(&sp).kappa;
        let r = and(&sp, &LocalConfig::sequential(), &Order::Natural);
        assert_eq!(r.tau, exact);
    }

    #[test]
    fn capped_and_still_upper_bounds_kappa() {
        let g = hdsd_datasets::erdos_renyi_gnm(120, 500, 9);
        let sp = CoreSpace::new(&g);
        let exact = peel(&sp).kappa;
        let r = and(&sp, &LocalConfig::sequential().max_iterations(1), &Order::Natural);
        for (i, (&a, &k)) in r.tau.iter().zip(&exact).enumerate() {
            assert!(a >= k, "τ[{i}]");
        }
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
        }
        // A flag raised mid-run stops the parallel frontier drain between
        // pop batches (stage is either the sweep boundary or the frontier,
        // depending on where the trip lands).
        let err =
            resume_under(&LocalConfig::with_threads(4), CancelToken::tripping_after_checks(2))
                .unwrap_err();
        assert!(
            err.stage == "and sweep" || err.stage == "and frontier",
            "unexpected stage {:?}",
            err.stage
        );
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
