//! The peeling baseline (the paper's Algorithm 1).
//!
//! [`peel`] is the exact, sequential, bucket-queue algorithm — the
//! generalization of Batagelj–Zaveršnik `O(|E|)` k-core peeling to any
//! (r, s) space. It is the ground truth every local algorithm is verified
//! against, and the baseline every benchmark compares with.
//!
//! Two engines serve it:
//!
//! * [`peel_flat`] / [`PeelEngine`] — the **flat engine**: the bucket queue
//!   runs directly over [`FlatContainers`] CSR slices. Degree bins, the
//!   position permutation (`u32`, half the cache traffic of the old
//!   `usize` arrays) and every container row are contiguous; the inner
//!   loop is monomorphized per container arity (`group == 2` — the truss
//!   space — unrolls to a two-others fast path), and dead containers are
//!   skipped by a members-already-peeled check on the flat row with no
//!   closure dispatch anywhere.
//! * [`peel_walk`] — the original container-walk form, kept as the
//!   ablation reference and the fallback for spaces with no cache.
//!
//! [`peel`] dispatches through the row rule every kernel shares (see
//! `space/rows.rs`): a space that already owns flat rows
//! ([`CliqueSpace::as_flat`], e.g. the engine-resident
//! [`CachedSpace`](crate::space::CachedSpace)) is peeled flat in place; a
//! space that prefers a cache gets one when it fits the default byte
//! budget; everything else walks.
//!
//! [`peel_parallel`] (over flat rows: [`PeelEngine::peel_opts`]) is the
//! **barrier-free drain**: the "partially parallel peeling" comparator of
//! the paper's Figure 1b, rebuilt without per-level barriers. Workers claim bucket
//! chunks from a shared atomic cursor ([`ChunkCursor`] for the fused
//! min-find + candidate scan, [`DrainQueue`] for the decrement drain) and
//! drain continuously: a follow-on item whose degree crosses the current
//! threshold is pushed by the unique worker whose CAS landed the
//! `k + 1 → k` crossing, so each item enters the queue exactly once and
//! workers never wait for a level to "finish" — a [`QuiescenceCounter`]
//! detects the true end of the cascade. Stale degree reads are harmless
//! by construction: κ doubles as the peeled mark, so a racing decrement
//! against an already-peeled item is discarded by the κ-check (the same
//! argument that makes the And iteration of the companion paper
//! barrier-tolerant). The contended tail (few alive items) finishes in a
//! sequential epilogue, and a single worker delegates to the bucket-queue
//! engine outright. Every published output is schedule-independent — κ,
//! the canonical `(κ, id)` order, and closed-form [`PeelStats`] — so the
//! result is **bit-identical** to [`peel_flat`] for every thread count,
//! seed, and interleaving (`tests/parallel_determinism.rs` proves it
//! under seeded schedule jitter); schedule-*dependent* telemetry is
//! quarantined in [`DrainStats`].

use hdsd_parallel::{
    AtomicBitset, ChunkCursor, DrainControl, DrainEvent, DrainQueue, ParallelConfig, PhaseGate,
    QuiescenceCounter, WorkerControl,
};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;

use crate::cancel::{CancelToken, Cancelled};
use crate::convergence::DEFAULT_CONTAINER_CACHE_BUDGET;
use crate::space::{resolve_rows, resolve_rows_or_build, CliqueSpace, FlatContainers};

/// Items processed between cancellation checks in the sequential bucket
/// queue — the "one chunk" the mid-peel overshoot bound is stated in.
pub const PEEL_CANCEL_CHUNK: usize = 1024;

/// A peel aborted by a tripped [`CancelToken`]: the trip itself plus how
/// many items had already been peeled, so tests can pin the overshoot to
/// at most one [`PEEL_CANCEL_CHUNK`] (sequential) or one claim chunk
/// (parallel drain) past the trip point.
#[derive(Clone, Debug)]
pub struct PeelCancelled {
    /// Why and where the token tripped.
    pub cancelled: Cancelled,
    /// Items fully peeled before the abort.
    pub processed: usize,
}

impl From<PeelCancelled> for String {
    fn from(p: PeelCancelled) -> String {
        p.cancelled.message()
    }
}

/// Deterministic work counters of one peeling run.
///
/// For the sequential engines these are exact and identical between the
/// walk and flat forms (same algorithm, same visit order) — the CI bench
/// gate pins them as a drift check. The barrier-free parallel drain
/// reports **bit-identical** values too: each counter has a closed form
/// that no schedule can perturb (`containers_scanned = Σ d_S`,
/// `dead_containers = Σ d_S − #containers`,
/// `bucket_moves = Σ d_S − Σ κ`). Schedule-*dependent* telemetry lives in
/// [`DrainStats`] instead, precisely so this struct can be compared
/// bit-for-bit across thread counts and seeds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeelStats {
    /// s-clique containers visited (Σ d_S over peeled r-cliques).
    pub containers_scanned: u64,
    /// Containers skipped because a member was already peeled.
    pub dead_containers: u64,
    /// Bucket-queue moves (one per successful degree decrement).
    pub bucket_moves: u64,
}

/// Schedule-dependent telemetry of one barrier-free drain run. These vary
/// across thread counts and seeds (that is their point — they describe the
/// schedule, not the decomposition), so they are kept out of [`PeelStats`]
/// and never take part in determinism comparisons.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Chunk claims (scan cursor + drain queue) across all workers.
    pub chunks_claimed: u64,
    /// Drained items that were pushed by a different worker.
    pub steals: u64,
    /// Failed degree-CAS attempts (contention retries on stale reads).
    pub stale_retries: u64,
    /// Items peeled by the sequential tail epilogue.
    pub epilogue_items: u64,
}

impl DrainStats {
    fn merge(&mut self, other: &DrainStats) {
        self.chunks_claimed += other.chunks_claimed;
        self.steals += other.steals;
        self.stale_retries += other.stale_retries;
        self.epilogue_items += other.epilogue_items;
    }
}

/// Output of a peeling run.
#[derive(Clone, Debug)]
pub struct PeelResult {
    /// Exact κ index per r-clique.
    pub kappa: Vec<u32>,
    /// r-clique ids in processing (non-decreasing κ) order.
    pub order: Vec<u32>,
    /// Maximum κ.
    pub max_kappa: u32,
    /// Deterministic work counters of the run.
    pub stats: PeelStats,
    /// Schedule telemetry of the parallel drain (`None` for the
    /// sequential engines).
    pub drain: Option<DrainStats>,
}

impl PeelResult {
    fn empty() -> PeelResult {
        PeelResult {
            kappa: Vec::new(),
            order: Vec::new(),
            max_kappa: 0,
            stats: PeelStats::default(),
            drain: None,
        }
    }
}

/// Exact sequential peeling over any clique space (Algorithm 1).
///
/// Dispatches to the fastest engine for the space: a resident flat cache
/// ([`CliqueSpace::as_flat`]) is peeled in place, a space that prefers a
/// cache within [`DEFAULT_CONTAINER_CACHE_BUDGET`] gets one built for the
/// run, and everything else falls back to [`peel_walk`]. All three paths
/// produce bit-identical results (κ, order, max κ — property-tested).
pub fn peel<S: CliqueSpace>(space: &S) -> PeelResult {
    match resolve_rows(space, Some(DEFAULT_CONTAINER_CACHE_BUDGET)) {
        Some(rows) => peel_flat(&rows),
        None => peel_walk(space),
    }
}

/// Exact sequential peeling over a flat container cache (the hot engine;
/// see [`PeelEngine`] for the reusable-buffer form).
pub fn peel_flat(flat: &FlatContainers) -> PeelResult {
    hdsd_telemetry::span!("peel.flat");
    PeelEngine::new().peel(flat)
}

/// Full control over one peel of flat rows ([`PeelEngine::peel_opts`]):
/// the thread team, the drain's schedule perturbation, and cooperative
/// cancellation. [`PeelOptions::new`] is what [`peel_parallel`] runs with.
#[derive(Clone, Debug)]
pub struct PeelOptions {
    /// Worker threads of the drain (only `threads` is read; claim chunks
    /// are fixed). A single thread, or an input at or below the epilogue
    /// floor, delegates to the sequential bucket queue.
    pub parallel: ParallelConfig,
    /// Seeded schedule jitter and failpoint hooks (the determinism
    /// harness's handle; the default perturbs nothing).
    pub control: DrainControl,
    /// Probed every [`PEEL_CANCEL_CHUNK`] items by the sequential queue
    /// and before each chunk claim by every drain worker, so a tripped
    /// token stops the team within one in-flight chunk per worker (the
    /// first observer poisons the phase gate; the rest unwind through the
    /// panic-containment exits).
    pub cancel: CancelToken,
}

impl PeelOptions {
    /// `parallel` with the natural schedule and a token that never trips.
    pub fn new(parallel: ParallelConfig) -> PeelOptions {
        PeelOptions { parallel, control: DrainControl::default(), cancel: CancelToken::none() }
    }
}

/// Reusable flat peeling engine: owns the bucket-queue scratch (degree
/// bins, position permutation) so repeated peels — engine startup over
/// several spaces, property harnesses, benches — pay one warm allocation
/// instead of five fresh arrays per run.
///
/// The inner loop is monomorphized per container arity: `group == 1`
/// (core), `2` (truss — the two-others fast path), `3` ((3,4) nucleus),
/// with a dynamic-width fallback for generic spaces.
#[derive(Default)]
pub struct PeelEngine {
    /// Current S-degrees (mutated by peeling).
    deg: Vec<u32>,
    /// First unprocessed position of each degree bucket.
    bucket_start: Vec<usize>,
    /// Position of each r-clique in the processing permutation.
    pos_of: Vec<u32>,
    /// The permutation itself (positions sorted by current degree).
    item_at: Vec<u32>,
    /// Bucket-fill cursor used during initialization.
    cursor: Vec<usize>,
}

impl PeelEngine {
    /// An engine with empty scratch (buffers grow on first use).
    pub fn new() -> PeelEngine {
        PeelEngine::default()
    }

    /// Peels `flat` exactly with the sequential bucket queue, reusing this
    /// engine's scratch buffers.
    pub fn peel(&mut self, flat: &FlatContainers) -> PeelResult {
        self.bucket_queue(flat, &CancelToken::none()).expect("an unarmed token never cancels")
    }

    /// The full-control peel: the barrier-free work-stealing drain over
    /// `flat` under `opts` (see the module docs for the design). κ and
    /// [`PeelStats`] are bit-identical to [`Self::peel`] for every thread
    /// count and schedule; the order is the canonical `(κ, id)` one (not
    /// the bucket queue's history) and [`PeelResult::drain`] is always
    /// reported. A single-thread run reuses this engine's scratch.
    pub fn peel_opts(
        &mut self,
        flat: &FlatContainers,
        opts: &PeelOptions,
    ) -> Result<PeelResult, PeelCancelled> {
        hdsd_telemetry::span!("peel.parallel");
        let result = match flat.group() {
            1 => drain_peel::<1>(self, flat, opts),
            2 => drain_peel::<2>(self, flat, opts),
            3 => drain_peel::<3>(self, flat, opts),
            _ => drain_peel::<0>(self, flat, opts),
        }?;
        if let Some(d) = &result.drain {
            hdsd_telemetry::counter_add!("peel_parallel_chunks_claimed_total", d.chunks_claimed);
            hdsd_telemetry::counter_add!("peel_parallel_steals_total", d.steals);
            hdsd_telemetry::counter_add!("peel_parallel_stale_retries_total", d.stale_retries);
            hdsd_telemetry::counter_add!("peel_parallel_epilogue_items_total", d.epilogue_items);
        }
        Ok(result)
    }

    /// The sequential bucket queue with a cancellation check every
    /// [`PEEL_CANCEL_CHUNK`] peeled items.
    fn bucket_queue(
        &mut self,
        flat: &FlatContainers,
        cancel: &CancelToken,
    ) -> Result<PeelResult, PeelCancelled> {
        match flat.group() {
            1 => self.run::<1>(flat, cancel),
            2 => self.run::<2>(flat, cancel),
            3 => self.run::<3>(flat, cancel),
            _ => self.run::<0>(flat, cancel), // 0 = dynamic width
        }
    }

    /// The bucket-queue peel with the container arity monomorphized
    /// (`G == 0` reads the width at runtime — the generic-space fallback).
    fn run<const G: usize>(
        &mut self,
        flat: &FlatContainers,
        cancel: &CancelToken,
    ) -> Result<PeelResult, PeelCancelled> {
        let n = flat.num_cliques();
        if n == 0 {
            return Ok(PeelResult::empty());
        }
        let armed = cancel.is_armed();
        debug_assert!(G == 0 || flat.group() == G, "arity dispatch mismatch");
        let group = if G > 0 { G } else { flat.group().max(1) };
        let mut stats = PeelStats::default();

        // τ₀ straight off the CSR offsets; degree bins by counting sort.
        self.deg.clear();
        self.deg.extend((0..n).map(|i| flat.degree(i)));
        let max_deg = self.deg.iter().copied().max().unwrap_or(0) as usize;
        self.bucket_start.clear();
        self.bucket_start.resize(max_deg + 2, 0);
        for &d in &self.deg {
            self.bucket_start[d as usize + 1] += 1;
        }
        for i in 0..=max_deg {
            self.bucket_start[i + 1] += self.bucket_start[i];
        }
        self.pos_of.clear();
        self.pos_of.resize(n, 0);
        self.item_at.clear();
        self.item_at.resize(n, 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.bucket_start);
        for v in 0..n {
            let p = self.cursor[self.deg[v] as usize];
            self.pos_of[v] = p as u32;
            self.item_at[p] = v as u32;
            self.cursor[self.deg[v] as usize] = p + 1;
        }

        let mut kappa = vec![0u32; n];
        let mut order = Vec::with_capacity(n);
        let mut max_kappa = 0u32;

        for i in 0..n {
            if armed && i % PEEL_CANCEL_CHUNK == 0 {
                if let Err(c) = cancel.check("peel drain") {
                    return Err(PeelCancelled { cancelled: c, processed: i });
                }
            }
            let v = self.item_at[i] as usize;
            let kv = self.deg[v];
            kappa[v] = kv;
            max_kappa = max_kappa.max(kv);
            order.push(v as u32);

            let row = flat.containers(v);
            stats.containers_scanned += (row.len() / group) as u64;
            for c in row.chunks_exact(group) {
                // Dead-container skip on the flat row: positions are
                // processed in order and alive items always sit past the
                // cursor, so `pos ≤ i` ⇔ the member is peeled and the
                // s-clique is gone.
                if c.iter().any(|&o| self.pos_of[o as usize] as usize <= i) {
                    stats.dead_containers += 1;
                    continue;
                }
                for &o in c {
                    let o = o as usize;
                    let d = self.deg[o];
                    if d > kv {
                        // Move o to the front of its bucket, then decrement.
                        let front = self.bucket_start[d as usize].max(i + 1);
                        let po = self.pos_of[o] as usize;
                        if po != front {
                            let other = self.item_at[front];
                            self.item_at[po] = other;
                            self.item_at[front] = o as u32;
                            self.pos_of[other as usize] = po as u32;
                            self.pos_of[o] = front as u32;
                        }
                        self.bucket_start[d as usize] = front + 1;
                        self.deg[o] = d - 1;
                        stats.bucket_moves += 1;
                    }
                }
            }
        }

        Ok(PeelResult { kappa, order, max_kappa, stats, drain: None })
    }
}

/// Exact sequential peeling through the space's container walk — the
/// pre-flat form, kept as the ablation reference (`BENCH_peel.json`'s
/// "walk" rows) and the fallback for spaces with no cache. Bit-identical
/// to [`peel_flat`] on the same space.
pub fn peel_walk<S: CliqueSpace>(space: &S) -> PeelResult {
    hdsd_telemetry::span!("peel.walk");
    let n = space.num_cliques();
    if n == 0 {
        return PeelResult::empty();
    }
    let mut deg = space.initial_degrees();
    let max_deg = deg.iter().copied().max().unwrap_or(0) as usize;
    let mut stats = PeelStats::default();

    // Bucket queue over degree values (positions sorted by current degree).
    let mut bucket_start = vec![0usize; max_deg + 2];
    for &d in &deg {
        bucket_start[d as usize + 1] += 1;
    }
    for i in 0..=max_deg {
        bucket_start[i + 1] += bucket_start[i];
    }
    let mut pos_of = vec![0usize; n];
    let mut item_at = vec![0usize; n];
    {
        let mut cursor = bucket_start.clone();
        for (v, &d) in deg.iter().enumerate() {
            pos_of[v] = cursor[d as usize];
            item_at[cursor[d as usize]] = v;
            cursor[d as usize] += 1;
        }
    }

    let mut processed = vec![false; n];
    let mut kappa = vec![0u32; n];
    let mut order = Vec::with_capacity(n);
    let mut max_kappa = 0u32;

    for i in 0..n {
        let v = item_at[i];
        processed[v] = true;
        let kv = deg[v];
        kappa[v] = kv;
        max_kappa = max_kappa.max(kv);
        order.push(v as u32);

        space.for_each_container(v, |others| {
            stats.containers_scanned += 1;
            // Algorithm 1: if any r-clique of this s-clique was already
            // processed, the s-clique is gone; skip.
            if others.iter().any(|&o| processed[o]) {
                stats.dead_containers += 1;
                return;
            }
            for &o in others {
                if deg[o] > kv {
                    // Move o to the front of its bucket, then decrement.
                    let d = deg[o] as usize;
                    let front = bucket_start[d].max(i + 1);
                    let po = pos_of[o];
                    if po != front {
                        let other_item = item_at[front];
                        item_at.swap(po, front);
                        pos_of[other_item] = po;
                        pos_of[o] = front;
                    }
                    bucket_start[d] = front + 1;
                    deg[o] -= 1;
                    stats.bucket_moves += 1;
                }
            }
        });
    }

    PeelResult { kappa, order, max_kappa, stats, drain: None }
}

/// Barrier-free parallel peeling over any clique space.
///
/// The drain engine runs over flat CSR rows: a space that already owns them
/// ([`CliqueSpace::as_flat`]) is peeled in place; any other space gets a
/// cache built for the run (flat rows are the prerequisite for chunked
/// claiming, so there is no walk-based parallel form — `peel_walk` remains
/// the sequential fallback and ablation baseline).
pub fn peel_parallel<S: CliqueSpace>(space: &S, cfg: ParallelConfig) -> PeelResult {
    let rows = resolve_rows_or_build(space, DEFAULT_CONTAINER_CACHE_BUDGET);
    PeelEngine::new()
        .peel_opts(&rows, &PeelOptions::new(cfg))
        .expect("an unarmed token never cancels")
}

/// Everything the drain workers share, borrowed across the single
/// `thread::scope` that spans the whole peel.
struct DrainShared<'a> {
    flat: &'a FlatContainers,
    /// Canonical container ids (empty for `group == 1`, where the single
    /// other member needs no kill arbitration).
    keys: &'a [u32],
    /// Exactly-once container-kill claims, indexed by canonical key.
    claimed: AtomicBitset,
    /// Current S-degrees (floored CAS decrements, relaxed).
    deg: Vec<AtomicU32>,
    /// κ per r-clique; `u32::MAX` = still alive. Doubles as the peeled
    /// check that makes stale degree reads harmless.
    kappa: Vec<AtomicU32>,
    /// The shared frontier: every r-clique is pushed exactly once.
    queue: DrainQueue,
    /// Issued/retired quiescence counting for drain-phase termination.
    quiesce: QuiescenceCounter,
    /// SCAN → DRAIN phase machine (leader = worker 0).
    gate: PhaseGate,
    /// Claim cursor for the fused min-find/collect scans.
    scan: ChunkCursor,
    /// Per-worker fused-scan results, merged by the leader.
    slots: Vec<Mutex<(u32, Vec<u32>)>>,
    /// Current peel threshold, published by the leader through the gate.
    threshold: AtomicU32,
    /// Raised by the leader when the peel is complete.
    done: AtomicBool,
    /// Request-scoped cancellation, probed before every chunk claim.
    cancel: &'a CancelToken,
    /// Cached [`CancelToken::is_armed`] so the common uncancellable path
    /// pays a single bool test per claim.
    cancel_armed: bool,
    /// First observed trip; the observer also poisons the gate so every
    /// other worker unwinds through the existing containment exits.
    first_cancel: Mutex<Option<Cancelled>>,
}

impl DrainShared<'_> {
    /// Worker-side cancellation probe, called before each chunk claim.
    /// On trip: records the first `Cancelled`, poisons the gate, returns
    /// true so the caller can exit. A claimed chunk is never abandoned —
    /// overshoot is bounded to one in-flight chunk per worker.
    fn cancel_tripped(&self) -> bool {
        if !self.cancel_armed {
            return false;
        }
        match self.cancel.check("peel drain") {
            Ok(()) => false,
            Err(c) => {
                let mut slot = self.first_cancel.lock().expect("cancel slot");
                if slot.is_none() {
                    *slot = Some(c);
                }
                drop(slot);
                self.gate.poison();
                true
            }
        }
    }
}

/// Alive-count floor below which the leader finishes sequentially: with
/// this little work left, claim traffic costs more than it buys.
fn epilogue_floor(n: usize) -> usize {
    (n / 8).clamp(32, 2048)
}

fn drain_peel<const G: usize>(
    engine: &mut PeelEngine,
    flat: &FlatContainers,
    opts: &PeelOptions,
) -> Result<PeelResult, PeelCancelled> {
    let PeelOptions { parallel: cfg, control: ctl, cancel } = opts;
    debug_assert!(G == 0 || flat.group() == G, "arity dispatch mismatch");
    let group = if G > 0 { G } else { flat.group().max(1) };
    let n = flat.num_cliques();
    if n == 0 {
        return Ok(PeelResult::empty());
    }
    let threads = cfg.threads.max(1).min(n);

    // A single worker gains nothing from the drain machinery, and for
    // inputs at or below the epilogue floor the drain would immediately
    // hand everything to the sequential tail anyway. The bucket-queue
    // engine is the optimal sequential algorithm, and every published
    // output — κ, the canonical (κ, id) order, the closed-form counters —
    // is schedule-independent, so delegating is bit-identical and faster.
    if threads == 1 || n <= epilogue_floor(n) {
        let mut r = engine.bucket_queue(flat, cancel)?;
        (r.order, r.max_kappa) = canonical_order(&r.kappa);
        r.drain = Some(DrainStats { epilogue_items: n as u64, ..DrainStats::default() });
        return Ok(r);
    }

    // Canonical container ids power the exactly-once kill claims. For
    // group == 1 (core) the container has a single other member, so the
    // only possible double-decrement targets an already-peeled item —
    // harmless by the κ-check — and no claim bitmap is needed at all.
    let keys: &[u32] = if group >= 2 { flat.container_keys() } else { &[] };
    let shared = DrainShared {
        flat,
        keys,
        claimed: AtomicBitset::new(keys.len(), false),
        deg: (0..n).map(|i| AtomicU32::new(flat.degree(i))).collect(),
        kappa: (0..n).map(|_| AtomicU32::new(u32::MAX)).collect(),
        queue: DrainQueue::new(n),
        quiesce: QuiescenceCounter::new(),
        gate: PhaseGate::new(threads),
        scan: ChunkCursor::new(n),
        slots: (0..threads).map(|_| Mutex::new((u32::MAX, Vec::new()))).collect(),
        threshold: AtomicU32::new(0),
        done: AtomicBool::new(false),
        cancel,
        cancel_armed: cancel.is_armed(),
        first_cancel: Mutex::new(None),
    };

    let mut drain = DrainStats::default();
    {
        let floor = epilogue_floor(n);
        let locals = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for w in 0..threads {
                let shared = &shared;
                let wctl = ctl.worker(w);
                handles.push(scope.spawn(move || {
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        drain_worker::<G>(shared, wctl, floor)
                    }));
                    if out.is_err() {
                        shared.gate.poison();
                    }
                    out
                }));
            }
            let mut locals = Vec::with_capacity(threads);
            let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
            for h in handles {
                match h.join().expect("drain worker join") {
                    Ok(local) => locals.push(local),
                    Err(payload) => panic = Some(payload),
                }
            }
            if let Some(payload) = panic {
                std::panic::resume_unwind(payload);
            }
            locals
        });
        for local in &locals {
            drain.merge(local);
        }
    }

    // A tripped token leaves the drain state partially peeled; report how
    // far it got (κ entries fixed) so callers can bound the overshoot.
    if let Some(c) = shared.first_cancel.lock().expect("cancel slot").take() {
        let processed =
            shared.kappa.iter().filter(|k| k.load(Ordering::Relaxed) != u32::MAX).count();
        return Err(PeelCancelled { cancelled: c, processed });
    }

    // Closed-form PeelStats: every counter of the sequential flat engine
    // is schedule-independent, so the parallel run reports bit-identical
    // values. Each r-clique's full row is scanned exactly once when it is
    // peeled (Σ d_S); each physical container is killed by exactly one
    // member and seen dead by the other `group` members
    // (dead = Σ d_S − #containers, with (group+1) · #containers = Σ d_S);
    // and each item is decremented from its initial degree to κ
    // (moves = Σ d_S − Σ κ).
    let kappa: Vec<u32> = shared.kappa.iter().map(|k| k.load(Ordering::Relaxed)).collect();
    debug_assert!(kappa.iter().all(|&k| k != u32::MAX), "drain left an item unpeeled");
    let scanned: u64 = (0..n).map(|i| flat.degree(i) as u64).sum();
    debug_assert_eq!(scanned % (group as u64 + 1), 0, "Σ d_S must be (group+1)·#containers");
    let kappa_sum: u64 = kappa.iter().map(|&k| k as u64).sum();
    let stats = PeelStats {
        containers_scanned: scanned,
        dead_containers: scanned - scanned / (group as u64 + 1),
        bucket_moves: scanned - kappa_sum,
    };

    let (order, max_kappa) = canonical_order(&kappa);
    Ok(PeelResult { kappa, order, max_kappa, stats, drain: Some(drain) })
}

/// Canonical order: ids counting-sorted by (κ, id) — deterministic under
/// every schedule and still non-decreasing in κ, which is all Theorem 4
/// consumers rely on. (The sequential engines keep their historical
/// bucket-queue order.)
fn canonical_order(kappa: &[u32]) -> (Vec<u32>, u32) {
    let max_kappa = kappa.iter().copied().max().unwrap_or(0);
    let mut counts = vec![0u32; max_kappa as usize + 2];
    for &k in kappa {
        counts[k as usize + 1] += 1;
    }
    for i in 0..=max_kappa as usize {
        counts[i + 1] += counts[i];
    }
    let mut order = vec![0u32; kappa.len()];
    for (v, &k) in kappa.iter().enumerate() {
        let slot = counts[k as usize];
        counts[k as usize] += 1;
        order[slot as usize] = v as u32;
    }
    (order, max_kappa)
}

/// One worker's life inside the drain scope. Worker 0 is the gate leader:
/// it merges scan results, advances the threshold, seeds the queue, and
/// decides when to finish the tail sequentially.
fn drain_worker<const G: usize>(
    shared: &DrainShared<'_>,
    mut ctl: WorkerControl,
    floor: usize,
) -> DrainStats {
    let w = ctl.id();
    let mut local = DrainStats::default();
    let scan_chunk = 256usize;
    let drain_chunk = 16usize;
    loop {
        // -- SCAN: fused min-find + candidate collect over claimed chunks.
        // A smaller minimum restarts the local collection, so each worker
        // hands the leader (local min, every alive item at that min).
        let mut my_min = u32::MAX;
        let mut my_cands: Vec<u32> = Vec::new();
        loop {
            if shared.cancel_tripped() {
                return local;
            }
            let chunk = ctl.chunk(scan_chunk);
            let Some(r) = shared.scan.claim(chunk) else { break };
            ctl.on(DrainEvent::Claim);
            local.chunks_claimed += 1;
            for i in r {
                if shared.kappa[i].load(Ordering::Relaxed) != u32::MAX {
                    continue;
                }
                let d = shared.deg[i].load(Ordering::Relaxed);
                if d < my_min {
                    my_min = d;
                    my_cands.clear();
                }
                if d == my_min {
                    my_cands.push(i as u32);
                }
            }
        }
        *shared.slots[w].lock().expect("scan slot") = (my_min, my_cands);

        // -- GATE: leader merges, advances the threshold, seeds the queue.
        ctl.on(DrainEvent::Phase);
        if w == 0 {
            if !shared.gate.await_followers() {
                break;
            }
            let mut k = u32::MAX;
            for slot in &shared.slots {
                k = k.min(slot.lock().expect("scan slot").0);
            }
            if k == u32::MAX {
                // No alive item anywhere: the peel is complete.
                shared.done.store(true, Ordering::Relaxed);
                shared.gate.advance();
                break;
            }
            let alive = shared.flat.num_cliques() - shared.queue.pushed();
            if alive <= floor {
                // Contended tail: cheaper to finish inline than to keep
                // paying claim traffic for a handful of items. Probe the
                // token first so a trip never pays for the whole tail.
                if shared.cancel_tripped() {
                    break;
                }
                local.epilogue_items += sequential_drain::<G>(shared) as u64;
                shared.done.store(true, Ordering::Relaxed);
                shared.gate.advance();
                break;
            }
            shared.threshold.store(k, Ordering::Relaxed);
            for slot in &shared.slots {
                let (m, cands) = &mut *slot.lock().expect("scan slot");
                if *m == k {
                    for &v in cands.iter() {
                        // Issue before publish: the quiescence counter must
                        // never observe retired == issued while this item
                        // is still invisible to it.
                        shared.quiesce.issue(1);
                        shared.queue.push(v, w as u32);
                    }
                }
                cands.clear();
            }
            shared.scan.reset();
            shared.gate.advance();
        } else if !shared.gate.arrive_and_wait() {
            break;
        }
        if shared.done.load(Ordering::Relaxed) {
            break;
        }
        let k = shared.threshold.load(Ordering::Relaxed);

        // -- DRAIN: continuous chunked claims, no barrier until quiescent.
        loop {
            if shared.cancel_tripped() {
                return local;
            }
            let chunk = ctl.chunk(drain_chunk);
            match shared.queue.claim(chunk) {
                Some(r) => {
                    ctl.on(DrainEvent::Claim);
                    local.chunks_claimed += 1;
                    for slot in r {
                        let Some((v, owner)) = shared.queue.read(slot, shared.gate.abort_flag())
                        else {
                            return local; // poisoned mid-publish
                        };
                        if owner as usize != w {
                            local.steals += 1;
                        }
                        ctl.on(DrainEvent::Item);
                        process_item::<G>(shared, v as usize, k, w as u32, &mut local, &mut ctl);
                        shared.quiesce.retire(1);
                    }
                }
                None => {
                    if shared.quiesce.quiescent() {
                        break;
                    }
                    if shared.gate.poisoned() {
                        return local;
                    }
                    std::thread::yield_now();
                }
            }
        }

        // -- GATE: regroup for the next threshold scan.
        ctl.on(DrainEvent::Phase);
        if w == 0 {
            if !shared.gate.await_followers() {
                break;
            }
            shared.gate.advance();
        } else if !shared.gate.arrive_and_wait() {
            break;
        }
    }
    local
}

/// Peels `v` at threshold `k`: fixes κ, then kills each of `v`'s still-live
/// containers exactly once (canonical-key claim for `group ≥ 2`) and
/// applies floored CAS decrements to the surviving members. The unique CAS
/// that lands a `k+1 → k` crossing owns that member's single push.
#[inline]
fn process_item<const G: usize>(
    shared: &DrainShared<'_>,
    v: usize,
    k: u32,
    w: u32,
    local: &mut DrainStats,
    ctl: &mut WorkerControl,
) {
    let group = if G > 0 { G } else { shared.flat.group().max(1) };
    shared.kappa[v].store(k, Ordering::Relaxed);
    let base = shared.flat.container_units(v).start;
    let row = shared.flat.containers(v);
    for (ci, c) in row.chunks_exact(group).enumerate() {
        if G != 1 {
            // Exactly-once kill: all group+1 member rows alias this
            // container to one canonical key; the bitmap's first setter
            // owns the kill, everyone else sees it dead. Without this,
            // two same-threshold members racing could decrement a third
            // member twice (or not at all) and corrupt its κ.
            if shared.claimed.set(shared.keys[base + ci] as usize) {
                continue;
            }
        }
        for &o in c {
            let o = o as usize;
            if shared.kappa[o].load(Ordering::Relaxed) != u32::MAX {
                continue; // peeled: κ fixed, stale decrement would be lost anyway
            }
            // Floored CAS: never below the current threshold. A stale
            // `cur` read just retries; the floor and the κ-check above
            // are what make every stale read harmless.
            let mut cur = shared.deg[o].load(Ordering::Relaxed);
            while cur > k {
                match shared.deg[o].compare_exchange_weak(
                    cur,
                    cur - 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        if cur == k + 1 {
                            ctl.on(DrainEvent::Push);
                            shared.quiesce.issue(1);
                            shared.queue.push(o as u32, w);
                        }
                        break;
                    }
                    Err(now) => {
                        local.stale_retries += 1;
                        cur = now;
                    }
                }
            }
        }
    }
}

/// Sequentially peels every still-alive item in `shared`, in threshold
/// order, with a local FIFO in place of the shared queue (no claim
/// traffic) but the same degree/κ/claim state — the identical algorithm,
/// so the handoff from any parallel prefix is seamless and the result is
/// the proof target every schedule must match. Returns items peeled here.
fn sequential_drain<const G: usize>(shared: &DrainShared<'_>) -> usize {
    let n = shared.flat.num_cliques();
    let mut peeled = 0usize;
    let mut fifo: Vec<u32> = Vec::new();
    loop {
        // Fused scan: minimum alive degree and its candidates.
        let mut k = u32::MAX;
        fifo.clear();
        for i in 0..n {
            if shared.kappa[i].load(Ordering::Relaxed) != u32::MAX {
                continue;
            }
            let d = shared.deg[i].load(Ordering::Relaxed);
            if d < k {
                k = d;
                fifo.clear();
            }
            if d == k {
                fifo.push(i as u32);
            }
        }
        if k == u32::MAX {
            return peeled;
        }
        // Drain the threshold: crossings append to the same FIFO.
        let mut at = 0usize;
        while at < fifo.len() {
            let v = fifo[at] as usize;
            at += 1;
            shared.kappa[v].store(k, Ordering::Relaxed);
            peeled += 1;
            let group = if G > 0 { G } else { shared.flat.group().max(1) };
            let base = shared.flat.container_units(v).start;
            let row = shared.flat.containers(v);
            for (ci, c) in row.chunks_exact(group).enumerate() {
                if G != 1 && shared.claimed.set(shared.keys[base + ci] as usize) {
                    continue;
                }
                for &o in c {
                    let o = o as usize;
                    if shared.kappa[o].load(Ordering::Relaxed) != u32::MAX {
                        continue;
                    }
                    let d = shared.deg[o].load(Ordering::Relaxed);
                    if d > k {
                        shared.deg[o].store(d - 1, Ordering::Relaxed);
                        if d == k + 1 {
                            fifo.push(o as u32);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{CachedSpace, CoreSpace, GenericSpace, Nucleus34Space, TrussSpace};
    use hdsd_graph::graph_from_edges;

    fn complete(n: u32) -> hdsd_graph::CsrGraph {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                edges.push((u, v));
            }
        }
        graph_from_edges(edges)
    }

    /// The paper's Figure 2a graph: three nested cores.
    /// A triangle-rich 3-core (clique-ish), a 2-core ring, a 1-core tail.
    fn paper_core_graph() -> hdsd_graph::CsrGraph {
        // 3-core: K4 on {0,1,2,3}; 2-core: cycle {4,5,6} attached to 0;
        // 1-core: path 7-8 hanging off 4.
        graph_from_edges([
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3), // K4
            (4, 5),
            (5, 6),
            (6, 4),
            (0, 4), // triangle + bridge
            (4, 7),
            (7, 8), // tail
        ])
    }

    #[test]
    fn core_peeling_on_nested_graph() {
        let g = paper_core_graph();
        let sp = CoreSpace::new(&g);
        let r = peel(&sp);
        assert_eq!(&r.kappa[0..4], &[3, 3, 3, 3]);
        assert_eq!(&r.kappa[4..7], &[2, 2, 2]);
        assert_eq!(&r.kappa[7..9], &[1, 1]);
        assert_eq!(r.max_kappa, 3);
    }

    #[test]
    fn order_is_nondecreasing_kappa() {
        let g = paper_core_graph();
        let sp = CoreSpace::new(&g);
        let r = peel(&sp);
        let ks: Vec<u32> = r.order.iter().map(|&i| r.kappa[i as usize]).collect();
        assert!(ks.windows(2).all(|w| w[0] <= w[1]), "order {ks:?}");
    }

    #[test]
    fn truss_peeling_on_complete_graphs() {
        for n in 3..8u32 {
            let g = complete(n);
            let sp = TrussSpace::precomputed(&g);
            let r = peel(&sp);
            // Every edge of K_n is in exactly n−2 triangles and the whole
            // graph is the maximal truss: κ3 = n−2 everywhere.
            assert!(r.kappa.iter().all(|&k| k == n - 2), "K{n}: {:?}", r.kappa);
        }
    }

    #[test]
    fn nucleus34_peeling_on_complete_graphs() {
        for n in 4..8u32 {
            let g = complete(n);
            let sp = Nucleus34Space::precomputed(&g);
            let r = peel(&sp);
            // Every triangle of K_n is in n−3 4-cliques.
            assert!(r.kappa.iter().all(|&k| k == n - 3), "K{n}: {:?}", r.kappa);
        }
    }

    #[test]
    fn truss_peeling_matches_paper_figure3() {
        // Paper Figure 3a: K4 on {a,b,c,d} plus K4 on {c,d,e,f} sharing the
        // edge cd, plus pendant structure g,h. Truss numbers: edges inside
        // each K4 get 2; with the h vertex attached to e,f with one triangle
        // those edges get 1; pendant edges 0.
        // We reproduce the left graph: a=0,b=1,c=2,d=3,e=4,f=5,g=6,h=7.
        let g = graph_from_edges([
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3), // K4 abcd
            (2, 4),
            (2, 5),
            (3, 4),
            (3, 5),
            (4, 5), // K4 cdef (via cd)
            (4, 6), // pendant g on e
            (4, 7),
            (5, 7), // h triangle with e,f
        ]);
        let sp = TrussSpace::precomputed(&g);
        let r = peel(&sp);
        let k_of = |u: u32, v: u32| r.kappa[g.edge_id(u, v).unwrap() as usize];
        // Edges of K4 abcd are each in 2 triangles within the K4.
        assert_eq!(k_of(0, 1), 2);
        assert_eq!(k_of(2, 3), 2);
        assert_eq!(k_of(4, 5), 2);
        // Pendant edge (4,6): no triangles.
        assert_eq!(k_of(4, 6), 0);
        // h's edges (4,7),(5,7): one triangle {4,5,7}.
        assert_eq!(k_of(4, 7), 1);
        assert_eq!(k_of(5, 7), 1);
    }

    #[test]
    fn generic_matches_specialized_spaces() {
        let g = graph_from_edges([
            (0, 1),
            (0, 2),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 2),
            (1, 3),
            (0, 4),
            (1, 4),
        ]);
        // (1,2)
        let gen12 = GenericSpace::new(&g, 1, 2);
        let core = CoreSpace::new(&g);
        assert_eq!(peel(&gen12).kappa, peel(&core).kappa);
        // (2,3): generic edge ids are lexicographic like CSR edge ids.
        let gen23 = GenericSpace::new(&g, 2, 3);
        let truss = TrussSpace::precomputed(&g);
        let a = peel(&gen23).kappa;
        let b = peel(&truss).kappa;
        // Generic r-cliques for r=2 enumerate in the same (u,v) lexicographic
        // order as CSR edge ids, so results align index-by-index.
        assert_eq!(a, b);
    }

    /// The flat engine is bit-identical to the walk on every space —
    /// κ, order, max κ, and the deterministic work counters.
    #[test]
    fn flat_engine_is_bit_identical_to_walk() {
        let g = hdsd_datasets::holme_kim(120, 4, 0.5, 3);
        let truss = TrussSpace::precomputed(&g);
        let nuc = Nucleus34Space::precomputed(&g);
        let gen13 = GenericSpace::new(&g, 1, 3);
        // group = binom(4,2) − 1 = 5: beyond every monomorphized arity, so
        // this hits the width-at-runtime fallback (`run::<0>`).
        let gen24 = GenericSpace::new(&g, 2, 4);
        let core = CoreSpace::new(&g);

        let mut engine = PeelEngine::new();
        for (walk, flat) in [
            (peel_walk(&truss), FlatContainers::build(&truss)),
            (peel_walk(&nuc), FlatContainers::build(&nuc)),
            (peel_walk(&gen13), FlatContainers::build(&gen13)),
            (peel_walk(&gen24), FlatContainers::build(&gen24)),
            (peel_walk(&core), FlatContainers::build(&core)),
        ] {
            // Both the one-shot form and the engine (scratch reused across
            // differently-sized spaces) must agree with the walk.
            for r in [peel_flat(&flat), engine.peel(&flat)] {
                assert_eq!(r.kappa, walk.kappa);
                assert_eq!(r.order, walk.order);
                assert_eq!(r.max_kappa, walk.max_kappa);
                assert_eq!(r.stats, walk.stats);
            }
        }
    }

    #[test]
    fn peel_dispatch_uses_the_resident_flat_rows() {
        let g = paper_core_graph();
        let truss = TrussSpace::precomputed(&g);
        let cached = CachedSpace::build(&truss);
        // CachedSpace advertises its rows; peel must take the flat path and
        // agree with every other engine.
        let via_cached = peel(&cached);
        let via_space = peel(&truss);
        let via_walk = peel_walk(&truss);
        assert_eq!(via_cached.kappa, via_walk.kappa);
        assert_eq!(via_space.kappa, via_walk.kappa);
        assert_eq!(via_cached.order, via_walk.order);
        assert_eq!(via_cached.stats, via_walk.stats);
    }

    #[test]
    fn stats_count_real_work() {
        let g = paper_core_graph();
        let sp = CoreSpace::new(&g);
        let r = peel(&sp);
        // Every container incidence is visited exactly once: Σ d_S = 2|E|.
        assert_eq!(r.stats.containers_scanned, 2 * g.num_edges() as u64);
        assert!(r.stats.dead_containers > 0);
        assert!(r.stats.bucket_moves > 0);
        // Dead + decremented-or-at-floor partition the incidences.
        assert!(r.stats.dead_containers < r.stats.containers_scanned);
    }

    #[test]
    fn parallel_peel_matches_sequential() {
        let g = paper_core_graph();
        let sp = CoreSpace::new(&g);
        let seq = peel(&sp);
        for threads in [1, 2, 4] {
            let par = peel_parallel(&sp, ParallelConfig::with_threads(threads).chunk(2));
            assert_eq!(par.kappa, seq.kappa, "threads={threads}");
            assert_eq!(par.stats, seq.stats, "threads={threads}");
            assert!(par.drain.is_some(), "parallel runs report drain telemetry");
        }
        let tsp = TrussSpace::precomputed(&g);
        let seq_t = peel(&tsp);
        let par_t = peel_parallel(&tsp, ParallelConfig::with_threads(3).chunk(1));
        assert_eq!(par_t.kappa, seq_t.kappa);
        assert_eq!(par_t.stats, seq_t.stats);
        let flat = FlatContainers::build(&tsp);
        let par_flat = PeelEngine::new()
            .peel_opts(&flat, &PeelOptions::new(ParallelConfig::with_threads(3).chunk(1)))
            .expect("unarmed");
        assert_eq!(par_flat.kappa, seq_t.kappa);
    }

    #[test]
    fn parallel_counters_are_deterministic_across_thread_counts() {
        // Large enough that the drain runs real parallel phases before the
        // epilogue floor kicks in (floor = n/8 clamped to [32, 2048]).
        let g = hdsd_datasets::holme_kim(600, 4, 0.5, 9);
        let sp = TrussSpace::precomputed(&g);
        let seq = peel(&sp);
        let one = peel_parallel(&sp, ParallelConfig::with_threads(1).chunk(8));
        assert_eq!(one.kappa, seq.kappa);
        assert_eq!(one.stats, seq.stats, "closed-form stats must match the bucket queue");
        for threads in [2, 4] {
            let par = peel_parallel(&sp, ParallelConfig::with_threads(threads).chunk(8));
            assert_eq!(par.kappa, one.kappa);
            assert_eq!(par.order, one.order, "canonical order is schedule-independent");
            assert_eq!(par.stats, one.stats, "threads={threads}");
        }
    }

    #[test]
    fn parallel_order_is_canonical_by_kappa_then_id() {
        let g = hdsd_datasets::holme_kim(300, 4, 0.5, 11);
        let sp = TrussSpace::precomputed(&g);
        let par = peel_parallel(&sp, ParallelConfig::with_threads(4).chunk(8));
        assert_eq!(par.order.len(), par.kappa.len());
        for w in par.order.windows(2) {
            let (a, b) = (w[0] as usize, w[1] as usize);
            let ka = par.kappa[a];
            let kb = par.kappa[b];
            assert!(ka < kb || (ka == kb && w[0] < w[1]), "order must sort by (κ, id)");
        }
    }

    #[test]
    fn parallel_worker_panic_is_contained_and_propagated() {
        use hdsd_parallel::{DrainHooks, ScheduleJitter};
        let g = hdsd_datasets::holme_kim(600, 4, 0.5, 13);
        let sp = TrussSpace::precomputed(&g);
        let flat = FlatContainers::build(&sp);
        let cfg = ParallelConfig::with_threads(4).chunk(4);
        let control = DrainControl {
            jitter: Some(ScheduleJitter::new(1)),
            hooks: DrainHooks::with(|worker, event| {
                if worker == 1 && event == DrainEvent::Item {
                    panic!("injected worker poison");
                }
            }),
        };
        let opts = PeelOptions { control, ..PeelOptions::new(cfg) };
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            PeelEngine::new().peel_opts(&flat, &opts)
        }));
        let err = out.expect_err("the injected panic must propagate to the caller");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("injected worker poison"), "panic payload survives: {msg:?}");
        // The team must not deadlock or corrupt later runs: a clean peel on
        // fresh state still matches sequential.
        let fresh = FlatContainers::build(&sp);
        let par = PeelEngine::new().peel_opts(&fresh, &PeelOptions::new(cfg)).expect("unarmed");
        assert_eq!(par.kappa, peel(&sp).kappa);
    }

    #[test]
    fn empty_space() {
        let g = graph_from_edges([]);
        let sp = CoreSpace::new(&g);
        let r = peel(&sp);
        assert!(r.kappa.is_empty());
        assert_eq!(r.max_kappa, 0);
        assert_eq!(r.stats, PeelStats::default());
        let flat = FlatContainers::build(&sp);
        assert!(peel_flat(&flat).kappa.is_empty());
    }

    #[test]
    fn isolated_vertices_get_zero() {
        let g = hdsd_graph::GraphBuilder::new().with_num_vertices(5).edges([(0, 1)]).build();
        let sp = CoreSpace::new(&g);
        let r = peel(&sp);
        assert_eq!(r.kappa, vec![1, 1, 0, 0, 0]);
        assert_eq!(peel_flat(&FlatContainers::build(&sp)).kappa, r.kappa);
    }

    #[test]
    fn sequential_cancel_overshoot_is_exactly_one_chunk() {
        // 3000 items, checks at i = 0, 1024, 2048: a token tripping on its
        // third check stops with exactly (3-1)·PEEL_CANCEL_CHUNK processed.
        let g = hdsd_datasets::holme_kim(3000, 4, 0.5, 7);
        let sp = CoreSpace::new(&g);
        let flat = FlatContainers::build(&sp);
        let under =
            |cancel| PeelOptions { cancel, ..PeelOptions::new(ParallelConfig::sequential()) };
        let err = PeelEngine::new()
            .peel_opts(&flat, &under(CancelToken::tripping_after_checks(3)))
            .unwrap_err();
        assert_eq!(err.processed, 2 * PEEL_CANCEL_CHUNK);
        assert_eq!(err.cancelled.stage, "peel drain");
        // An expired deadline trips on the very first check: zero processed,
        // and the wire message keeps the pinned shape.
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let err = PeelEngine::new()
            .peel_opts(&flat, &under(CancelToken::with_deadline(Some(past))))
            .unwrap_err();
        assert_eq!(err.processed, 0);
        assert_eq!(String::from(err), "deadline exceeded (peel drain)");
        // A generous token changes nothing about the result.
        let far = std::time::Instant::now() + std::time::Duration::from_secs(3600);
        let ok = PeelEngine::new()
            .peel_opts(&flat, &under(CancelToken::with_deadline(Some(far))))
            .expect("generous deadline");
        assert_eq!(ok.kappa, peel(&sp).kappa);
    }

    #[test]
    fn parallel_cancel_aborts_with_partial_progress() {
        let g = hdsd_datasets::holme_kim(3000, 4, 0.5, 19);
        let sp = CoreSpace::new(&g);
        let flat = FlatContainers::build(&sp);
        let n = flat.num_cliques();
        let under = |cancel| PeelOptions {
            cancel,
            ..PeelOptions::new(ParallelConfig::with_threads(4).chunk(4))
        };
        // Tripped flag: every worker exits before claiming a chunk.
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let err =
            PeelEngine::new().peel_opts(&flat, &under(CancelToken::with_flag(flag))).unwrap_err();
        assert!(err.processed < n, "trip before any claim peels nothing: {}", err.processed);
        assert_eq!(String::from(err), "request cancelled (peel drain)");
        // Mid-drain trip: bounded partial progress, never the full peel.
        let err = PeelEngine::new()
            .peel_opts(&flat, &under(CancelToken::tripping_after_checks(40)))
            .unwrap_err();
        assert!(err.processed < n, "cancelled drain must not finish: {}", err.processed);
        // A generous token is bit-identical to the uncancellable drain.
        let far = std::time::Instant::now() + std::time::Duration::from_secs(3600);
        let ok = PeelEngine::new()
            .peel_opts(&flat, &under(CancelToken::with_deadline(Some(far))))
            .expect("generous deadline");
        assert_eq!(ok.kappa, peel(&sp).kappa);
    }
}
