//! Chunked parallel-for with static and dynamic scheduling.
//!
//! `parallel_for_chunks(n, cfg, f)` partitions `0..n` into chunks and runs
//! `f(range)` on worker threads. With [`Policy::Dynamic`] chunks are claimed
//! from a shared atomic counter (OpenMP `schedule(dynamic)`); with
//! [`Policy::Static`] each worker receives one contiguous stripe up front
//! (OpenMP `schedule(static)`), which reproduces the load-imbalance
//! pathology the paper describes for the notification mechanism.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::{AtomicBitset, ParallelConfig};

/// Scheduling policy for [`parallel_for_chunks`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Chunks are claimed dynamically from a shared counter.
    Dynamic,
    /// The index space is split into `threads` contiguous stripes.
    Static,
}

/// Per-run scheduler telemetry, used by the scheduling ablation benches to
/// visualize load imbalance and to count useful vs wasted sweep work.
///
/// `items_processed` / `items_skipped` are filled in by the *callers* of the
/// scheduling primitives (the decomposition sweeps), which are the only
/// layer that knows whether an index was real work or an idle flag-check:
/// under frontier scheduling `items_skipped` stays 0 by construction, while
/// the full-scan baseline accumulates one skip per idle r-clique visited.
#[derive(Clone, Debug, Default)]
pub struct SchedulerStats {
    /// Number of chunks each worker processed.
    pub chunks_per_worker: Vec<usize>,
    /// Work items actually recomputed.
    pub items_processed: u64,
    /// Work items visited but skipped (idle under the notification flags).
    pub items_skipped: u64,
}

impl SchedulerStats {
    /// Stats with only chunk telemetry (item counters zero).
    pub fn from_chunks(chunks_per_worker: Vec<usize>) -> Self {
        SchedulerStats { chunks_per_worker, ..Default::default() }
    }

    /// Max/min chunk-count imbalance ratio (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let max = self.chunks_per_worker.iter().copied().max().unwrap_or(0);
        let min = self.chunks_per_worker.iter().copied().min().unwrap_or(0);
        if min == 0 {
            if max == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            max as f64 / min as f64
        }
    }

    /// Folds another run's telemetry into this one (chunk counts add
    /// index-wise; item counters add).
    pub fn merge(&mut self, other: &SchedulerStats) {
        if self.chunks_per_worker.len() < other.chunks_per_worker.len() {
            self.chunks_per_worker.resize(other.chunks_per_worker.len(), 0);
        }
        for (a, &b) in self.chunks_per_worker.iter_mut().zip(&other.chunks_per_worker) {
            *a += b;
        }
        self.items_processed += other.items_processed;
        self.items_skipped += other.items_skipped;
    }

    /// Total chunks across workers.
    pub fn total_chunks(&self) -> usize {
        self.chunks_per_worker.iter().sum()
    }
}

// ---------------------------------------------------------------------------
// Barrier-free drain primitives
//
// The continuous-drain peel and the lock-free And worklist are built from the
// pieces below instead of `parallel_for_chunks`: persistent workers claim
// chunks from shared cursors/queues and only meet at explicit phase gates
// (peel) or run gate-free to quiescence (And). The companion paper's
// observation that stale reads are harmless is what lets every hot-path
// access stay relaxed; the few Release/Acquire pairs are annotated with the
// invariant they carry.
// ---------------------------------------------------------------------------

/// Slot value meaning "reserved but not yet published" in [`DrainQueue`].
const EMPTY_SLOT: u32 = u32::MAX;

/// A shared claim cursor over the index range `0..limit`.
///
/// Workers call [`ChunkCursor::claim`] to take the next contiguous chunk;
/// the claim is a single relaxed `fetch_add`, so the cursor is the cheapest
/// possible dynamic scheduler. [`ChunkCursor::reset`] rewinds it for the
/// next phase and requires external synchronization (the peel drain resets
/// it from the gate leader's critical section).
#[derive(Debug)]
pub struct ChunkCursor {
    next: AtomicUsize,
    limit: usize,
}

impl ChunkCursor {
    /// Cursor over `0..limit`, positioned at 0.
    pub fn new(limit: usize) -> Self {
        ChunkCursor { next: AtomicUsize::new(0), limit }
    }

    /// Claims up to `chunk` indices; `None` once the range is exhausted.
    #[inline]
    pub fn claim(&self, chunk: usize) -> Option<std::ops::Range<usize>> {
        let chunk = chunk.max(1);
        let lo = self.next.fetch_add(chunk, Ordering::Relaxed);
        if lo >= self.limit {
            return None;
        }
        Some(lo..(lo + chunk).min(self.limit))
    }

    /// Upper end of the claimable range.
    #[inline]
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Rewinds to 0. Caller must guarantee no concurrent claims (e.g. all
    /// workers parked at a [`PhaseGate`]).
    pub fn reset(&self) {
        self.next.store(0, Ordering::Relaxed);
    }
}

/// A fixed-capacity multi-producer multi-consumer drain queue for items that
/// are pushed **at most once** (the peel's push-exactly-once invariant: a
/// vertex enters the queue either from the threshold rescan or from the
/// unique CAS that lands its `k+1 → k` degree crossing — never both).
///
/// Push reserves a slot with a relaxed `fetch_add` on `tail` and publishes
/// the value with a Release store; consumers claim `[head, head+take)` slot
/// ranges by CAS and Acquire-read each slot, spinning across the short
/// reserve→publish window. Because every id is pushed at most once, a
/// capacity of the id universe can never overflow, and claimed slices are
/// stable forever — a consumer never contends with a producer for a slot.
///
/// Each slot also records the pushing worker, so consumers can count how
/// many of the items they drained were produced by another worker (the
/// "steal" telemetry of the work-stealing drain).
#[derive(Debug)]
pub struct DrainQueue {
    slots: Vec<AtomicU32>,
    owner: Vec<AtomicU32>,
    tail: AtomicUsize,
    head: AtomicUsize,
}

impl DrainQueue {
    /// Queue holding at most `capacity` pushes over ids `< u32::MAX`.
    pub fn new(capacity: usize) -> Self {
        DrainQueue {
            slots: (0..capacity).map(|_| AtomicU32::new(EMPTY_SLOT)).collect(),
            owner: (0..capacity).map(|_| AtomicU32::new(0)).collect(),
            tail: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
        }
    }

    /// Publishes `id` (pushed by `worker`). Panics if the push-once
    /// invariant is broken (more pushes than capacity).
    #[inline]
    pub fn push(&self, id: u32, worker: u32) {
        debug_assert_ne!(id, EMPTY_SLOT);
        let slot = self.tail.fetch_add(1, Ordering::Relaxed);
        assert!(slot < self.slots.len(), "DrainQueue overflow — push-once invariant broken");
        self.owner[slot].store(worker, Ordering::Relaxed);
        // Release pairs with the Acquire in `read`: a consumer that sees the
        // id also sees the owner store above.
        self.slots[slot].store(id, Ordering::Release);
    }

    /// Number of slots reserved by pushers so far.
    #[inline]
    pub fn pushed(&self) -> usize {
        self.tail.load(Ordering::Relaxed).min(self.slots.len())
    }

    /// Number of slots claimed by consumers so far.
    #[inline]
    pub fn claimed(&self) -> usize {
        self.head.load(Ordering::Relaxed)
    }

    /// Whether any pushed slot is still unclaimed.
    #[inline]
    pub fn has_unclaimed(&self) -> bool {
        self.claimed() < self.pushed()
    }

    /// Claims up to `max` slots; returns the claimed slot range, or `None`
    /// when everything pushed so far is already claimed.
    #[inline]
    pub fn claim(&self, max: usize) -> Option<std::ops::Range<usize>> {
        let max = max.max(1);
        let mut h = self.head.load(Ordering::Relaxed);
        loop {
            let t = self.pushed();
            if h >= t {
                return None;
            }
            let take = (t - h).min(max);
            match self.head.compare_exchange_weak(h, h + take, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return Some(h..h + take),
                Err(now) => h = now,
            }
        }
    }

    /// Reads the id and pushing worker in a claimed `slot`, spinning across
    /// the pusher's reserve→publish window. Returns `None` only if `abort`
    /// is raised while waiting (a poisoned pusher died mid-publish).
    #[inline]
    pub fn read(&self, slot: usize, abort: &AtomicBool) -> Option<(u32, u32)> {
        loop {
            let v = self.slots[slot].load(Ordering::Acquire);
            if v != EMPTY_SLOT {
                return Some((v, self.owner[slot].load(Ordering::Relaxed)));
            }
            if abort.load(Ordering::Relaxed) {
                return None;
            }
            std::hint::spin_loop();
        }
    }

    /// Rewinds the queue to empty. Caller must guarantee no concurrent use.
    pub fn reset(&self) {
        for s in &self.slots {
            s.store(EMPTY_SLOT, Ordering::Relaxed);
        }
        self.tail.store(0, Ordering::Relaxed);
        self.head.store(0, Ordering::Relaxed);
    }
}

/// Bounded lock-free MPMC ring (Vyukov's sequence-number design), used for
/// worklists whose ids can be pushed *again* after being consumed — the And
/// frontier, where a processed r-clique may be re-woken. Capacity is rounded
/// up to a power of two.
#[derive(Debug)]
pub struct MpmcRing {
    seq: Vec<AtomicUsize>,
    vals: Vec<AtomicU32>,
    mask: usize,
    head: AtomicUsize,
    tail: AtomicUsize,
}

impl MpmcRing {
    /// Ring holding at least `capacity` items.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        MpmcRing {
            seq: (0..cap).map(AtomicUsize::new).collect(),
            vals: (0..cap).map(|_| AtomicU32::new(0)).collect(),
            mask: cap - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// Usable capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Enqueues `v`; `false` when the ring is full.
    #[inline]
    pub fn push(&self, v: u32) -> bool {
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let cell = pos & self.mask;
            let seq = self.seq[cell].load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                match self.tail.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        self.vals[cell].store(v, Ordering::Relaxed);
                        // Release publishes the value store above to the
                        // consumer's Acquire seq read.
                        self.seq[cell].store(pos + 1, Ordering::Release);
                        return true;
                    }
                    Err(now) => pos = now,
                }
            } else if diff < 0 {
                return false; // full
            } else {
                pos = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeues one item; `None` when empty.
    #[inline]
    pub fn pop(&self) -> Option<u32> {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let cell = pos & self.mask;
            let seq = self.seq[cell].load(Ordering::Acquire);
            let diff = seq as isize - (pos + 1) as isize;
            if diff == 0 {
                match self.head.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let v = self.vals[cell].load(Ordering::Relaxed);
                        self.seq[cell].store(pos + self.mask + 1, Ordering::Release);
                        return Some(v);
                    }
                    Err(now) => pos = now,
                }
            } else if diff < 0 {
                return None; // empty
            } else {
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Approximate emptiness (exact only when producers are quiescent).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::Relaxed) >= self.tail.load(Ordering::Relaxed)
    }
}

/// [`MpmcRing`] plus a dedup bitset: the lock-free worklist of the
/// parallel And frontier (no snapshot, no sort, no epoch barrier). `push`
/// is a no-op for an id whose bit is already set; consumers `pop`
/// continuously and `unmark` before recomputing, exactly the paper's
/// notification semantics. Because an id's bit stays set from push until its
/// consumer unmarks it *after* the pop, the ring holds at most one live
/// entry per id, so a universe-sized ring is never *logically* full. The
/// Vyukov protocol can still report full **transiently** when a push wraps
/// onto a slot whose consumer has claimed it but not yet recycled its
/// sequence number; `push` absorbs that window with a bounded spin (the
/// claiming consumer is lock-free and mid-`pop`, so the wait is short and
/// deadlock-free).
#[derive(Debug)]
pub struct ConcurrentWorklist {
    ring: MpmcRing,
    queued: AtomicBitset,
}

impl ConcurrentWorklist {
    /// Empty worklist over ids `0..universe`.
    pub fn new(universe: usize) -> Self {
        ConcurrentWorklist {
            ring: MpmcRing::with_capacity(universe.max(1)),
            queued: AtomicBitset::new(universe, false),
        }
    }

    /// Universe size.
    #[inline]
    pub fn universe(&self) -> usize {
        self.queued.len()
    }

    /// Schedules `id` unless already scheduled; returns whether it was
    /// enqueued now.
    #[inline]
    pub fn push(&self, id: u32) -> bool {
        debug_assert!((id as usize) < self.universe());
        if self.queued.set(id as usize) {
            return false; // already scheduled
        }
        // The dedup bit guarantees occupancy < capacity here, so a failed
        // ring push is the transient wrap-onto-a-mid-pop-slot window (see
        // the type docs): spin until the consumer recycles the slot.
        let mut spins = 0u32;
        while !self.ring.push(id) {
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        true
    }

    /// Takes one scheduled id (its bit stays set until [`Self::unmark`]).
    #[inline]
    pub fn pop(&self) -> Option<u32> {
        self.ring.pop()
    }

    /// Clears `id`'s scheduled bit (call before recomputing it). Returns the
    /// previous value.
    #[inline]
    pub fn unmark(&self, id: u32) -> bool {
        self.queued.clear(id as usize)
    }

    /// Whether `id` is currently scheduled.
    #[inline]
    pub fn is_marked(&self, id: u32) -> bool {
        self.queued.get(id as usize)
    }
}

/// Exact termination detection for continuous drains, by quiescence
/// counting: work is **issued** (counter bumped before the item is
/// published to the queue) and **retired** (counter bumped after the item's
/// processing — including every follow-on issue it made — is complete).
///
/// `quiescent()` reads `retired` with Acquire *first*, then `issued`: both
/// counters are monotone and `retired ≤ issued` always holds, so observing
/// them equal proves every issued item was retired at some point between
/// the two reads — and since new work is only issued from in-flight items,
/// no work can appear afterwards. This sidesteps the classic lost-wakeup
/// race of idle-worker counting: there is no "idle" state to re-enter, just
/// two monotone counters.
#[derive(Debug, Default)]
pub struct QuiescenceCounter {
    issued: AtomicUsize,
    retired: AtomicUsize,
}

impl QuiescenceCounter {
    /// Fresh counter (zero issued, zero retired — trivially quiescent, which
    /// is the correct answer for empty input).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` new work items. Must be called *before* the items become
    /// claimable by other workers.
    #[inline]
    pub fn issue(&self, n: usize) {
        self.issued.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` completed items. Release so that a `quiescent()` observer
    /// also observes everything the processing wrote (its κ stores and
    /// follow-on issues).
    #[inline]
    pub fn retire(&self, n: usize) {
        self.retired.fetch_add(n, Ordering::Release);
    }

    /// Exact check: all issued work has been retired.
    #[inline]
    pub fn quiescent(&self) -> bool {
        // Acquire on `retired` also fences the subsequent `issued` load from
        // moving earlier; see the struct docs for why this order is exact.
        let r = self.retired.load(Ordering::Acquire);
        let i = self.issued.load(Ordering::Relaxed);
        debug_assert!(r <= i);
        r == i
    }

    /// Total issued so far.
    #[inline]
    pub fn issued(&self) -> usize {
        self.issued.load(Ordering::Relaxed)
    }

    /// Rewinds both counters. Caller must guarantee no concurrent use.
    pub fn reset(&self) {
        self.issued.store(0, Ordering::Relaxed);
        self.retired.store(0, Ordering::Relaxed);
    }
}

/// A leader/follower phase gate for the peel drain's SCAN → DRAIN → SCAN
/// cycle: followers announce arrival and spin until the leader advances the
/// phase; the leader waits for all followers, runs its critical section
/// (merge scan results, advance the threshold, reset cursors), then
/// releases everyone. `abort` poisons the gate so a panicking worker can
/// never strand the rest of the team in a spin.
#[derive(Debug)]
pub struct PhaseGate {
    arrived: AtomicUsize,
    phase: AtomicUsize,
    parties: usize,
    abort: AtomicBool,
}

impl PhaseGate {
    /// Gate for `parties` workers (one of which acts as leader).
    pub fn new(parties: usize) -> Self {
        PhaseGate {
            arrived: AtomicUsize::new(0),
            phase: AtomicUsize::new(0),
            parties: parties.max(1),
            abort: AtomicBool::new(false),
        }
    }

    /// Follower: announce arrival and wait for the next phase. Returns
    /// `false` if the gate was aborted.
    pub fn arrive_and_wait(&self) -> bool {
        let p = self.phase.load(Ordering::Acquire);
        // AcqRel chains the followers' release sequence so the leader's
        // Acquire read of the final count sees every follower's prior work.
        self.arrived.fetch_add(1, Ordering::AcqRel);
        let mut spins = 0u32;
        loop {
            if self.phase.load(Ordering::Acquire) != p {
                return true;
            }
            if self.abort.load(Ordering::Relaxed) {
                return false;
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Leader: wait until every follower has arrived. Returns `false` if
    /// the gate was aborted while waiting.
    pub fn await_followers(&self) -> bool {
        let mut spins = 0u32;
        loop {
            if self.arrived.load(Ordering::Acquire) == self.parties - 1 {
                return true;
            }
            if self.abort.load(Ordering::Relaxed) {
                return false;
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Leader: release the followers into the next phase. Release publishes
    /// everything the leader wrote in its critical section.
    pub fn advance(&self) {
        self.arrived.store(0, Ordering::Relaxed);
        self.phase.fetch_add(1, Ordering::Release);
    }

    /// Poisons the gate: every current and future wait returns `false`.
    pub fn poison(&self) {
        self.abort.store(true, Ordering::Release);
    }

    /// Whether the gate has been poisoned.
    pub fn poisoned(&self) -> bool {
        self.abort.load(Ordering::Relaxed)
    }

    /// The shared abort flag, for spins outside the gate (queue reads).
    pub fn abort_flag(&self) -> &AtomicBool {
        &self.abort
    }
}

/// Seeded schedule perturbation for the determinism harness: derives one
/// independent SplitMix64 stream per worker and uses it to vary claim-chunk
/// sizes and inject yields at claim/push points. The algorithms must
/// produce bit-identical results under every seed — that is the claim the
/// `parallel_determinism` test enforces.
#[derive(Clone, Copy, Debug)]
pub struct ScheduleJitter {
    seed: u64,
}

impl ScheduleJitter {
    /// Jitter source from a test seed.
    pub fn new(seed: u64) -> Self {
        ScheduleJitter { seed }
    }

    /// Independent per-worker stream.
    pub fn worker(&self, worker: usize) -> WorkerJitter {
        WorkerJitter { state: self.seed ^ (worker as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) }
    }
}

/// One worker's jitter stream (SplitMix64).
#[derive(Clone, Debug)]
pub struct WorkerJitter {
    state: u64,
}

impl WorkerJitter {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A perturbed chunk size in `1..=max`.
    pub fn chunk(&mut self, max: usize) -> usize {
        1 + (self.next() as usize) % max.max(1)
    }

    /// Maybe yield/spin, perturbing the interleaving.
    pub fn maybe_yield(&mut self) {
        match self.next() % 8 {
            0 => std::thread::yield_now(),
            1 => {
                for _ in 0..32 {
                    std::hint::spin_loop();
                }
            }
            _ => {}
        }
    }
}

/// Where a [`DrainHooks`] callback fires inside a drain worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DrainEvent {
    /// A chunk (queue or cursor) was claimed.
    Claim,
    /// One work item is about to be processed.
    Item,
    /// A follow-on item was pushed.
    Push,
    /// The worker passed a phase boundary.
    Phase,
}

/// Failpoint-style observation/delay hooks for the drain loops, in the
/// spirit of the WAL's `FailPoints`: tests install a callback that can
/// sleep, yield, or panic at chosen events to prove stale-read tolerance
/// and panic containment. Default is a no-op with a single branch on the
/// hot path.
#[derive(Clone, Default)]
pub struct DrainHooks(Option<Arc<dyn Fn(usize, DrainEvent) + Send + Sync>>);

impl std::fmt::Debug for DrainHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() { "DrainHooks(set)" } else { "DrainHooks(none)" })
    }
}

impl DrainHooks {
    /// Installs a hook called with `(worker, event)`.
    pub fn with(f: impl Fn(usize, DrainEvent) + Send + Sync + 'static) -> Self {
        DrainHooks(Some(Arc::new(f)))
    }

    /// Fires the hook if installed.
    #[inline]
    pub fn fire(&self, worker: usize, event: DrainEvent) {
        if let Some(f) = &self.0 {
            f(worker, event);
        }
    }
}

/// Schedule-control bundle threaded through the drain entry points: an
/// optional seeded jitter plus optional hooks. `Default` is the production
/// configuration (no perturbation, no hooks).
#[derive(Clone, Debug, Default)]
pub struct DrainControl {
    /// Seeded schedule perturbation (None = natural schedule).
    pub jitter: Option<ScheduleJitter>,
    /// Event hooks (delay injection, panic injection, observation).
    pub hooks: DrainHooks,
}

impl DrainControl {
    /// Control with a seeded jitter and no hooks.
    pub fn seeded(seed: u64) -> Self {
        DrainControl { jitter: Some(ScheduleJitter::new(seed)), hooks: DrainHooks::default() }
    }

    /// Per-worker handle.
    pub fn worker(&self, worker: usize) -> WorkerControl {
        WorkerControl {
            jitter: self.jitter.as_ref().map(|j| j.worker(worker)),
            hooks: self.hooks.clone(),
            worker,
        }
    }
}

/// One worker's view of a [`DrainControl`]: owns the jitter stream, fires
/// hooks with the worker id attached.
#[derive(Debug)]
pub struct WorkerControl {
    jitter: Option<WorkerJitter>,
    hooks: DrainHooks,
    worker: usize,
}

impl WorkerControl {
    /// Fires the event hook and maybe injects a jittered yield.
    #[inline]
    pub fn on(&mut self, event: DrainEvent) {
        if let Some(j) = &mut self.jitter {
            j.maybe_yield();
        }
        self.hooks.fire(self.worker, event);
    }

    /// The claim size to use this round: `base`, or a jittered value in
    /// `1..=base` when a schedule perturbation is installed.
    #[inline]
    pub fn chunk(&mut self, base: usize) -> usize {
        match &mut self.jitter {
            Some(j) => j.chunk(base),
            None => base.max(1),
        }
    }

    /// This worker's index.
    #[inline]
    pub fn id(&self) -> usize {
        self.worker
    }
}

/// Runs `f` over `0..n` in parallel chunks. `f` must be `Sync` (it is shared
/// by reference across workers) and is invoked with disjoint ranges covering
/// `0..n` exactly once.
pub fn parallel_for_chunks<F>(n: usize, cfg: ParallelConfig, f: F) -> SchedulerStats
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    parallel_for_chunks_with(n, cfg, || (), |(), r| f(r))
}

/// Like [`parallel_for_chunks`] but with per-worker state created by `init`
/// (e.g. a scratch `HBuffer`), passed mutably to every chunk the worker
/// claims.
pub fn parallel_for_chunks_with<S, I, F>(
    n: usize,
    cfg: ParallelConfig,
    init: I,
    f: F,
) -> SchedulerStats
where
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, std::ops::Range<usize>) + Sync,
{
    hdsd_telemetry::span!("parallel.chunks");
    let threads = cfg.threads.max(1);
    let chunk = cfg.chunk.max(1);
    if n == 0 {
        return SchedulerStats::from_chunks(vec![0; threads]);
    }
    if threads == 1 {
        let mut s = init();
        let mut done = 0usize;
        let mut chunks = 0usize;
        while done < n {
            let hi = (done + chunk).min(n);
            f(&mut s, done..hi);
            done = hi;
            chunks += 1;
        }
        return SchedulerStats::from_chunks(vec![chunks]);
    }

    // Dynamic workers race on `next`; static worker `t` owns stripe `t`.
    // Scoped workers are joined (and their panics re-raised) at scope exit.
    let counters: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
    let next = AtomicUsize::new(0);
    let per = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for (t, counter) in counters.iter().enumerate() {
            let (next, init, f) = (&next, &init, &f);
            scope.spawn(move || {
                let mut s = init();
                let mut run = |range: std::ops::Range<usize>| {
                    f(&mut s, range);
                    counter.fetch_add(1, Ordering::Relaxed);
                };
                match cfg.policy {
                    Policy::Dynamic => loop {
                        let lo = next.fetch_add(chunk, Ordering::Relaxed);
                        if lo >= n {
                            break;
                        }
                        run(lo..(lo + chunk).min(n));
                    },
                    Policy::Static => {
                        let hi = ((t + 1) * per).min(n);
                        let mut at = (t * per).min(n);
                        while at < hi {
                            let end = (at + chunk).min(hi);
                            run(at..end);
                            at = end;
                        }
                    }
                }
            });
        }
    });
    SchedulerStats::from_chunks(counters.iter().map(|c| c.load(Ordering::Relaxed)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    fn sum_check(threads: usize, policy: Policy, n: usize, chunk: usize) {
        let cfg = ParallelConfig { threads, chunk, policy };
        let total = AtomicU64::new(0);
        let calls = AtomicUsize::new(0);
        parallel_for_chunks(n, cfg, |r| {
            let mut s = 0u64;
            for i in r {
                s += i as u64;
            }
            total.fetch_add(s, Ordering::Relaxed);
            calls.fetch_add(1, Ordering::Relaxed);
        });
        let expect = (n as u64).saturating_sub(1) * n as u64 / 2;
        assert_eq!(total.load(Ordering::Relaxed), expect, "threads={threads} {policy:?}");
        let expected_calls = match policy {
            // Static chunks each stripe separately, so count per stripe.
            Policy::Static if threads > 1 && n > 0 => {
                let per = n.div_ceil(threads);
                (0..threads)
                    .map(|t| {
                        let lo = (t * per).min(n);
                        let hi = ((t + 1) * per).min(n);
                        (hi - lo).div_ceil(chunk.max(1))
                    })
                    .sum()
            }
            _ => n.div_ceil(chunk.max(1)),
        };
        assert_eq!(calls.load(Ordering::Relaxed), expected_calls);
    }

    #[test]
    fn covers_index_space_exactly_once() {
        for &threads in &[1usize, 2, 4, 7] {
            for &policy in &[Policy::Dynamic, Policy::Static] {
                for &n in &[0usize, 1, 5, 100, 1001] {
                    sum_check(threads, policy, n, 16);
                }
            }
        }
    }

    #[test]
    fn chunk_of_one_works() {
        sum_check(3, Policy::Dynamic, 50, 1);
        sum_check(3, Policy::Static, 50, 1);
    }

    #[test]
    fn per_worker_state_is_reused() {
        // Each worker counts its own chunks in local state; stats must agree.
        let cfg = ParallelConfig { threads: 4, chunk: 8, policy: Policy::Dynamic };
        let seen = AtomicUsize::new(0);
        let stats = parallel_for_chunks_with(
            1000,
            cfg,
            || 0usize,
            |local, r| {
                *local += 1;
                seen.fetch_add(r.len(), Ordering::Relaxed);
            },
        );
        assert_eq!(seen.load(Ordering::Relaxed), 1000);
        let total_chunks: usize = stats.chunks_per_worker.iter().sum();
        assert_eq!(total_chunks, 1000usize.div_ceil(8));
    }

    #[test]
    fn static_policy_stripes_are_contiguous() {
        use std::sync::Mutex;
        let cfg = ParallelConfig { threads: 3, chunk: 4, policy: Policy::Static };
        let ranges = Mutex::new(Vec::new());
        parallel_for_chunks(30, cfg, |r| {
            ranges.lock().unwrap().push(r);
        });
        let mut rs = ranges.into_inner().unwrap();
        rs.sort_by_key(|r| r.start);
        // Disjoint cover of 0..30.
        let mut at = 0;
        for r in rs {
            assert_eq!(r.start, at);
            at = r.end;
        }
        assert_eq!(at, 30);
    }

    #[test]
    fn imbalance_metric() {
        let s = SchedulerStats::from_chunks(vec![4, 2]);
        assert!((s.imbalance() - 2.0).abs() < 1e-12);
        let z = SchedulerStats::from_chunks(vec![0, 0]);
        assert_eq!(z.imbalance(), 1.0);
        let inf = SchedulerStats::from_chunks(vec![3, 0]);
        assert!(inf.imbalance().is_infinite());
    }

    #[test]
    fn scheduler_stats_merge_adds() {
        let mut a = SchedulerStats::from_chunks(vec![1, 2]);
        a.items_processed = 10;
        let mut b = SchedulerStats::from_chunks(vec![3, 4, 5]);
        b.items_processed = 7;
        b.items_skipped = 2;
        a.merge(&b);
        assert_eq!(a.chunks_per_worker, vec![4, 6, 5]);
        assert_eq!(a.items_processed, 17);
        assert_eq!(a.items_skipped, 2);
        assert_eq!(a.total_chunks(), 15);
    }

    #[test]
    fn chunk_cursor_covers_range_exactly_once() {
        let cur = ChunkCursor::new(1000);
        let seen: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cur = &cur;
                let seen = &seen;
                scope.spawn(move || {
                    while let Some(r) = cur.claim(7) {
                        for i in r {
                            seen[i].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        assert!(cur.claim(7).is_none());
        cur.reset();
        assert_eq!(cur.claim(7), Some(0..7));
    }

    #[test]
    fn chunk_cursor_empty_and_single() {
        let empty = ChunkCursor::new(0);
        assert!(empty.claim(8).is_none());
        let one = ChunkCursor::new(1);
        assert_eq!(one.claim(8), Some(0..1));
        assert!(one.claim(8).is_none());
    }

    #[test]
    fn drain_queue_claims_each_push_once() {
        let n = 2048u32;
        let q = DrainQueue::new(n as usize);
        let abort = AtomicBool::new(false);
        let seen: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        // 2 pushers, 2 claimers racing; claimers also count steals.
        let stolen = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for w in 0..2u32 {
                let q = &q;
                scope.spawn(move || {
                    for id in (w..n).step_by(2) {
                        q.push(id, w);
                    }
                });
            }
            for me in 2..4u32 {
                let q = &q;
                let abort = &abort;
                let seen = &seen;
                let stolen = &stolen;
                scope.spawn(move || loop {
                    match q.claim(5) {
                        Some(r) => {
                            for slot in r {
                                let (id, owner) = q.read(slot, abort).unwrap();
                                seen[id as usize].fetch_add(1, Ordering::Relaxed);
                                if owner != me {
                                    stolen.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        None => {
                            if q.pushed() == n as usize && !q.has_unclaimed() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1), "each id claimed once");
        // Claimers never pushed, so every drained item counts as a steal.
        assert_eq!(stolen.load(Ordering::Relaxed), n as usize);
    }

    #[test]
    fn drain_queue_read_aborts_on_poison() {
        let q = DrainQueue::new(4);
        // Reserve a slot without publishing (simulates a pusher dying
        // between reserve and publish) by claiming against a manually
        // bumped tail.
        q.tail.store(1, Ordering::Relaxed);
        let abort = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let q = &q;
            let abort = &abort;
            let h = scope.spawn(move || q.read(0, abort));
            std::thread::sleep(std::time::Duration::from_millis(5));
            abort.store(true, Ordering::Relaxed);
            assert_eq!(h.join().unwrap(), None);
        });
    }

    #[test]
    fn mpmc_ring_wraps_without_loss_or_duplication() {
        let ring = MpmcRing::with_capacity(8); // small: forces wraparound
        let total = 10_000u32;
        let counts: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
        let popped = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for p in 0..2u32 {
                let ring = &ring;
                scope.spawn(move || {
                    for v in (p..total).step_by(2) {
                        while !ring.push(v) {
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            for _ in 0..2 {
                let ring = &ring;
                let counts = &counts;
                let popped = &popped;
                scope.spawn(move || loop {
                    if let Some(v) = ring.pop() {
                        counts[v as usize].fetch_add(1, Ordering::Relaxed);
                        popped.fetch_add(1, Ordering::Relaxed);
                    } else if popped.load(Ordering::Relaxed) == total as usize {
                        break;
                    } else {
                        std::hint::spin_loop();
                    }
                });
            }
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn mpmc_ring_single_item_and_empty() {
        let ring = MpmcRing::with_capacity(1);
        assert!(ring.is_empty());
        assert_eq!(ring.pop(), None);
        assert!(ring.push(42));
        assert_eq!(ring.pop(), Some(42));
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn concurrent_worklist_dedups_and_allows_repush_after_unmark() {
        let wl = ConcurrentWorklist::new(16);
        assert!(wl.push(3));
        assert!(!wl.push(3), "push of a scheduled id must dedup");
        assert!(wl.is_marked(3));
        assert_eq!(wl.pop(), Some(3));
        // Bit still set after pop: a wake arriving now must not re-enqueue.
        assert!(!wl.push(3));
        assert!(wl.unmark(3));
        assert!(wl.push(3), "after unmark the id is schedulable again");
        assert_eq!(wl.pop(), Some(3));
    }

    #[test]
    fn concurrent_worklist_never_overflows_under_races() {
        let n = 512usize;
        let wl = ConcurrentWorklist::new(n);
        let processed = AtomicUsize::new(0);
        // Producers re-push aggressively; consumers pop/unmark. The dedup
        // bit bounds ring occupancy at `universe`, so no push may fail.
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let wl = &wl;
                scope.spawn(move || {
                    for round in 0..50 {
                        for id in 0..n {
                            wl.push(((id + round) % n) as u32);
                        }
                    }
                });
            }
            for _ in 0..2 {
                let wl = &wl;
                let processed = &processed;
                scope.spawn(move || {
                    let mut idle = 0;
                    loop {
                        match wl.pop() {
                            Some(id) => {
                                idle = 0;
                                wl.unmark(id);
                                processed.fetch_add(1, Ordering::Relaxed);
                            }
                            None => {
                                idle += 1;
                                if idle > 10_000 {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                });
            }
        });
        assert!(processed.load(Ordering::Relaxed) >= n);
    }

    #[test]
    fn quiescence_counter_empty_input_is_quiescent() {
        let q = QuiescenceCounter::new();
        assert!(q.quiescent(), "zero issued work is quiescent by definition");
        q.issue(1);
        assert!(!q.quiescent());
        q.retire(1);
        assert!(q.quiescent());
        q.reset();
        assert!(q.quiescent());
    }

    #[test]
    fn quiescence_counter_detects_termination_with_more_workers_than_items() {
        // 1 item, 4 workers: three workers find nothing and spin on the
        // counter; the counter must still converge to quiescent exactly when
        // the single item (and its follow-on) retires.
        let q = QuiescenceCounter::new();
        let work = MpmcRing::with_capacity(8);
        q.issue(1);
        work.push(7);
        let processed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let q = &q;
                let work = &work;
                let processed = &processed;
                scope.spawn(move || loop {
                    if let Some(v) = work.pop() {
                        if v == 7 {
                            // follow-on work, issued before publication
                            q.issue(1);
                            work.push(9);
                        }
                        processed.fetch_add(1, Ordering::Relaxed);
                        q.retire(1);
                    } else if q.quiescent() {
                        break;
                    } else {
                        std::thread::yield_now();
                    }
                });
            }
        });
        assert_eq!(processed.load(Ordering::Relaxed), 2);
        assert!(q.quiescent());
        assert_eq!(q.issued(), 2);
    }

    #[test]
    fn phase_gate_cycles_and_publishes_leader_writes() {
        let parties = 4;
        let gate = PhaseGate::new(parties);
        let shared = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for w in 0..parties {
                let gate = &gate;
                let shared = &shared;
                scope.spawn(move || {
                    for round in 0..10usize {
                        if w == 0 {
                            assert!(gate.await_followers());
                            shared.store(round + 1, Ordering::Relaxed);
                            gate.advance();
                        } else {
                            assert!(gate.arrive_and_wait());
                            // Leader's critical-section write is visible.
                            assert_eq!(shared.load(Ordering::Relaxed), round + 1);
                        }
                    }
                });
            }
        });
        assert_eq!(shared.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn phase_gate_poison_unblocks_everyone() {
        let gate = PhaseGate::new(3);
        std::thread::scope(|scope| {
            let g = &gate;
            let h1 = scope.spawn(move || g.arrive_and_wait());
            let h2 = scope.spawn(move || g.await_followers());
            std::thread::sleep(std::time::Duration::from_millis(5));
            gate.poison();
            assert!(!h1.join().unwrap(), "poisoned follower must not hang");
            assert!(!h2.join().unwrap(), "poisoned leader must not hang");
        });
        assert!(gate.poisoned());
    }

    #[test]
    fn jitter_streams_are_deterministic_and_distinct() {
        let j = ScheduleJitter::new(42);
        let mut a1 = j.worker(0);
        let mut a2 = j.worker(0);
        let mut b = j.worker(1);
        let s1: Vec<usize> = (0..16).map(|_| a1.chunk(64)).collect();
        let s2: Vec<usize> = (0..16).map(|_| a2.chunk(64)).collect();
        let s3: Vec<usize> = (0..16).map(|_| b.chunk(64)).collect();
        assert_eq!(s1, s2, "same seed+worker must replay the same stream");
        assert_ne!(s1, s3, "workers get independent streams");
        assert!(s1.iter().all(|&c| (1..=64).contains(&c)));
    }

    #[test]
    fn drain_control_default_is_passthrough() {
        let ctl = DrainControl::default();
        let mut w = ctl.worker(2);
        assert_eq!(w.chunk(32), 32);
        w.on(DrainEvent::Claim); // no hook installed: must be a no-op
        assert_eq!(w.id(), 2);
        let fired = Arc::new(AtomicUsize::new(0));
        let f2 = fired.clone();
        let hooked = DrainControl {
            jitter: None,
            hooks: DrainHooks::with(move |_, _| {
                f2.fetch_add(1, Ordering::Relaxed);
            }),
        };
        hooked.worker(0).on(DrainEvent::Item);
        assert_eq!(fired.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn borrows_caller_stack() {
        // The whole point of scoped threads: write into a caller-owned slice.
        let mut out = vec![0u32; 256];
        {
            let cells: Vec<std::sync::atomic::AtomicU32> =
                (0..256).map(|_| std::sync::atomic::AtomicU32::new(0)).collect();
            parallel_for_chunks(256, ParallelConfig::with_threads(4).chunk(16), |r| {
                for i in r {
                    cells[i].store(i as u32 * 2, Ordering::Relaxed);
                }
            });
            for (i, c) in cells.iter().enumerate() {
                out[i] = c.load(Ordering::Relaxed);
            }
        }
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32 * 2));
    }
}
