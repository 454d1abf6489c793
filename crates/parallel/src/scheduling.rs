//! Chunked parallel-for with static and dynamic scheduling.
//!
//! `parallel_for_chunks(n, cfg, f)` partitions `0..n` into chunks and runs
//! `f(range)` on worker threads. With [`Policy::Dynamic`] chunks are claimed
//! from a shared atomic counter (OpenMP `schedule(dynamic)`); with
//! [`Policy::Static`] each worker receives one contiguous stripe up front
//! (OpenMP `schedule(static)`), which reproduces the load-imbalance
//! pathology the paper describes for the notification mechanism.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::ParallelConfig;

/// Scheduling policy for [`parallel_for_chunks`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Chunks are claimed dynamically from a shared counter.
    Dynamic,
    /// The index space is split into `threads` contiguous stripes.
    Static,
}

/// Per-run scheduler telemetry: load imbalance across workers, and useful
/// vs wasted sweep work (pinned for the sweep modes by the frontier tests).
///
/// `items_processed` / `items_skipped` are filled in by the *callers* of the
/// scheduling primitives (the decomposition sweeps), which are the only
/// layer that knows whether an index was real work or an idle flag-check:
/// the sequential frontier keeps `items_skipped` at 0 by construction — it
/// does scan the wake bitmap to build each sweep's snapshot, but that scan
/// visits nothing — while a flag scan accumulates one skip per idle
/// r-clique visited.
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
