//! What the hot paths pay for being observable. The contract: a counter
//! bump is one relaxed atomic add behind a per-call-site cached `Arc`, a
//! histogram record is a few relaxed adds, and a **disabled** span guard
//! is one relaxed load and a branch — cheap enough to stay compiled into
//! the peel, the WAL append and every other hot seam.
//!
//! Two checks hold it:
//!
//! * the deterministic half: after warm-up, `counter_add!`,
//!   `Histogram::record` and a disabled `span!` allocate nothing (a
//!   counting global allocator, per thread);
//! * ceilings on ns per call, best of 5 runs of 2M calls. They sit 3–10×
//!   above the cost of an unoptimised build, so they catch a lock, an
//!   allocation or a syscall creeping into a fast path, not scheduler
//!   noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use hdsd_telemetry::{counter_add, span, trace, Registry};

/// Counts the allocations made by the current thread.
struct CountingAllocator;

thread_local! {
    // Const-initialised and without a destructor, so reading it from
    // inside the allocator never allocates or fails.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is thread-local and touches no
// allocated memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
        // SAFETY: the caller's guarantees for `layout` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

// The tracing flag is process-wide and the tests run on parallel threads,
// so both tests hold this lock.
static TRACE_FLAG: Mutex<()> = Mutex::new(());

const CALLS: u64 = 2_000_000;

/// Allocations made by `calls` calls of `f` after one warm-up call.
fn allocations_after_warm_up(calls: u64, mut f: impl FnMut()) -> u64 {
    f();
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..calls {
        f();
    }
    ALLOCATIONS.with(Cell::get) - before
}

/// The lowest of 5 measurements (the minimum filters out preemption).
fn best_of_5(mut measure: impl FnMut() -> f64) -> f64 {
    (0..5).map(|_| measure()).fold(f64::INFINITY, f64::min)
}

/// Mean ns per call of `f`, best of 5 runs of [`CALLS`] calls.
fn best_ns_per_call(mut f: impl FnMut()) -> f64 {
    best_of_5(|| {
        let t = Instant::now();
        for _ in 0..CALLS {
            f();
        }
        t.elapsed().as_nanos() as f64 / CALLS as f64
    })
}

#[test]
fn hot_path_primitives_do_not_allocate() {
    let _flag = TRACE_FLAG.lock().unwrap_or_else(PoisonError::into_inner);
    trace::set_enabled(false);
    let hist = Registry::global().histogram("hot_path_alloc_record_micros");
    let mut v = 0u64;
    let checks = [
        (
            "counter_add!",
            allocations_after_warm_up(1_000, || counter_add!("hot_path_alloc_total", 1)),
        ),
        (
            "Histogram::record",
            allocations_after_warm_up(1_000, || {
                hist.record(black_box(v & 0xFFFF));
                v = v.wrapping_add(977);
            }),
        ),
        (
            "disabled span!",
            allocations_after_warm_up(1_000, || {
                span!("hot_path.disabled");
            }),
        ),
    ];
    for (name, allocations) in checks {
        assert_eq!(allocations, 0, "{name} allocated on the hot path");
    }
}

#[test]
fn hot_path_primitives_stay_under_their_ceilings() {
    let _flag = TRACE_FLAG.lock().unwrap_or_else(PoisonError::into_inner);

    // The shape of `requests_total` on the request path.
    let counter = best_ns_per_call(|| counter_add!("hot_path_ops_total", 1));

    // The shape of the per-op request and WAL latency histograms: the
    // `Arc` already in hand.
    let hist = Registry::global().histogram("hot_path_record_micros");
    let mut v = 0u64;
    let histogram = best_ns_per_call(|| {
        hist.record(black_box(v & 0xFFFF));
        v = v.wrapping_add(977);
    });

    // What every instrumented stage pays without `--trace-slow-ms`.
    trace::set_enabled(false);
    let disabled_span = best_ns_per_call(|| {
        span!("hot_path.disabled");
    });

    // Tracing armed: two clock reads and a ring-buffer push, in chunks of
    // 200 between `begin` and `take`, the way the server drains a
    // request's collector (capacity 256). A twentieth of the calls: each
    // costs about ten of the others.
    trace::set_enabled(true);
    let chunk = 200;
    let rounds = CALLS / (20 * chunk);
    let enabled_span = best_of_5(|| {
        let t = Instant::now();
        for _ in 0..rounds {
            trace::begin();
            for _ in 0..chunk {
                span!("hot_path.enabled");
            }
            black_box(trace::take());
        }
        t.elapsed().as_nanos() as f64 / (rounds * chunk) as f64
    });
    trace::set_enabled(false);

    for (name, ns, ceiling) in [
        ("counter_add!", counter, 100.0),
        ("Histogram::record", histogram, 150.0),
        ("disabled span!", disabled_span, 50.0),
        ("enabled span!", enabled_span, 2000.0),
    ] {
        eprintln!("{name}: {ns:.1} ns/call (ceiling {ceiling:.0} ns)");
        assert!(ns <= ceiling, "{name}: {ns:.1} ns/call exceeds its {ceiling:.0} ns ceiling");
    }
}
