//! Overload state shared by the admission-control loop and the protocol
//! layer: in-flight accounting, shed/degrade/cancel counters, and the
//! brownout controller that maps load to a degradation tier.
//!
//! ## Admission
//!
//! The dispatch loop (`serve.rs`) calls [`OverloadState::try_admit`] for
//! every extracted request line *before* enqueueing it to a reader
//! worker. Admission is judged against a bounded global in-flight budget
//! (`--max-inflight`): once the budget is full, **expensive** ops are
//! shed immediately with a structured `overloaded` error carrying
//! `retry_after_ms`, while **cheap** ops keep queueing up to a small
//! multiple of the budget (they drain in microseconds and shedding them
//! would only force a retry storm). `shutdown` is never shed. The
//! per-connection quota lives in the dispatch loop itself: a connection
//! stops having lines extracted while its pending count is at the quota,
//! which turns into plain TCP backpressure on that client alone.
//!
//! ## Brownout
//!
//! [`OverloadState::recompute_tier`] maps queue pressure and the p99 of
//! *recently completed* requests (the delta of the cumulative
//! `request_micros` histograms between two calls) to a tier:
//!
//! | tier | meaning |
//! |------|---------|
//! | 0    | normal — every op answers exactly |
//! | 1    | cold-hierarchy `region` answers a budgeted Theorem-1 estimate (`degraded:true`) instead of materializing; cold-hierarchy `node` is shed (`overloaded`) |
//! | 2    | `kappa` also answers the estimate interval |
//!
//! Tier transitions use asymmetric thresholds (enter high, exit low) so
//! the controller does not flap at a boundary. `--brownout off` pins
//! tier 0; `--brownout 1|2` pins a tier for drills and tests.
//!
//! Everything here is lock-free on the hot path (atomics + registry
//! handles); only the p99 window keeps a mutex, taken once per
//! controller tick, never per request.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hdsd_telemetry::{Counter, Gauge, HistogramSnapshot, MetricSnapshot, Registry};

/// Queue-depth multiple up to which cheap ops still queue when the
/// in-flight budget is exhausted.
const CHEAP_HEADROOM: u64 = 4;

/// Assumed drain cost per queued request when computing `retry_after_ms`.
const DRAIN_MS_PER_JOB: u64 = 2;

/// Bounds on the `retry_after_ms` hint.
const RETRY_AFTER_MIN_MS: u64 = 25;
const RETRY_AFTER_MAX_MS: u64 = 5_000;

/// Brownout tier enter/exit thresholds: queue pressure (in-flight as a
/// fraction of the budget) and recent p99 (µs). Enter is deliberately
/// higher than exit so a reading hovering at the boundary cannot flap
/// the tier every tick.
const TIER1_ENTER_PRESSURE: f64 = 0.50;
const TIER1_EXIT_PRESSURE: f64 = 0.30;
const TIER2_ENTER_PRESSURE: f64 = 0.90;
const TIER2_EXIT_PRESSURE: f64 = 0.70;
const TIER1_ENTER_P99_US: u64 = 250_000;
const TIER1_EXIT_P99_US: u64 = 100_000;
const TIER2_ENTER_P99_US: u64 = 1_000_000;
const TIER2_EXIT_P99_US: u64 = 500_000;

/// How `--brownout` was configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrownoutMode {
    /// Never degrade (tier pinned to 0).
    Off,
    /// Tier follows queue pressure and recent p99 (the default).
    Auto,
    /// Tier pinned to a fixed value (drills, tests).
    Forced(u8),
}

impl BrownoutMode {
    /// Parses the `--brownout` flag value: `off`, `auto`, or a tier.
    pub fn parse(s: &str) -> Option<BrownoutMode> {
        match s {
            "off" => Some(BrownoutMode::Off),
            "auto" => Some(BrownoutMode::Auto),
            "0" => Some(BrownoutMode::Forced(0)),
            "1" => Some(BrownoutMode::Forced(1)),
            "2" => Some(BrownoutMode::Forced(2)),
            _ => None,
        }
    }
}

/// Encoding of [`BrownoutMode`] in one atomic: 0 off, 1 auto, 2+t forced.
fn encode_mode(m: BrownoutMode) -> u64 {
    match m {
        BrownoutMode::Off => 0,
        BrownoutMode::Auto => 1,
        BrownoutMode::Forced(t) => 2 + t as u64,
    }
}

fn decode_mode(v: u64) -> BrownoutMode {
    match v {
        0 => BrownoutMode::Off,
        1 => BrownoutMode::Auto,
        t => BrownoutMode::Forced((t - 2) as u8),
    }
}

/// The admission verdict for one request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Enqueue it; in-flight and queue-depth accounting already bumped.
    Admit,
    /// Refuse it with the `overloaded` error; nothing was bumped.
    Shed {
        /// Client back-off hint, computed from the current queue depth.
        retry_after_ms: u64,
    },
}

/// Point-in-time overload accounting for the `stats` op.
#[derive(Debug, Clone, Copy)]
pub struct OverloadSnapshot {
    /// Requests admitted but not yet answered (queued + executing).
    pub inflight: u64,
    /// Requests admitted but not yet picked up by a reader worker.
    pub queue_depth: u64,
    /// Configured global in-flight budget (0 = unlimited).
    pub max_inflight: u64,
    /// Current brownout tier (0 = exact, 1 = degrade region, 2 = + kappa).
    pub tier: u64,
    /// Total requests refused with the `overloaded` error.
    pub shed: u64,
    /// Total requests answered with a degraded (estimate) result.
    pub degraded: u64,
    /// Total requests cancelled (deadline, disconnect, or shutdown).
    pub cancelled: u64,
}

/// The p99 window: the previous cumulative `request_micros` merge, so
/// each controller tick sees only requests completed since the last.
struct P99Window {
    last: HistogramSnapshot,
}

/// Shared overload state. One per serving process, `Arc`-shared between
/// the dispatch loop (admission, gauges) and every protocol handle
/// (degradation decisions, cancel accounting, `stats`).
pub struct OverloadState {
    /// Requests admitted but not yet answered (queued + executing).
    inflight: AtomicI64,
    /// Requests admitted but not yet picked up by a reader worker.
    queued: AtomicI64,
    /// Global in-flight budget; 0 means unlimited (admission disabled).
    max_inflight: AtomicU64,
    mode: AtomicU64,
    tier: AtomicU64,
    shed: Arc<Counter>,
    degraded: Arc<Counter>,
    cancelled: Arc<Counter>,
    inflight_gauge: Arc<Gauge>,
    depth_gauge: Arc<Gauge>,
    tier_gauge: Arc<Gauge>,
    window: Mutex<P99Window>,
}

impl OverloadState {
    /// Creates the state and registers its gauges/counters in the global
    /// metrics registry (so they appear in `metrics` and the Prometheus
    /// surface from the first scrape, all zero).
    pub fn new() -> Arc<OverloadState> {
        let reg = Registry::global();
        Arc::new(OverloadState {
            inflight: AtomicI64::new(0),
            queued: AtomicI64::new(0),
            max_inflight: AtomicU64::new(0),
            mode: AtomicU64::new(encode_mode(BrownoutMode::Auto)),
            tier: AtomicU64::new(0),
            shed: reg.counter("requests_shed_total"),
            degraded: reg.counter("requests_degraded_total"),
            cancelled: reg.counter("requests_cancelled_total"),
            inflight_gauge: reg.gauge("inflight_requests"),
            depth_gauge: reg.gauge("queue_depth"),
            tier_gauge: reg.gauge("brownout_tier"),
            window: Mutex::new(P99Window { last: HistogramSnapshot::empty() }),
        })
    }

    /// Sets the global in-flight budget (0 disables admission control).
    pub fn set_max_inflight(&self, n: u64) {
        self.max_inflight.store(n, Ordering::Relaxed);
    }

    /// The configured global in-flight budget (0 = unlimited).
    pub fn max_inflight(&self) -> u64 {
        self.max_inflight.load(Ordering::Relaxed)
    }

    /// Sets the brownout controller mode (`--brownout`).
    pub fn set_mode(&self, m: BrownoutMode) {
        self.mode.store(encode_mode(m), Ordering::Relaxed);
    }

    /// The configured brownout controller mode.
    pub fn mode(&self) -> BrownoutMode {
        decode_mode(self.mode.load(Ordering::Relaxed))
    }

    fn clamped(v: i64) -> u64 {
        v.max(0) as u64
    }

    /// Current in-flight count (queued + executing).
    pub fn inflight(&self) -> u64 {
        Self::clamped(self.inflight.load(Ordering::Relaxed))
    }

    /// Current queued-but-not-executing count.
    pub fn queue_depth(&self) -> u64 {
        Self::clamped(self.queued.load(Ordering::Relaxed))
    }

    /// Admission check for one extracted request line. On `Admit` the
    /// in-flight and queue-depth accounting is already bumped — the
    /// caller MUST pair it with [`OverloadState::job_dequeued`] (worker
    /// picked it up) and [`OverloadState::job_done`] (response produced
    /// or job dropped), in that order.
    ///
    /// `expensive` is the dispatch loop's op classification; `shed_exempt`
    /// marks ops that must never be shed (`shutdown`).
    pub fn try_admit(&self, expensive: bool, shed_exempt: bool) -> Admission {
        let max = self.max_inflight.load(Ordering::Relaxed);
        if max == 0 || shed_exempt {
            self.admit_one();
            return Admission::Admit;
        }
        let cur = self.inflight();
        let limit = if expensive { max } else { max.saturating_mul(CHEAP_HEADROOM) };
        if cur < limit {
            self.admit_one();
            Admission::Admit
        } else {
            self.shed.inc();
            Admission::Shed { retry_after_ms: self.retry_after_ms() }
        }
    }

    fn admit_one(&self) {
        let inflight = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        let queued = self.queued.fetch_add(1, Ordering::Relaxed) + 1;
        self.inflight_gauge.set(Self::clamped(inflight));
        self.depth_gauge.set(Self::clamped(queued));
    }

    /// A worker pulled the job off its queue (it is now executing, or
    /// about to be dropped as dead — either way no longer queued).
    pub fn job_dequeued(&self) {
        let queued = self.queued.fetch_sub(1, Ordering::Relaxed) - 1;
        self.depth_gauge.set(Self::clamped(queued));
    }

    /// The job produced its response (or was dropped): it no longer
    /// counts against the in-flight budget.
    pub fn job_done(&self) {
        let inflight = self.inflight.fetch_sub(1, Ordering::Relaxed) - 1;
        self.inflight_gauge.set(Self::clamped(inflight));
    }

    /// The back-off hint for a shed response: the estimated time for the
    /// current queue to drain, bounded so clients neither hammer nor
    /// give up.
    pub fn retry_after_ms(&self) -> u64 {
        (self.inflight() * DRAIN_MS_PER_JOB).clamp(RETRY_AFTER_MIN_MS, RETRY_AFTER_MAX_MS)
    }

    /// Counts a request answered in degraded (estimate) form.
    pub fn on_degraded(&self) {
        self.degraded.inc();
    }

    /// Counts a request abandoned before producing a real answer: a job
    /// dropped at dequeue because its connection died, or an op cut off
    /// mid-computation by its deadline / disconnect flag.
    pub fn on_cancelled(&self) {
        self.cancelled.inc();
    }

    /// Counts a request shed outside [`OverloadState::try_admit`]
    /// (tests and alternative dispatch loops).
    pub fn on_shed(&self) {
        self.shed.inc();
    }

    /// Current brownout tier (0 = exact answers everywhere).
    pub fn tier(&self) -> u64 {
        self.tier.load(Ordering::Relaxed)
    }

    /// Whether cold-hierarchy `region` should degrade to estimates (and
    /// cold-hierarchy `node` be shed).
    pub fn degrade_region(&self) -> bool {
        self.tier() >= 1
    }

    /// Whether `kappa` should degrade to the estimate interval.
    pub fn degrade_kappa(&self) -> bool {
        self.tier() >= 2
    }

    /// Recomputes the brownout tier from queue pressure and the p99 of
    /// requests completed since the previous call. Called at a steady
    /// cadence by the dispatch loop (roughly every 100 ms); requests
    /// never pay for it.
    pub fn recompute_tier(&self) -> u64 {
        let tier = match self.mode() {
            BrownoutMode::Off => 0,
            BrownoutMode::Forced(t) => t as u64,
            BrownoutMode::Auto => {
                let max = self.max_inflight.load(Ordering::Relaxed);
                let pressure = if max == 0 { 0.0 } else { self.inflight() as f64 / max as f64 };
                let p99 = self.recent_p99_micros();
                let prev = self.tier();
                // Enter on the high thresholds, leave on the low ones
                // (hysteresis: a tier holds itself until pressure AND
                // p99 drop below its exit thresholds).
                let enters = |press: f64, lat: u64| pressure >= press || p99 >= lat;
                if enters(TIER2_ENTER_PRESSURE, TIER2_ENTER_P99_US)
                    || (prev >= 2 && enters(TIER2_EXIT_PRESSURE, TIER2_EXIT_P99_US))
                {
                    2
                } else if enters(TIER1_ENTER_PRESSURE, TIER1_ENTER_P99_US)
                    || (prev >= 1 && enters(TIER1_EXIT_PRESSURE, TIER1_EXIT_P99_US))
                {
                    1
                } else {
                    0
                }
            }
        };
        self.tier.store(tier, Ordering::Relaxed);
        self.tier_gauge.set(tier);
        tier
    }

    /// p99 latency (µs) of requests completed since the previous call:
    /// the quantile of the bucket-wise delta between the current and the
    /// previously seen merge of every `request_micros{op=...}` histogram.
    /// Returns 0 when nothing completed in the window.
    pub fn recent_p99_micros(&self) -> u64 {
        let mut merged = HistogramSnapshot::empty();
        for (name, m) in Registry::global().snapshot() {
            if name.starts_with("request_micros") {
                if let MetricSnapshot::Histogram(h) = m {
                    merged.merge(&h);
                }
            }
        }
        let mut window = self.window.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let delta = subtract(&merged, &window.last);
        window.last = merged;
        delta.quantile(0.99)
    }

    /// Point-in-time accounting for the `stats` op.
    pub fn snapshot(&self) -> OverloadSnapshot {
        OverloadSnapshot {
            inflight: self.inflight(),
            queue_depth: self.queue_depth(),
            max_inflight: self.max_inflight(),
            tier: self.tier(),
            shed: self.shed.get(),
            degraded: self.degraded.get(),
            cancelled: self.cancelled.get(),
        }
    }
}

/// Bucket-wise histogram difference (`a - b`, saturating): the requests
/// recorded in `a` but not yet in `b`. `max` is inherited from `a` — an
/// upper bound for the delta, which only tightens the quantile clamp.
fn subtract(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    let mut out = HistogramSnapshot::empty();
    out.count = a.count.saturating_sub(b.count);
    out.sum = a.sum.saturating_sub(b.sum);
    out.max = a.max;
    for (i, slot) in out.buckets.iter_mut().enumerate() {
        *slot = a.buckets[i].saturating_sub(*b.buckets.get(i).unwrap_or(&0));
    }
    out
}

/// The dispatch loop's op classification, by sniffing the raw request
/// line without a full JSON parse: ops that can do graph-proportional
/// work (hierarchy materialization, exploration, updates, snapshots)
/// are expensive; bounded-cost ops are cheap and keep queueing under
/// load. Unknown and unparseable lines are cheap — they are answered
/// with an error in microseconds.
pub fn is_expensive_op(line: &str) -> bool {
    matches!(
        sniff_op(line),
        Some(
            "region"
                | "nuclei"
                | "node"
                | "estimate"
                | "update"
                | "insert"
                | "remove"
                | "save"
                | "checkpoint"
        )
    )
}

/// Ops the admission gate must never shed.
pub fn is_shed_exempt_op(line: &str) -> bool {
    sniff_op(line) == Some("shutdown")
}

/// Extracts the value of the top-level `"op"` field from a raw request
/// line with a scan, not a parse: finds `"op"` followed by `:` and a
/// quoted string. Misclassification is harmless — admission classes only
/// pick which budget applies; the real parse happens in the worker.
pub fn sniff_op(line: &str) -> Option<&str> {
    let key = line.find("\"op\"")?;
    let rest = &line[key + 4..];
    let colon = rest.find(':')?;
    let rest = rest[colon + 1..].trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(&rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sniffs_ops_from_raw_lines() {
        assert_eq!(sniff_op(r#"{"op":"region","space":"core"}"#), Some("region"));
        assert_eq!(sniff_op(r#"{ "op" : "stats" }"#), Some("stats"));
        assert_eq!(sniff_op(r#"{"space":"core","op":"kappa"}"#), Some("kappa"));
        assert_eq!(sniff_op("not json"), None);
        assert_eq!(sniff_op(r#"{"op":12}"#), None);
        assert!(is_expensive_op(r#"{"op":"region"}"#));
        assert!(!is_expensive_op(r#"{"op":"stats"}"#));
        assert!(!is_expensive_op("garbage"));
        assert!(is_shed_exempt_op(r#"{"op":"shutdown"}"#));
    }

    #[test]
    fn admission_budget_sheds_expensive_and_queues_cheap() {
        let st = OverloadState::new();
        st.set_max_inflight(2);
        assert_eq!(st.try_admit(true, false), Admission::Admit);
        assert_eq!(st.try_admit(true, false), Admission::Admit);
        // Budget full: expensive sheds, cheap still queues, shutdown passes.
        assert!(matches!(st.try_admit(true, false), Admission::Shed { .. }));
        assert_eq!(st.try_admit(false, false), Admission::Admit);
        assert_eq!(st.try_admit(true, true), Admission::Admit);
        assert_eq!(st.inflight(), 4);
        assert_eq!(st.queue_depth(), 4);
        // Cheap ops hit their own (larger) ceiling too.
        for _ in 0..CHEAP_HEADROOM * 2 {
            let _ = st.try_admit(false, false);
        }
        assert!(matches!(st.try_admit(false, false), Admission::Shed { .. }));
        // Draining restores admission.
        let drain = st.inflight();
        for _ in 0..drain {
            st.job_dequeued();
            st.job_done();
        }
        assert_eq!(st.inflight(), 0);
        assert_eq!(st.queue_depth(), 0);
        assert_eq!(st.try_admit(true, false), Admission::Admit);
        st.job_dequeued();
        st.job_done();
    }

    #[test]
    fn retry_after_scales_with_depth_and_is_bounded() {
        let st = OverloadState::new();
        st.set_max_inflight(1);
        assert_eq!(st.retry_after_ms(), RETRY_AFTER_MIN_MS);
        for _ in 0..10_000 {
            st.admit_one();
        }
        assert_eq!(st.retry_after_ms(), RETRY_AFTER_MAX_MS);
        for _ in 0..10_000 {
            st.job_dequeued();
            st.job_done();
        }
    }

    #[test]
    fn forced_and_off_modes_pin_the_tier() {
        let st = OverloadState::new();
        st.set_mode(BrownoutMode::Forced(2));
        assert_eq!(st.recompute_tier(), 2);
        assert!(st.degrade_kappa() && st.degrade_region());
        st.set_mode(BrownoutMode::Off);
        assert_eq!(st.recompute_tier(), 0);
        assert!(!st.degrade_region());
        assert_eq!(BrownoutMode::parse("auto"), Some(BrownoutMode::Auto));
        assert_eq!(BrownoutMode::parse("off"), Some(BrownoutMode::Off));
        assert_eq!(BrownoutMode::parse("1"), Some(BrownoutMode::Forced(1)));
        assert_eq!(BrownoutMode::parse("warp"), None);
    }

    #[test]
    fn auto_tier_follows_queue_pressure_with_hysteresis() {
        let st = OverloadState::new();
        st.set_mode(BrownoutMode::Auto);
        st.set_max_inflight(100);
        // Other tests in this process record into the global
        // `request_micros` histograms; draining the window right before
        // each recompute keeps its p99 delta effectively empty so only
        // queue pressure drives the tier here.
        let tick = |st: &OverloadState| {
            let _ = st.recent_p99_micros();
            st.recompute_tier()
        };
        assert_eq!(tick(&st), 0);
        for _ in 0..60 {
            st.admit_one();
        }
        assert_eq!(tick(&st), 1, "60% pressure enters tier 1");
        for _ in 0..35 {
            st.admit_one();
        }
        assert_eq!(tick(&st), 2, "95% pressure enters tier 2");
        for _ in 0..20 {
            st.job_dequeued();
            st.job_done();
        }
        assert_eq!(tick(&st), 2, "75% pressure holds tier 2 (hysteresis)");
        for _ in 0..35 {
            st.job_dequeued();
            st.job_done();
        }
        assert_eq!(tick(&st), 1, "40% pressure drops to tier 1, holds it");
        for _ in 0..40 {
            st.job_dequeued();
            st.job_done();
        }
        assert_eq!(tick(&st), 0, "idle returns to tier 0");
    }

    #[test]
    fn histogram_subtract_is_the_window_delta() {
        let mut a = HistogramSnapshot::empty();
        let mut b = HistogramSnapshot::empty();
        a.count = 10;
        a.sum = 1000;
        a.max = 500;
        a.buckets[3] = 4;
        a.buckets[9] = 6;
        b.count = 4;
        b.sum = 200;
        b.buckets[3] = 4;
        let d = subtract(&a, &b);
        assert_eq!(d.count, 6);
        assert_eq!(d.sum, 800);
        assert_eq!(d.buckets[3], 0);
        assert_eq!(d.buckets[9], 6);
    }
}
