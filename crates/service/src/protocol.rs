//! The line-delimited JSON request protocol.
//!
//! One request per line in, one response per line out, over stdin/stdout
//! or a TCP connection. Every response carries `"ok"` plus per-request
//! telemetry (`micros`, and op-specific counters: cliques peeled and
//! touched for updates, explored cliques for estimates).
//!
//! ```text
//! → {"op":"kappa","space":"core","id":4}
//! ← {"ok":true,"space":"core","id":4,"kappa":3,"vertices":[4],"micros":12}
//! → {"op":"estimate","space":"truss","vertices":[0,1],"iterations":3,"budget":4096}
//! ← {"ok":true,"estimate":2,"lower":2,"interval":[2,2],...}
//! → {"op":"update","insert":[[7,9]],"remove":[[0,3]]}
//! ← {"ok":true,"inserted":1,"removed":1,"spaces":[{"space":"core","processed":7,...}],...}
//! ```
//!
//! Ops: `stats`, `kappa`, `estimate`, `nuclei`, `region`, `node`,
//! `insert`, `remove`, `update`, `save`, `checkpoint`, `wal_stats`,
//! `metrics`, `slow_log`, `shutdown` (plus `debug_panic` and
//! `debug_stall` when debug ops are enabled). The normative op-by-op
//! specification (schemas, error shapes, semantics) lives in
//! `docs/PROTOCOL.md`, whose examples are replayed against a live
//! engine by `tests/protocol_doc_examples.rs`.
//!
//! ## Epochs: the read/write split
//!
//! A [`Server`] is a cheap **handle**; [`Server::handle`] mints siblings
//! sharing one engine. Read ops (`stats`, `kappa`, `estimate`, `nuclei`,
//! `region`, `node`, `save`, `metrics`, `slow_log`) pin the handle's
//! current epoch ([`crate::epoch::EpochReader`]) and answer from that
//! immutable view — wait-free, any number of threads, never blocked by a
//! refresh. Mutating ops (`insert`/`remove`/`update`, `checkpoint`,
//! `shutdown`) serialize on the single writer lane, build the next epoch
//! off to the side, and publish it *before* acking, so a synchronous
//! client always reads its own writes. `update`-family responses and
//! `stats` carry the `epoch` field (the published / pinned epoch id).
//!
//! ## Timing fields on the wire
//!
//! Every duration crosses the wire in **microseconds** under a key that
//! ends in `micros` (`micros`, `build_micros`, `splice_micros`, ...).
//! Internally the same numbers live in Rust struct fields named with the
//! `_us` suffix (`build_us`, `splice_us`); the protocol layer is the only
//! place the rename happens, and `timing_keys_are_micros_only` pins the
//! complete set of emitted timing keys so a new field cannot drift into a
//! third convention (`_ms`, `_seconds`, bare names) unnoticed. The
//! sanctioned exceptions: the `stats` op's `uptime_seconds` (named with
//! its unit for the same reason) and `retry_after_ms` on `overloaded`
//! errors — a client back-off *hint* derived from queue depth, not a
//! measured duration.
//!
//! ## Telemetry
//!
//! Every request — including failed ones — is counted in the global
//! metrics registry (`requests_total`, `requests_failed_total`) and its
//! latency recorded in a per-op histogram (`request_micros{op=...}`).
//! Responses always carry `micros`, success or failure. The `metrics` op
//! returns the whole registry as JSON (the same data `--metrics-addr`
//! exposes as Prometheus text); `slow_log` returns the bounded in-memory
//! log of requests that exceeded the `--trace-slow-ms` threshold, each
//! with its recorded span tree. When tracing is armed, an over-threshold
//! response also carries its own `trace` array inline.
//!
//! ## Durability
//!
//! When the server is opened over a durability directory (`--durable DIR`),
//! every `insert`/`remove`/`update` batch is appended to the write-ahead
//! log and fsynced per policy *before* the engine applies it; the response
//! then carries the batch's `wal_seq`. `checkpoint` folds the engine into
//! an atomic snapshot (temp file + rename) and truncates the WAL;
//! `wal_stats` reports log telemetry plus the startup recovery report
//! (records replayed, and where the open's time went).
//! `save` writes a point-in-time snapshot to an arbitrary path with the
//! same temp-file + rename + fsync discipline.
//!
//! ## Deadlines, cancellation, and overload
//!
//! Any read or update op may carry `"deadline_ms": N`. The deadline is
//! carried as a [`CancelToken`] into the nucleus kernels and checked at
//! chunk boundaries (every 1024 items of an update's peel, hierarchy
//! union-find batches), so work aborts *mid-computation* with bounded
//! overshoot and answers `deadline exceeded (<stage>)`, naming the stage
//! that stopped. Estimates degrade gracefully instead (exploration stops,
//! `"truncated":true`). The TCP front-end threads each connection's
//! disconnect flag through the same token, so work for a dead client
//! stops at its next chunk (`request cancelled (<stage>)`, counted in
//! `requests_cancelled_total`). Durable updates check the deadline only
//! *before* the WAL append — a logged batch is always applied.
//!
//! Under load, the dispatch loop sheds requests with
//! `{"ok":false,"error":"overloaded","retry_after_ms":N}` and a brownout
//! controller ([`crate::overload`]) degrades exact `kappa`/`region`
//! answers to budgeted Theorem-1 estimates marked `"degraded":true` —
//! see the "Overload & degradation" section of `docs/PROTOCOL.md`.
//!
//! Every request is additionally hardened: a panicking handler is caught
//! and answered with `{"ok":false,"error":"internal panic: ..."}`, and the
//! server keeps serving.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use hdsd_graph::VertexId;
use hdsd_nucleus::{CancelToken, QueryOptions};
use hdsd_telemetry::{counter_add, labeled, trace, Gauge, Histogram, MetricSnapshot, Registry};

use crate::engine::{Engine, EngineView, RegionReport, SpaceSel};
use crate::epoch::{EpochCell, EpochReader};
use crate::json::{obj, Json};
use crate::overload::OverloadState;
use crate::recovery::Durability;
use crate::wal::FailPoints;

/// Sentinel for "slow tracing disabled" in [`Shared::trace_slow_us`].
const TRACE_DISABLED: u64 = u64::MAX;

/// The error string of a shed request; [`Server::handle_line`] attaches
/// `retry_after_ms` to any failure carrying exactly this message, so the
/// dispatch loop and in-handler sheds produce one wire shape.
pub const OVERLOADED: &str = "overloaded";

/// Exploration budget of a brownout-degraded answer: small enough that a
/// degraded request is always cheap, large enough that the Theorem-1
/// interval is useful on real graphs.
const DEGRADED_BUDGET: usize = 512;

/// The single writer lane: the engine plus its durability state, behind
/// one mutex. Every mutating op (`insert`/`remove`/`update`,
/// `checkpoint`, `shutdown`) locks it, appends to the WAL *first*, builds
/// the next epoch through [`Engine::update`], and publishes it; read ops
/// never touch this lock.
struct WriterLane {
    engine: Engine,
    durability: Option<Durability>,
}

/// State shared by every [`Server`] handle of one serving process.
struct Shared {
    /// The epoch publication point: readers pin it, the writer lane
    /// publishes into it after every applied batch.
    cell: Arc<EpochCell<EngineView>>,
    writer: Mutex<WriterLane>,
    debug_ops: AtomicBool,
    started: Instant,
    requests: AtomicU64,
    failed: AtomicU64,
    /// Requests slower than this (µs) get their span tree attached and
    /// are pushed to the slow-query log; [`TRACE_DISABLED`] turns slow
    /// tracing off.
    trace_slow_us: AtomicU64,
    /// Whether this server runs over a durability directory (immutable
    /// for the process lifetime, so `stats` can answer without locking).
    durable: bool,
    /// Mirrors of the WAL's generation / record count, refreshed by the
    /// writer lane after every durable op so the read-lane `stats` op
    /// reports them without taking the writer lock.
    wal_generation: AtomicU64,
    wal_seq: AtomicU64,
    /// Overload accounting and the brownout tier, shared with the
    /// dispatch loop (which drives admission and the controller).
    overload: Arc<OverloadState>,
}

/// Stateful request handler wrapping an [`Engine`], optionally backed by
/// a durability directory (WAL + checkpoints).
///
/// A `Server` is a **handle**: [`Server::handle`] mints siblings that
/// share the engine, durability state, and request counters but own
/// their own epoch reader — one handle per connection-serving thread.
/// Read ops pin the handle's epoch and run wait-free; write ops
/// serialize on the shared writer lane and publish the next epoch.
pub struct Server {
    shared: Arc<Shared>,
    /// This handle's pinned-epoch reader (the wait-free read path).
    reader: EpochReader<EngineView>,
    /// Cached per-op latency histogram handles (op labels are a small
    /// closed set, so each registry lookup happens once per op).
    op_hist: HashMap<&'static str, Arc<Histogram>>,
    /// Cached registry handles for the epoch metadata metrics.
    epoch_gauge: Arc<Gauge>,
    lag_gauge: Arc<Gauge>,
    publish_hist: Arc<Histogram>,
}

/// Renders a caught panic payload as a response error string.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string payload".to_string());
    format!("internal panic: {msg}")
}

/// What [`optional`] names for the integer fields.
const INTEGER: &str = "a non-negative integer";

/// An optional request field read through `parse`: `None` when absent, an
/// error naming `field` and the expected `kind` when present but
/// malformed — never a silent default.
fn optional<'a, T>(
    req: &'a Json,
    field: &str,
    parse: impl FnOnce(&'a Json) -> Option<T>,
    kind: &str,
) -> Result<Option<T>, String> {
    match req.get(field) {
        None => Ok(None),
        Some(v) => parse(v).map(Some).ok_or_else(|| format!("\"{field}\" must be {kind}")),
    }
}

/// A handled request: the response line plus whether to shut down.
pub struct Handled {
    /// Response JSON (no trailing newline).
    pub response: String,
    /// True when the request asked the server to stop.
    pub shutdown: bool,
}

impl Server {
    /// Wraps an engine (no durability: updates live only in memory).
    pub fn new(engine: Engine) -> Server {
        Self::build(engine, None)
    }

    /// Wraps a recovered engine together with its durability state: every
    /// accepted update batch is WAL-logged before it is applied.
    pub fn with_durability(engine: Engine, durability: Durability) -> Server {
        Self::build(engine, Some(durability))
    }

    fn build(engine: Engine, durability: Option<Durability>) -> Server {
        let cell = Arc::new(EpochCell::new(engine.view()));
        let durable = durability.is_some();
        let (wal_generation, wal_seq) = durability
            .as_ref()
            .map(|d| {
                let w = d.wal_stats();
                (w.generation, w.records)
            })
            .unwrap_or((0, 0));
        let shared = Arc::new(Shared {
            cell,
            writer: Mutex::new(WriterLane { engine, durability }),
            debug_ops: AtomicBool::new(false),
            started: Instant::now(),
            requests: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            trace_slow_us: AtomicU64::new(TRACE_DISABLED),
            durable,
            wal_generation: AtomicU64::new(wal_generation),
            wal_seq: AtomicU64::new(wal_seq),
            overload: OverloadState::new(),
        });
        Self::from_shared(shared)
    }

    fn from_shared(shared: Arc<Shared>) -> Server {
        let reader = shared.cell.reader();
        let reg = Registry::global();
        Server {
            reader,
            op_hist: HashMap::new(),
            epoch_gauge: reg.gauge("epoch_id"),
            lag_gauge: reg.gauge("reader_epoch_lag"),
            publish_hist: reg.histogram("epoch_publish_micros"),
            shared,
        }
    }

    /// Mints a sibling handle sharing this server's engine, durability
    /// lane, and counters, with its own epoch reader — one per
    /// connection-serving thread.
    pub fn handle(&self) -> Server {
        Self::from_shared(Arc::clone(&self.shared))
    }

    /// Enables the `debug_panic` op (fault drills and tests only).
    pub fn enable_debug_ops(&mut self) {
        self.shared.debug_ops.store(true, Ordering::Relaxed);
    }

    /// Arms slow-request tracing: requests slower than `us` microseconds
    /// return their span tree and land in the slow-query log. Also flips
    /// the process-wide span-recording switch. Applies to every handle of
    /// this server.
    pub fn set_trace_slow_us(&mut self, us: Option<u64>) {
        self.shared.trace_slow_us.store(us.unwrap_or(TRACE_DISABLED), Ordering::Relaxed);
        trace::set_enabled(us.is_some());
    }

    /// Whether this server runs over a durability directory.
    pub fn is_durable(&self) -> bool {
        self.shared.durable
    }

    /// The process-wide overload state shared by every handle: the
    /// dispatch loop configures the in-flight budget and brownout mode
    /// on it and ticks the controller; handlers consult the tier and
    /// count sheds/degrades/cancellations into it.
    pub fn overload(&self) -> Arc<OverloadState> {
        Arc::clone(&self.shared.overload)
    }

    /// The writer lane, with poisoning ignored: a panic mid-request is
    /// already contained by `handle_line`'s catch, and the lane's engine
    /// swaps views atomically (a poisoned lock never holds a torn epoch).
    fn write_lane(&self) -> MutexGuard<'_, WriterLane> {
        self.shared.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Refreshes the lock-free WAL stats mirror after a durable op.
    fn refresh_wal_mirror(&self, lane: &WriterLane) {
        if let Some(d) = lane.durability.as_ref() {
            let w = d.wal_stats();
            self.shared.wal_generation.store(w.generation, Ordering::Relaxed);
            self.shared.wal_seq.store(w.records, Ordering::Relaxed);
        }
    }

    /// Flushes pending WAL appends and takes an atomic checkpoint — the
    /// graceful-shutdown path (signal handlers, EOF). No-op without
    /// durability.
    pub fn drain_and_checkpoint(&mut self) -> Result<(), String> {
        let mut lane = self.write_lane();
        let lane = &mut *lane;
        if let Some(d) = lane.durability.as_mut() {
            d.sync().map_err(|e| format!("WAL sync: {e}"))?;
            d.checkpoint(&lane.engine).map_err(|e| format!("checkpoint: {e}"))?;
        }
        self.refresh_wal_mirror(lane);
        Ok(())
    }

    /// Point-in-time statistics of the engine's current epoch (startup
    /// banners, tests).
    pub fn engine_stats(&mut self) -> crate::engine::EngineStats {
        self.reader.pin().0.stats()
    }

    /// Canonical metric label for a request's op: known ops map to
    /// themselves, unknown ops collapse to `"other"`, and unparseable
    /// requests (bad JSON, missing `op`) to `"invalid"` — a closed set, so
    /// a hostile client cannot grow the registry unboundedly.
    fn op_key(op: Option<&str>) -> &'static str {
        match op {
            None => "invalid",
            Some("stats") => "stats",
            Some("kappa") => "kappa",
            Some("estimate") => "estimate",
            Some("nuclei") => "nuclei",
            Some("region") => "region",
            Some("node") => "node",
            Some("insert") => "insert",
            Some("remove") => "remove",
            Some("update") => "update",
            Some("save") => "save",
            Some("checkpoint") => "checkpoint",
            Some("wal_stats") => "wal_stats",
            Some("metrics") => "metrics",
            Some("slow_log") => "slow_log",
            Some("debug_panic") => "debug_panic",
            Some("debug_stall") => "debug_stall",
            Some("shutdown") => "shutdown",
            Some(_) => "other",
        }
    }

    /// The per-op request-latency histogram, registered on first use.
    fn op_histogram(&mut self, op: &'static str) -> &Histogram {
        self.op_hist.entry(op).or_insert_with(|| {
            Registry::global().histogram(&labeled("request_micros", &[("op", op)]))
        })
    }

    /// Handles one request line, returning the response line. A handler
    /// panic is contained here: the client gets `{"ok":false}` with the
    /// panic message and the server keeps serving. Success or failure, the
    /// response carries `micros` and the request is counted in the per-op
    /// latency histogram.
    pub fn handle_line(&mut self, line: &str) -> Handled {
        self.handle_line_under(line, &CancelToken::none())
    }

    /// [`Server::handle_line`] under a connection-scoped cancellation
    /// token (the dispatch loop's disconnect/shed flag). Each op combines
    /// it with its own `deadline_ms`, so a dead client stops burning CPU
    /// at the next kernel chunk boundary instead of running to
    /// completion.
    pub fn handle_line_under(&mut self, line: &str, conn_cancel: &CancelToken) -> Handled {
        let start = Instant::now();
        let request_id = self.shared.requests.fetch_add(1, Ordering::Relaxed) + 1;
        let slow_us = self.shared.trace_slow_us.load(Ordering::Relaxed);
        let tracing = slow_us != TRACE_DISABLED && trace::enabled();
        if tracing {
            trace::begin();
        }
        let parsed = Json::parse(line.trim());
        let op = Self::op_key(match &parsed {
            Ok(req) => req.get("op").and_then(Json::as_str),
            Err(_) => None,
        });
        let outcome = match &parsed {
            Err(e) => Err(format!("bad JSON: {e}")),
            Ok(req) => catch_unwind(AssertUnwindSafe(|| self.dispatch(req, conn_cancel)))
                .unwrap_or_else(|payload| Err(panic_message(&*payload))),
        };
        let failed = outcome.is_err();
        let (mut response, shutdown) = match outcome {
            Ok((fields, shutdown)) => {
                let mut members = vec![("ok".to_string(), Json::Bool(true))];
                if let Json::Obj(rest) = fields {
                    members.extend(rest);
                }
                (Json::Obj(members), shutdown)
            }
            Err(e) => {
                if Self::is_cancellation(&e) {
                    self.shared.overload.on_cancelled();
                }
                let mut members = vec![
                    ("ok".to_string(), Json::Bool(false)),
                    ("error".to_string(), e.as_str().into()),
                ];
                if e == OVERLOADED {
                    members.push((
                        "retry_after_ms".to_string(),
                        self.shared.overload.retry_after_ms().into(),
                    ));
                }
                (Json::Obj(members), false)
            }
        };
        let micros = start.elapsed().as_micros() as u64;
        if let Json::Obj(members) = &mut response {
            members.push(("micros".to_string(), micros.into()));
        }
        counter_add!("requests_total", 1);
        if failed {
            self.shared.failed.fetch_add(1, Ordering::Relaxed);
            counter_add!("requests_failed_total", 1);
        }
        self.op_histogram(op).record(micros);
        if tracing {
            let tr = trace::take();
            if micros >= slow_us {
                if let Json::Obj(members) = &mut response {
                    members.push(("trace".to_string(), trace_json(&tr)));
                }
                trace::slow_log_push(request_id, op, micros, tr);
            }
        }
        Handled { response: response.to_string(), shutdown }
    }

    /// Whether an error string is a cooperative-cancellation outcome (a
    /// deadline or disconnect cutting the op off) rather than a client
    /// mistake — the messages are the pinned [`hdsd_nucleus::Cancelled`]
    /// renderings.
    fn is_cancellation(e: &str) -> bool {
        e.starts_with("deadline exceeded (") || e.starts_with("request cancelled (")
    }

    fn dispatch(&mut self, req: &Json, conn_cancel: &CancelToken) -> Result<(Json, bool), String> {
        let op = req
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing string field \"op\"".to_string())?;
        // The request's full cancellation scope: the connection's
        // disconnect/shed flag plus this request's own `deadline_ms`.
        let cancel = conn_cancel.clone().and_deadline(Self::deadline_of(req)?);
        // Write-lane ops: serialize on the writer mutex, publish an epoch.
        match op {
            "insert" => return Ok((self.update(Some(req), None, &cancel)?, false)),
            "remove" => return Ok((self.update(None, Some(req), &cancel)?, false)),
            "update" => return Ok((self.update(Some(req), Some(req), &cancel)?, false)),
            "checkpoint" => return Ok((self.checkpoint_op()?, false)),
            "wal_stats" => return Ok((self.wal_stats_op()?, false)),
            "shutdown" => {
                let mut fields = vec![("bye".to_string(), true.into())];
                if self.shared.durable {
                    self.drain_and_checkpoint()?;
                    fields.push(("checkpointed".to_string(), true.into()));
                }
                return Ok((Json::Obj(fields), true));
            }
            _ => {}
        }
        // Read-lane ops: pin this handle's epoch and answer from it —
        // wait-free with respect to the writer and every other reader.
        self.lag_gauge.set(self.reader.lag());
        let (view, epoch) = self.reader.pin();
        let view = Arc::clone(view);
        let fields = match op {
            "stats" => self.stats(&view, epoch),
            "kappa" => self.kappa(&view, req)?,
            "estimate" => Self::estimate(&view, req)?,
            "nuclei" => Self::nuclei(&view, req, &cancel)?,
            "region" => self.region(&view, req, &cancel)?,
            "node" => self.node(&view, req, &cancel)?,
            "save" => Self::save(&view, req)?,
            "metrics" => obj([("metrics", metrics_json(Registry::global()))]),
            "slow_log" => slow_log_json(),
            "debug_panic" if self.shared.debug_ops.load(Ordering::Relaxed) => {
                panic!("debug_panic op fired")
            }
            "debug_stall" if self.shared.debug_ops.load(Ordering::Relaxed) => {
                Self::debug_stall(req, &cancel)?
            }
            other => return Err(format!("unknown op {other:?}")),
        };
        Ok((fields, false))
    }

    /// `debug_stall` (debug ops only): occupies this reader worker for
    /// `ms` milliseconds, honoring cancellation — the chaos harness's
    /// stand-in for a request stuck in a slow kernel.
    fn debug_stall(req: &Json, cancel: &CancelToken) -> Result<Json, String> {
        let ms = optional(req, "ms", Json::as_u64, INTEGER)?.unwrap_or(100).min(10_000);
        let until = Instant::now() + Duration::from_millis(ms);
        let armed = cancel.is_armed();
        while Instant::now() < until {
            if armed {
                cancel.check("debug stall").map_err(String::from)?;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(obj([("stalled_ms", ms.into())]))
    }

    fn space_of(req: &Json) -> Result<SpaceSel, String> {
        let name = req
            .get("space")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing string field \"space\"".to_string())?;
        SpaceSel::parse(name).ok_or_else(|| format!("unknown space {name:?} (core|truss|34)"))
    }

    /// Resolves the addressed clique: `"id"` directly, or `"vertices"`
    /// (vertex / edge endpoints / triangle) through the pinned view's
    /// lexicographic r-clique list ([`EngineView::resolve`]).
    fn clique_of(view: &EngineView, req: &Json, sel: SpaceSel) -> Result<usize, String> {
        if let Some(id) = optional(req, "id", Json::as_usize, INTEGER)? {
            return Ok(id);
        }
        if let Some(vs) = req.get("vertices") {
            let vs = vs.as_array().ok_or("\"vertices\" must be an array")?;
            let verts = vs
                .iter()
                .map(|v| {
                    let x = v.as_u64().ok_or("\"vertices\" must contain non-negative integers")?;
                    VertexId::try_from(x).map_err(|_| format!("vertex {x} out of range"))
                })
                .collect::<Result<Vec<_>, String>>()?;
            return view.resolve(sel, &verts);
        }
        Err("request needs \"id\" or \"vertices\"".to_string())
    }

    fn stats(&self, view: &EngineView, epoch: u64) -> Json {
        let s = view.stats();
        let mut members = vec![
            ("vertices".to_string(), s.vertices.into()),
            ("edges".to_string(), s.edges.into()),
            ("updates_applied".to_string(), s.updates_applied.into()),
            ("epoch".to_string(), epoch.into()),
            ("requests_total".to_string(), self.shared.requests.load(Ordering::Relaxed).into()),
            ("requests_failed".to_string(), self.shared.failed.load(Ordering::Relaxed).into()),
            ("uptime_seconds".to_string(), self.shared.started.elapsed().as_secs().into()),
        ];
        if self.shared.durable {
            members.push((
                "wal_generation".to_string(),
                self.shared.wal_generation.load(Ordering::Relaxed).into(),
            ));
            members
                .push(("wal_seq".to_string(), self.shared.wal_seq.load(Ordering::Relaxed).into()));
        }
        let o = self.shared.overload.snapshot();
        members.push((
            "overload".to_string(),
            obj([
                ("inflight", o.inflight.into()),
                ("queue_depth", o.queue_depth.into()),
                ("max_inflight", o.max_inflight.into()),
                ("brownout_tier", o.tier.into()),
                ("shed", o.shed.into()),
                ("degraded", o.degraded.into()),
                ("cancelled", o.cancelled.into()),
            ]),
        ));
        members.push((
            "spaces".to_string(),
            s.spaces
                .iter()
                .map(|sp| {
                    obj([
                        ("space", sp.space.as_str().into()),
                        ("cliques", sp.cliques.into()),
                        ("max_kappa", sp.max_kappa.into()),
                        ("hierarchy_resident", sp.hierarchy_resident.into()),
                        ("build_micros", sp.build_us.into()),
                        ("peel_micros", sp.peel_us.into()),
                    ])
                })
                .collect(),
        ));
        Json::Obj(members)
    }

    fn kappa(&self, view: &EngineView, req: &Json) -> Result<Json, String> {
        let sel = Self::space_of(req)?;
        let id = Self::clique_of(view, req, sel)?;
        // Brownout tier 2: the whole op family answers the budgeted
        // Theorem-1 interval, so overloaded clients observe one uniform
        // `degraded:true` contract and back off.
        if self.shared.overload.degrade_kappa() {
            return self.degraded_estimate(view, req, sel, id);
        }
        let kappa = view.kappa_of(sel, id)?;
        let vertices = view.clique_vertices(sel, id)?;
        Ok(obj([
            ("space", sel.name().into()),
            ("id", id.into()),
            ("kappa", kappa.into()),
            ("vertices", vertices.into_iter().collect()),
        ]))
    }

    /// The brownout answer: a budgeted Theorem-1 estimate in place of the
    /// exact or hierarchy-backed answer, marked `degraded:true` with its
    /// `[lower, estimate]` interval. Cost is bounded by
    /// [`DEGRADED_BUDGET`] regardless of graph size.
    fn degraded_estimate(
        &self,
        view: &EngineView,
        req: &Json,
        sel: SpaceSel,
        id: usize,
    ) -> Result<Json, String> {
        let opts = QueryOptions {
            iterations: 2,
            budget: Some(DEGRADED_BUDGET),
            lower_bound: true,
            deadline: Self::deadline_of(req)?,
        };
        let est = view.estimate(sel, id, &opts)?;
        self.shared.overload.on_degraded();
        Ok(obj([
            ("space", sel.name().into()),
            ("id", id.into()),
            ("degraded", true.into()),
            ("brownout_tier", self.shared.overload.tier().into()),
            ("estimate", est.estimate.into()),
            ("lower", est.lower.into()),
            ("interval", [est.lower, est.estimate].into_iter().collect()),
            ("explored", est.explored.into()),
            ("truncated", est.truncated.into()),
        ]))
    }

    /// Parses an optional `"deadline_ms"` field into an absolute instant.
    fn deadline_of(req: &Json) -> Result<Option<Instant>, String> {
        let ms = optional(req, "deadline_ms", Json::as_u64, INTEGER)?;
        Ok(ms.map(|ms| Instant::now() + Duration::from_millis(ms)))
    }

    fn estimate(view: &EngineView, req: &Json) -> Result<Json, String> {
        let sel = Self::space_of(req)?;
        let id = Self::clique_of(view, req, sel)?;
        let opts = QueryOptions {
            iterations: optional(req, "iterations", Json::as_usize, INTEGER)?.unwrap_or(3),
            budget: optional(req, "budget", Json::as_usize, INTEGER)?,
            lower_bound: optional(req, "lower_bound", Json::as_bool, "a boolean")?.unwrap_or(true),
            deadline: Self::deadline_of(req)?,
        };
        let est = view.estimate(sel, id, &opts)?;
        Ok(obj([
            ("space", sel.name().into()),
            ("id", id.into()),
            ("estimate", est.estimate.into()),
            ("lower", est.lower.into()),
            ("interval", [est.lower, est.estimate].into_iter().collect()),
            ("degree", est.degree.into()),
            ("explored", est.explored.into()),
            ("iterations", est.iterations.into()),
            ("truncated", est.truncated.into()),
        ]))
    }

    fn nuclei(view: &EngineView, req: &Json, cancel: &CancelToken) -> Result<Json, String> {
        let sel = Self::space_of(req)?;
        let k = req
            .get("k")
            .and_then(Json::as_u64)
            .ok_or_else(|| "missing integer field \"k\"".to_string())?;
        let k = u32::try_from(k).map_err(|_| format!("\"k\" must be at most {}", u32::MAX))?;
        let limit = optional(req, "limit", Json::as_usize, INTEGER)?.unwrap_or(32);
        let nuclei = view.nuclei_at_under(sel, k, cancel)?;
        let total = nuclei.len();
        Ok(obj([
            ("space", sel.name().into()),
            ("k", k.into()),
            ("total", total.into()),
            (
                "nuclei",
                nuclei
                    .into_iter()
                    .take(limit)
                    .map(|n| {
                        obj([("node", n.node.into()), ("k", n.k.into()), ("size", n.size.into())])
                    })
                    .collect(),
            ),
        ]))
    }

    fn region_json(r: RegionReport, sel: SpaceSel, max_vertices: usize) -> Json {
        let total = r.vertices.len();
        obj([
            ("space", sel.name().into()),
            ("node", r.node.into()),
            ("k", r.k.into()),
            ("size", r.size.into()),
            ("num_vertices", total.into()),
            ("vertices", r.vertices.into_iter().take(max_vertices).collect()),
            ("edges", r.density.edges.into()),
            ("density", r.density.density.into()),
        ])
    }

    fn region(&self, view: &EngineView, req: &Json, cancel: &CancelToken) -> Result<Json, String> {
        let sel = Self::space_of(req)?;
        let id = Self::clique_of(view, req, sel)?;
        let max_vertices = optional(req, "max_vertices", Json::as_usize, INTEGER)?.unwrap_or(64);
        // Brownout tier 1+: when the hierarchy is cold (the exact answer
        // would pay a full materialization), answer the budgeted
        // estimate instead. A resident hierarchy keeps answering exactly
        // — a tree walk is cheap at any tier.
        if self.shared.overload.degrade_region() && !view.hierarchy_resident(sel)? {
            return self.degraded_estimate(view, req, sel, id);
        }
        let r = view.region_of_under(sel, id, cancel)?;
        Ok(Self::region_json(r, sel, max_vertices))
    }

    fn node(&self, view: &EngineView, req: &Json, cancel: &CancelToken) -> Result<Json, String> {
        let sel = Self::space_of(req)?;
        let node = req
            .get("node")
            .and_then(Json::as_u64)
            .ok_or_else(|| "missing integer field \"node\"".to_string())?;
        let node =
            u32::try_from(node).map_err(|_| format!("hierarchy node {node} out of range"))?;
        let max_vertices = optional(req, "max_vertices", Json::as_usize, INTEGER)?.unwrap_or(64);
        if self.shared.overload.degrade_region() && !view.hierarchy_resident(sel)? {
            // A node id is a forest index, not a clique: without the
            // hierarchy there is nothing to estimate, so shed with the
            // standard back-off hint, in every space.
            self.shared.overload.on_shed();
            return Err(OVERLOADED.to_string());
        }
        let r = view.node_region_under(sel, node, cancel)?;
        Ok(Self::region_json(r, sel, max_vertices))
    }

    fn edges_field(req: &Json, field: &str) -> Result<Vec<(VertexId, VertexId)>, String> {
        let xs = match req.get(field) {
            None => return Ok(Vec::new()),
            Some(v) => v.as_array().ok_or(format!("\"{field}\" must be an array of [u, v]"))?,
        };
        xs.iter()
            .map(|pair| {
                let p = pair.as_array().filter(|p| p.len() == 2);
                match p {
                    Some([u, v]) => match (u.as_u64(), v.as_u64()) {
                        (Some(u), Some(v)) => {
                            match (VertexId::try_from(u), VertexId::try_from(v)) {
                                (Ok(u), Ok(v)) => Ok((u, v)),
                                _ => Err(format!(
                                    "\"{field}\" edge [{u},{v}]: vertex {} is out of range",
                                    u.max(v)
                                )),
                            }
                        }
                        _ => Err(format!("\"{field}\" entries must be integer pairs")),
                    },
                    _ => Err(format!("\"{field}\" entries must be [u, v] pairs")),
                }
            })
            .collect()
    }

    fn update(
        &mut self,
        ins_req: Option<&Json>,
        rm_req: Option<&Json>,
        cancel: &CancelToken,
    ) -> Result<Json, String> {
        let insert = match ins_req {
            Some(req) => {
                let named = Self::edges_field(req, "insert")?;
                if named.is_empty() {
                    Self::edges_field(req, "edges")?
                } else {
                    named
                }
            }
            None => Vec::new(),
        };
        let remove = match rm_req {
            Some(req) => {
                let named = Self::edges_field(req, "remove")?;
                if named.is_empty() && ins_req.is_none() {
                    Self::edges_field(req, "edges")?
                } else {
                    named
                }
            }
            None => Vec::new(),
        };
        if insert.is_empty() && remove.is_empty() {
            return Err("empty update: provide \"insert\"/\"remove\" (or \"edges\")".to_string());
        }
        // Writer lane: one mutating request at a time. Readers keep
        // answering from their pinned epochs for the whole duration.
        let mut lane = self.write_lane();
        let lane = &mut *lane;
        Self::validate_batch(&lane.engine, &insert, &remove)?;
        // A request already past its deadline (or whose client is gone)
        // is refused *before* the WAL sees it. Once the batch is
        // appended it is durable and MUST be applied — a cancelled
        // post-append update would replay on recovery — so the engine
        // gets an unarmed token on the durable path. In-memory servers
        // keep the full token: a mid-update trip just drops the
        // unpublished next epoch.
        if cancel.is_armed() {
            cancel.check("before update").map_err(String::from)?;
        }
        // Durable path: the batch reaches the log (synced per policy)
        // before the engine sees it. If the append fails, nothing was
        // applied and the client is told so in those words.
        let wal_seq = match lane.durability.as_mut() {
            Some(d) => Some(
                d.append(&insert, &remove)
                    .map_err(|e| format!("WAL append failed; update NOT applied: {e}"))?,
            ),
            None => None,
        };
        let effective = if wal_seq.is_some() { CancelToken::none() } else { cancel.clone() };
        let t_publish = Instant::now();
        let report =
            lane.engine.update_within(&insert, &remove, &effective).map_err(String::from)?;
        // Publish before acking so this client (and anyone it tells)
        // observes its own write on the very next read.
        let epoch = self.shared.cell.publish(lane.engine.view());
        self.publish_hist.record(t_publish.elapsed().as_micros() as u64);
        self.epoch_gauge.set(epoch);
        self.refresh_wal_mirror(lane);
        let mut fields = obj([
            ("inserted", report.inserted.into()),
            ("removed", report.removed.into()),
            ("wall_micros", report.wall_us.into()),
            ("graph_delta_micros", report.graph_delta_us.into()),
            ("hierarchy_repair_micros", report.hierarchy_repair_us.into()),
            (
                "spaces",
                report
                    .spaces
                    .iter()
                    .map(|s| {
                        let mut fields = vec![
                            ("space".to_string(), s.space.into()),
                            ("processed".to_string(), s.processed.into()),
                            ("awake".to_string(), s.awake.into()),
                            ("splice_micros".to_string(), s.splice_us.into()),
                            ("refresh_micros".to_string(), s.refresh_us.into()),
                        ];
                        if let Some(hr) = &s.hierarchy_repair {
                            fields.push((
                                "hierarchy_repair".to_string(),
                                obj([
                                    ("repair_micros", hr.repair_us.into()),
                                    ("preserved_subtrees", hr.preserved_subtrees.into()),
                                    ("preserved_nodes", hr.preserved_nodes.into()),
                                    ("rebuilt_nodes", hr.rebuilt_nodes.into()),
                                    ("dirty_cliques", hr.dirty_cliques.into()),
                                    ("scanned_scliques", hr.scanned_scliques.into()),
                                    ("full_rebuild", hr.full_rebuild.into()),
                                ]),
                            ));
                        }
                        Json::Obj(fields)
                    })
                    .collect(),
            ),
        ]);
        if let Json::Obj(members) = &mut fields {
            if let Some(seq) = wal_seq {
                members.push(("wal_seq".to_string(), seq.into()));
            }
            members.push(("epoch".to_string(), epoch.into()));
        }
        Ok(fields)
    }

    /// Rejects malformed batches before anything (WAL or engine) sees
    /// them: self-loops, duplicate edges within a batch, an edge both
    /// inserted and removed, and vertex ids far beyond the current graph
    /// (a garbage id would otherwise allocate per-vertex arrays to match
    /// it). Errors name the offending edge; nothing is partially applied.
    fn validate_batch(
        engine: &Engine,
        insert: &[(VertexId, VertexId)],
        remove: &[(VertexId, VertexId)],
    ) -> Result<(), String> {
        /// New vertex ids a single insert batch may introduce.
        const MAX_VERTEX_GROWTH: u64 = 1 << 20;
        let n = engine.graph().num_vertices() as u64;
        let cap = n + MAX_VERTEX_GROWTH;
        let mut seen = std::collections::HashSet::new();
        for (label, edges, limit) in [("insert", insert, cap), ("remove", remove, n)] {
            for &(u, v) in edges {
                if u == v {
                    return Err(format!("{label} edge [{u},{v}] is a self-loop"));
                }
                let big = u64::from(u.max(v));
                if big >= limit {
                    return Err(if label == "remove" {
                        format!(
                            "remove edge [{u},{v}]: vertex {big} is out of range \
                             (graph has {n} vertices)"
                        )
                    } else {
                        format!(
                            "insert edge [{u},{v}]: vertex {big} is out of range \
                             (graph has {n} vertices; one batch may introduce ids \
                             up to {})",
                            cap - 1
                        )
                    });
                }
                if !seen.insert((label, (u.min(v), u.max(v)))) {
                    return Err(format!("{label} edge [{u},{v}] appears twice in the batch"));
                }
            }
        }
        for &(u, v) in remove {
            if seen.contains(&("insert", (u.min(v), u.max(v)))) {
                return Err(format!("edge [{u},{v}] is both inserted and removed in one batch"));
            }
        }
        Ok(())
    }

    /// `save` is a **read-lane** op since PR 8: the snapshot shares the
    /// pinned epoch's rows by `Arc` (zero-copy) and serializes them while
    /// updates keep flowing — the file is a consistent image of one epoch.
    fn save(view: &EngineView, req: &Json) -> Result<Json, String> {
        let path = req
            .get("path")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing string field \"path\"".to_string())?;
        let snap = view.to_snapshot();
        crate::recovery::write_snapshot_atomic(
            &snap,
            std::path::Path::new(path),
            &FailPoints::none(),
        )
        .map_err(|e| format!("save {path:?}: {e}"))?;
        Ok(obj([("path", path.into()), ("spaces", snap.spaces.len().into())]))
    }

    fn checkpoint_op(&mut self) -> Result<Json, String> {
        let mut lane = self.write_lane();
        let lane = &mut *lane;
        let d = lane
            .durability
            .as_mut()
            .ok_or_else(|| "durability disabled (start with --durable DIR)".to_string())?;
        let ck = d.checkpoint(&lane.engine).map_err(|e| format!("checkpoint: {e}"))?;
        self.refresh_wal_mirror(lane);
        Ok(obj([
            ("path", ck.path.display().to_string().into()),
            ("spaces", ck.spaces.into()),
            ("snapshot_bytes", ck.snapshot_bytes.into()),
            ("wal_bytes_truncated", ck.wal_bytes_truncated.into()),
            ("generation", ck.generation.into()),
        ]))
    }

    fn wal_stats_op(&self) -> Result<Json, String> {
        let lane = self.write_lane();
        let d = lane
            .durability
            .as_ref()
            .ok_or_else(|| "durability disabled (start with --durable DIR)".to_string())?;
        let s = d.wal_stats();
        let r = d.recovery();
        let checkpoints = d.checkpoints_taken();
        Ok(obj([
            ("path", s.path.display().to_string().into()),
            ("generation", s.generation.into()),
            ("records", s.records.into()),
            ("bytes", s.bytes.into()),
            ("pending_sync", s.pending_sync.into()),
            ("policy", s.policy.into()),
            ("checkpoints", checkpoints.into()),
            (
                "recovery",
                obj([
                    ("snapshot_loaded", r.snapshot_loaded.into()),
                    ("cold_start", r.cold_start.into()),
                    ("replayed", r.replayed.into()),
                    ("torn_bytes", r.torn_bytes.into()),
                    ("wall_micros", r.wall_us.into()),
                    ("read_micros", r.read_us.into()),
                    ("fold_micros", r.fold_us.into()),
                    ("apply_micros", r.apply_us.into()),
                    ("checkpoint_micros", r.checkpoint_us.into()),
                ]),
            ),
        ]))
    }
}

/// Renders a recorded span tree as the protocol's `trace` array: one
/// object per span, parent-linked by array index (`-1` for roots), plus a
/// trailing `dropped` marker object when the per-request capacity was hit.
fn trace_json(tr: &trace::Trace) -> Json {
    let mut spans: Vec<Json> = tr
        .spans
        .iter()
        .map(|s| {
            obj([
                ("name", s.name.into()),
                ("start_micros", s.start_us.into()),
                ("dur_micros", s.dur_us.into()),
                ("parent", Json::Num(s.parent as f64)),
                ("thread", s.thread.into()),
            ])
        })
        .collect();
    if tr.dropped > 0 {
        spans.push(obj([("dropped", tr.dropped.into())]));
    }
    Json::Arr(spans)
}

/// Renders the metrics registry as the `metrics` op's response body: one
/// member per metric, sorted by name, each a typed object. Histograms
/// carry count/sum/max plus the log₂-bucket p50/p90/p99 estimates.
fn metrics_json(registry: &Registry) -> Json {
    Json::Obj(
        registry
            .snapshot()
            .into_iter()
            .map(|(name, m)| {
                let value = match m {
                    MetricSnapshot::Counter(v) => {
                        obj([("type", "counter".into()), ("value", v.into())])
                    }
                    MetricSnapshot::Gauge(v) => {
                        obj([("type", "gauge".into()), ("value", v.into())])
                    }
                    MetricSnapshot::Histogram(h) => obj([
                        ("type", "histogram".into()),
                        ("count", h.count.into()),
                        ("sum", h.sum.into()),
                        ("max", h.max.into()),
                        ("p50", h.quantile(0.5).into()),
                        ("p90", h.quantile(0.9).into()),
                        ("p99", h.quantile(0.99).into()),
                    ]),
                };
                (name, value)
            })
            .collect(),
    )
}

/// Renders the bounded slow-query log (oldest first).
fn slow_log_json() -> Json {
    Json::Obj(vec![(
        "entries".to_string(),
        trace::slow_log_snapshot()
            .iter()
            .map(|e| {
                obj([
                    ("seq", e.seq.into()),
                    ("request_id", e.request_id.into()),
                    ("op", e.op.as_str().into()),
                    ("micros", e.micros.into()),
                    ("trace", trace_json(&e.trace)),
                ])
            })
            .collect(),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use hdsd_graph::graph_from_edges;
    use hdsd_nucleus::LocalConfig;

    fn demo_server() -> Server {
        let g = graph_from_edges([
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (2, 4),
            (2, 5),
            (3, 4),
            (3, 5),
            (4, 5),
            (5, 6),
        ]);
        let cfg = EngineConfig {
            spaces: vec![SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34],
            local: LocalConfig::sequential(),
        };
        Server::new(Engine::new(g, &cfg))
    }

    fn ok(server: &mut Server, line: &str) -> Json {
        let h = server.handle_line(line);
        let v = Json::parse(&h.response).expect("response is valid JSON");
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{line} → {}", h.response);
        assert!(v.get("micros").is_some());
        v
    }

    #[test]
    fn scripted_session() {
        let mut s = demo_server();
        let v = ok(&mut s, r#"{"op":"stats"}"#);
        assert_eq!(v.get("edges").unwrap().as_u64(), Some(12));

        let v = ok(&mut s, r#"{"op":"kappa","space":"core","id":0}"#);
        assert_eq!(v.get("kappa").unwrap().as_u64(), Some(3));

        let v = ok(&mut s, r#"{"op":"kappa","space":"truss","vertices":[5,6]}"#);
        assert_eq!(v.get("kappa").unwrap().as_u64(), Some(0));

        let v = ok(&mut s, r#"{"op":"estimate","space":"core","id":6,"iterations":4}"#);
        assert_eq!(v.get("estimate").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("lower").unwrap().as_u64(), Some(1));

        let v = ok(&mut s, r#"{"op":"region","space":"core","id":0}"#);
        assert_eq!(v.get("k").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("num_vertices").unwrap().as_u64(), Some(6));

        let v = ok(&mut s, r#"{"op":"nuclei","space":"truss","k":2}"#);
        assert_eq!(v.get("total").unwrap().as_u64(), Some(1));
        let v = ok(&mut s, r#"{"op":"nuclei","space":"34","k":1}"#);
        assert_eq!(v.get("total").unwrap().as_u64(), Some(2));

        // Drop the tail edge: vertex 6 leaves every core.
        let v = ok(&mut s, r#"{"op":"remove","edges":[[5,6]]}"#);
        assert_eq!(v.get("removed").unwrap().as_u64(), Some(1));
        let v = ok(&mut s, r#"{"op":"kappa","space":"core","id":6}"#);
        assert_eq!(v.get("kappa").unwrap().as_u64(), Some(0));

        // Close the K5 over {0,1,2,3,4}: core numbers rise to 4.
        let v = ok(&mut s, r#"{"op":"update","insert":[[0,4],[1,4]],"remove":[]}"#);
        assert_eq!(v.get("inserted").unwrap().as_u64(), Some(2));
        let v = ok(&mut s, r#"{"op":"kappa","space":"core","id":4}"#);
        assert_eq!(v.get("kappa").unwrap().as_u64(), Some(4));

        let h = s.handle_line(r#"{"op":"shutdown"}"#);
        assert!(h.shutdown);
    }

    #[test]
    fn empty_graph_nuclei_and_region_have_stable_shapes() {
        let mut s = Server::new(Engine::new(
            hdsd_graph::graph_from_edges([]),
            &EngineConfig {
                spaces: vec![SpaceSel::Core, SpaceSel::Truss, SpaceSel::Nucleus34],
                local: LocalConfig::sequential(),
            },
        ));
        for space in ["core", "truss", "34"] {
            let h = s.handle_line(&format!(r#"{{"op":"nuclei","space":"{space}","k":1}}"#));
            // Pin the exact shape (micros excluded: it is the only
            // nondeterministic field and always the trailing member).
            let prefix = format!(
                r#"{{"ok":true,"space":"{}","k":1,"total":0,"nuclei":[],"micros":"#,
                SpaceSel::parse(space).unwrap().name()
            );
            assert!(h.response.starts_with(&prefix), "{space}: {}", h.response);
            let v = Json::parse(&h.response).unwrap();
            assert_eq!(v.get("total").unwrap().as_u64(), Some(0));
            assert_eq!(v.get("nuclei").unwrap().as_array(), Some(&[][..]));
        }
        // Region lookups against the empty graph fail cleanly...
        let h = s.handle_line(r#"{"op":"region","space":"core","id":0}"#);
        let v = Json::parse(&h.response).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert!(v.get("error").unwrap().as_str().unwrap().contains("out of range"));
        // ...and none of the above made a trivial hierarchy resident.
        let v = ok(&mut s, r#"{"op":"stats"}"#);
        for sp in v.get("spaces").unwrap().as_array().unwrap() {
            assert_eq!(sp.get("hierarchy_resident").and_then(Json::as_bool), Some(false));
        }
    }

    #[test]
    fn update_reports_hierarchy_repair_telemetry() {
        let mut s = demo_server();
        // No hierarchy resident yet: repair time is zero, no per-space blob.
        let v = ok(&mut s, r#"{"op":"update","insert":[[0,6]],"remove":[]}"#);
        assert_eq!(v.get("hierarchy_repair_micros").unwrap().as_u64(), Some(0));
        // Make the hierarchies resident, then update again.
        ok(&mut s, r#"{"op":"region","space":"core","id":0}"#);
        ok(&mut s, r#"{"op":"nuclei","space":"truss","k":1}"#);
        let v = ok(&mut s, r#"{"op":"update","insert":[[1,6]],"remove":[]}"#);
        assert!(v.get("hierarchy_repair_micros").unwrap().as_u64().is_some());
        let spaces = v.get("spaces").unwrap().as_array().unwrap();
        let by_name = |n: &str| {
            spaces.iter().find(|s| s.get("space").and_then(Json::as_str) == Some(n)).unwrap()
        };
        for name in ["core", "truss"] {
            let hr = by_name(name)
                .get("hierarchy_repair")
                .unwrap_or_else(|| panic!("{name} should report a repair: {}", v));
            assert!(hr.get("preserved_nodes").unwrap().as_u64().is_some());
            assert!(hr.get("scanned_scliques").unwrap().as_u64().is_some());
        }
        // The (3,4) hierarchy was never queried, so nothing was repaired.
        assert!(by_name("nucleus34").get("hierarchy_repair").is_none());
        // Region queries after a repaired update serve the new graph: the
        // region's threshold is the query vertex's (updated) κ.
        let kappa6 = ok(&mut s, r#"{"op":"kappa","space":"core","id":6}"#)
            .get("kappa")
            .unwrap()
            .as_u64()
            .unwrap();
        let region = ok(&mut s, r#"{"op":"region","space":"core","id":6}"#);
        assert_eq!(region.get("k").unwrap().as_u64(), Some(kappa6));
    }

    #[test]
    fn stats_response_pins_the_per_space_shape() {
        let mut s = demo_server();
        let v = ok(&mut s, r#"{"op":"stats"}"#);
        let spaces = v.get("spaces").unwrap().as_array().unwrap();
        assert_eq!(spaces.len(), 3);
        for sp in spaces {
            // Pin the exact member set and order: dashboards and the smoke
            // script key on this shape.
            let Json::Obj(members) = sp else { panic!("space stat must be an object") };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                [
                    "space",
                    "cliques",
                    "max_kappa",
                    "hierarchy_resident",
                    "build_micros",
                    "peel_micros"
                ],
                "{}",
                sp
            );
            assert!(sp.get("build_micros").unwrap().as_u64().is_some());
            assert!(sp.get("peel_micros").unwrap().as_u64().is_some());
        }
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut s = demo_server();
        for line in [
            "not json",
            r#"{"op":"nope"}"#,
            r#"{"op":"kappa","space":"core"}"#,
            r#"{"op":"kappa","space":"hyper","id":0}"#,
            r#"{"op":"kappa","space":"core","id":999}"#,
            r#"{"op":"update"}"#,
            r#"{"op":"kappa","space":"truss","vertices":[0,9]}"#,
        ] {
            let h = s.handle_line(line);
            let v = Json::parse(&h.response).unwrap();
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{line}");
            assert!(v.get("error").is_some(), "{line}");
            assert!(!h.shutdown);
        }
        // The server still answers after errors.
        ok(&mut s, r#"{"op":"stats"}"#);
    }

    fn err(server: &mut Server, line: &str) -> String {
        let h = server.handle_line(line);
        let v = Json::parse(&h.response).expect("response is valid JSON");
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{line} → {}", h.response);
        v.get("error").and_then(Json::as_str).expect("error field").to_string()
    }

    #[test]
    fn malformed_batches_are_rejected_before_the_engine() {
        let mut s = demo_server();
        let before = ok(&mut s, r#"{"op":"stats"}"#);
        let cases = [
            (r#"{"op":"update","insert":[[3,3]]}"#, "self-loop"),
            (r#"{"op":"update","insert":[[0,5],[5,0]]}"#, "twice"),
            (r#"{"op":"update","insert":[[0,4294000000]]}"#, "out of range"),
            (r#"{"op":"remove","edges":[[0,400]]}"#, "out of range"),
            (r#"{"op":"update","insert":[[0,6]],"remove":[[6,0]]}"#, "both inserted and removed"),
        ];
        for (line, needle) in cases {
            let e = err(&mut s, line);
            assert!(e.contains(needle), "{line}: {e}");
        }
        // Nothing was partially applied: graph unchanged, no update counted.
        let after = ok(&mut s, r#"{"op":"stats"}"#);
        for field in ["vertices", "edges", "updates_applied"] {
            assert_eq!(
                after.get(field).unwrap().as_u64(),
                before.get(field).unwrap().as_u64(),
                "{field} drifted"
            );
        }
    }

    #[test]
    fn malformed_optional_fields_are_errors_not_defaults() {
        let mut s = demo_server();
        let before = ok(&mut s, r#"{"op":"stats"}"#);
        let cases = [
            (r#"{"op":"estimate","space":"core","id":2,"budget":"4"}"#, "\"budget\""),
            (r#"{"op":"estimate","space":"core","id":2,"budget":-4}"#, "\"budget\""),
            (r#"{"op":"estimate","space":"core","id":2,"iterations":"1"}"#, "\"iterations\""),
            (r#"{"op":"estimate","space":"core","id":2,"lower_bound":"no"}"#, "\"lower_bound\""),
            (r#"{"op":"estimate","space":"core","id":2,"deadline_ms":"0"}"#, "\"deadline_ms\""),
            (r#"{"op":"region","space":"core","id":2,"max_vertices":"2"}"#, "\"max_vertices\""),
            (r#"{"op":"node","space":"core","node":0,"max_vertices":2.5}"#, "\"max_vertices\""),
            (r#"{"op":"nuclei","space":"core","k":1,"limit":"1"}"#, "\"limit\""),
            (r#"{"op":"stats","deadline_ms":-1}"#, "\"deadline_ms\""),
            (r#"{"op":"kappa","space":"core","id":"2"}"#, "\"id\""),
        ];
        for (line, field) in cases {
            let e = err(&mut s, line);
            assert!(e.starts_with(field) && e.contains(" must be "), "{line}: {e}");
        }
        // The well-formed spelling of the first case is honoured.
        let v = ok(&mut s, r#"{"op":"estimate","space":"core","id":2,"budget":4}"#);
        assert_eq!(v.get("truncated").and_then(Json::as_bool), Some(true));
        let after = ok(&mut s, r#"{"op":"stats"}"#);
        for field in ["vertices", "edges", "updates_applied", "epoch", "spaces"] {
            assert_eq!(after.get(field), before.get(field), "{field} drifted");
        }
    }

    #[test]
    fn integers_above_u32_are_rejected_not_truncated() {
        let mut s = demo_server();
        let before = ok(&mut s, r#"{"op":"stats"}"#);
        // 2^32 and 2^32 + 2 truncate to 0 and 2, which all name something
        // real in the demo graph; each must be an error instead.
        let cases = [
            (r#"{"op":"node","space":"core","node":4294967296}"#, "out of range"),
            (r#"{"op":"nuclei","space":"core","k":4294967298}"#, "must be"),
            (r#"{"op":"kappa","space":"core","vertices":[4294967296]}"#, "out of range"),
            (r#"{"op":"region","space":"truss","vertices":[0,4294967297]}"#, "out of range"),
            (r#"{"op":"insert","edges":[[4294967296,6]]}"#, "out of range"),
            (r#"{"op":"update","remove":[[0,4294967297]]}"#, "out of range"),
        ];
        for (line, needle) in cases {
            let e = err(&mut s, line);
            assert!(e.contains(needle), "{line}: {e}");
        }
        let after = ok(&mut s, r#"{"op":"stats"}"#);
        for field in ["vertices", "edges", "epoch", "updates_applied"] {
            assert_eq!(
                after.get(field).unwrap().as_u64(),
                before.get(field).unwrap().as_u64(),
                "{field} drifted"
            );
        }
    }

    #[test]
    fn iterations_above_u32_run_every_round() {
        // 2^32 once truncated to 0 rounds (the bare degree); rounds count
        // in usize and stop once τ is stationary, so it answers like any t
        // past convergence and echoes what was asked.
        let mut s = demo_server();
        for id in 0..7 {
            let ask = |t: &str| {
                format!(r#"{{"op":"estimate","space":"core","id":{id},"iterations":{t}}}"#)
            };
            let big = ok(&mut s, &ask("4294967296"));
            let small = ok(&mut s, &ask("64"));
            for field in ["estimate", "lower", "degree", "explored", "truncated"] {
                assert_eq!(big.get(field), small.get(field), "vertex {id}: {field}");
            }
            assert_eq!(big.get("iterations").unwrap().as_u64(), Some(4294967296));
        }
        let v = ok(&mut s, r#"{"op":"estimate","space":"core","id":2,"iterations":4294967296}"#);
        assert_eq!(v.get("interval"), Some(&[3u32, 3].into_iter().collect::<Json>()));
    }

    #[test]
    fn panicking_request_is_answered_and_serving_continues() {
        let mut s = demo_server();
        // Hidden unless explicitly enabled.
        assert!(err(&mut s, r#"{"op":"debug_panic"}"#).contains("unknown op"));
        s.enable_debug_ops();
        let e = err(&mut s, r#"{"op":"debug_panic"}"#);
        assert!(e.contains("internal panic"), "{e}");
        // The very next request is served normally.
        let v = ok(&mut s, r#"{"op":"kappa","space":"core","id":0}"#);
        assert_eq!(v.get("kappa").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn durability_ops_require_a_durable_server() {
        let mut s = demo_server();
        for line in [r#"{"op":"checkpoint"}"#, r#"{"op":"wal_stats"}"#] {
            assert!(err(&mut s, line).contains("durability disabled"), "{line}");
        }
        // Updates still work, they just carry no wal_seq.
        let v = ok(&mut s, r#"{"op":"update","insert":[[0,6]]}"#);
        assert!(v.get("wal_seq").is_none());
    }

    #[test]
    fn expired_deadlines_degrade_estimates_and_fail_hierarchy_ops_cleanly() {
        let mut s = demo_server();
        // An already-expired deadline: the estimate still answers, marked
        // truncated, instead of exploring.
        let v = ok(&mut s, r#"{"op":"estimate","space":"core","id":0,"deadline_ms":0}"#);
        assert_eq!(v.get("truncated").and_then(Json::as_bool), Some(true));
        // Hierarchy-backed ops refuse up front rather than materializing.
        for line in [
            r#"{"op":"nuclei","space":"core","k":1,"deadline_ms":0}"#,
            r#"{"op":"region","space":"core","id":0,"deadline_ms":0}"#,
            r#"{"op":"node","space":"core","node":0,"deadline_ms":0}"#,
        ] {
            assert!(err(&mut s, line).contains("deadline exceeded"), "{line}");
        }
        // A generous deadline changes nothing.
        let v = ok(&mut s, r#"{"op":"region","space":"core","id":0,"deadline_ms":60000}"#);
        assert_eq!(v.get("k").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn every_deadline_op_completes_or_names_the_stage() {
        let mut s = demo_server();
        s.enable_debug_ops();
        // Bounded ops answer within an expired deadline: the estimate
        // degrades (truncated interval), the lookups just answer.
        let v = ok(&mut s, r#"{"op":"estimate","space":"core","id":0,"deadline_ms":0}"#);
        assert_eq!(v.get("truncated").and_then(Json::as_bool), Some(true));
        ok(&mut s, r#"{"op":"kappa","space":"core","id":0,"deadline_ms":0}"#);
        ok(&mut s, r#"{"op":"stats","deadline_ms":0}"#);
        // Unbounded ops abort, each naming the stage that refused.
        for (line, stage) in [
            (r#"{"op":"nuclei","space":"core","k":1,"deadline_ms":0}"#, "before hierarchy lookup"),
            (r#"{"op":"region","space":"core","id":0,"deadline_ms":0}"#, "before hierarchy lookup"),
            (r#"{"op":"node","space":"core","node":0,"deadline_ms":0}"#, "before hierarchy lookup"),
            (r#"{"op":"update","insert":[[0,6]],"deadline_ms":0}"#, "before update"),
            (r#"{"op":"insert","edges":[[0,6]],"deadline_ms":0}"#, "before update"),
            (r#"{"op":"remove","edges":[[0,1]],"deadline_ms":0}"#, "before update"),
            (r#"{"op":"debug_stall","ms":5000,"deadline_ms":0}"#, "debug stall"),
        ] {
            let e = err(&mut s, line);
            assert_eq!(e, format!("deadline exceeded ({stage})"), "{line}");
        }
        // The refused updates applied nothing (the deadline is checked
        // before the WAL/engine see the batch).
        let v = ok(&mut s, r#"{"op":"stats"}"#);
        assert_eq!(v.get("updates_applied").unwrap().as_u64(), Some(0));
        // A generous deadline completes everywhere.
        let v = ok(&mut s, r#"{"op":"region","space":"core","id":0,"deadline_ms":60000}"#);
        assert_eq!(v.get("k").unwrap().as_u64(), Some(3));
        let v = ok(&mut s, r#"{"op":"update","insert":[[0,6]],"deadline_ms":60000}"#);
        assert_eq!(v.get("inserted").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn raised_connection_flag_cancels_and_is_counted() {
        let mut s = demo_server();
        let before = s.overload().snapshot().cancelled;
        let flag = Arc::new(AtomicBool::new(true));
        let token = CancelToken::with_flag(Arc::clone(&flag));
        let h = s.handle_line_under(r#"{"op":"region","space":"core","id":0}"#, &token);
        let v = Json::parse(&h.response).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            v.get("error").and_then(Json::as_str),
            Some("request cancelled (before hierarchy lookup)")
        );
        // The counter is a process-global metric, so concurrent tests may
        // add to it too — assert the delta, not the value.
        assert!(s.overload().snapshot().cancelled > before);
        // Lowering the flag restores service on the same connection scope.
        flag.store(false, Ordering::Relaxed);
        let h = s.handle_line_under(r#"{"op":"region","space":"core","id":0}"#, &token);
        assert!(h.response.contains("\"ok\":true"), "{}", h.response);
    }

    #[test]
    fn brownout_tiers_degrade_cold_queries_to_estimates() {
        use crate::overload::BrownoutMode;
        let mut s = demo_server();
        let overload = s.overload();
        overload.set_mode(BrownoutMode::Forced(1));
        overload.recompute_tier();
        // Tier 1: a cold-hierarchy region answers the budgeted Theorem-1
        // interval, marked degraded, instead of materializing.
        let v = ok(&mut s, r#"{"op":"region","space":"core","id":0}"#);
        assert_eq!(v.get("degraded").and_then(Json::as_bool), Some(true));
        let lower = v.get("lower").unwrap().as_u64().unwrap();
        let estimate = v.get("estimate").unwrap().as_u64().unwrap();
        assert!(lower <= estimate, "interval must be ordered");
        assert!(v.get("interval").unwrap().as_array().is_some());
        // ...and did not make the hierarchy resident as a side effect.
        let st = ok(&mut s, r#"{"op":"stats"}"#);
        let core = &st.get("spaces").unwrap().as_array().unwrap()[0];
        assert_eq!(core.get("hierarchy_resident").and_then(Json::as_bool), Some(false));
        // kappa stays exact at tier 1.
        let v = ok(&mut s, r#"{"op":"kappa","space":"core","id":0}"#);
        assert_eq!(v.get("kappa").unwrap().as_u64(), Some(3));
        // A cold-hierarchy node has no estimate in any space (its id is a
        // forest index, not a clique): it sheds with the standard hint.
        for space in ["core", "truss", "34"] {
            let line = format!(r#"{{"op":"node","space":"{space}","node":0}}"#);
            let v = Json::parse(&s.handle_line(&line).response).unwrap();
            assert_eq!(v.get("error").and_then(Json::as_str), Some("overloaded"), "{space}");
            assert!(v.get("retry_after_ms").unwrap().as_u64().unwrap() > 0);
        }
        // Tier 2 degrades kappa too: the interval replaces the exact value.
        overload.set_mode(BrownoutMode::Forced(2));
        overload.recompute_tier();
        let v = ok(&mut s, r#"{"op":"kappa","space":"core","id":0}"#);
        assert_eq!(v.get("degraded").and_then(Json::as_bool), Some(true));
        assert!(v.get("kappa").is_none());
        // A resident hierarchy keeps answering exactly at any tier: the
        // materialization, not the tree walk, is what brownout avoids.
        overload.set_mode(BrownoutMode::Off);
        overload.recompute_tier();
        ok(&mut s, r#"{"op":"region","space":"core","id":0}"#);
        overload.set_mode(BrownoutMode::Forced(2));
        overload.recompute_tier();
        let v = ok(&mut s, r#"{"op":"region","space":"core","id":0}"#);
        assert!(v.get("degraded").is_none());
        assert_eq!(v.get("k").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn durable_server_logs_checkpoints_and_recovers() {
        use crate::recovery::{Durability, DurableConfig};
        use crate::wal::{FailPoints, FsyncPolicy};
        let dir = std::env::temp_dir().join(format!("hdsd_proto_durable_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = || DurableConfig {
            dir: dir.clone(),
            policy: FsyncPolicy::Always,
            failpoints: FailPoints::none(),
        };
        let fresh = || {
            Ok(Engine::new(
                graph_from_edges([(0, 1), (0, 2), (1, 2), (2, 3)]),
                &EngineConfig::default(),
            ))
        };
        let (engine, dur, _) = Durability::open(cfg(), LocalConfig::sequential(), fresh).unwrap();
        let mut s = Server::with_durability(engine, dur);
        let v = ok(&mut s, r#"{"op":"update","insert":[[1,3],[0,3]]}"#);
        assert_eq!(v.get("wal_seq").unwrap().as_u64(), Some(1));
        let v = ok(&mut s, r#"{"op":"wal_stats"}"#);
        assert_eq!(v.get("records").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("policy").and_then(Json::as_str), Some("always"));
        let v = ok(&mut s, r#"{"op":"checkpoint"}"#);
        assert!(v.get("wal_bytes_truncated").unwrap().as_u64().unwrap() > 0);
        let v = ok(&mut s, r#"{"op":"update","insert":[[0,4],[1,4]]}"#);
        assert_eq!(v.get("wal_seq").unwrap().as_u64(), Some(1)); // fresh generation
        let kappa = ok(&mut s, r#"{"op":"kappa","space":"core","id":0}"#);
        let kappa = kappa.get("kappa").unwrap().as_u64().unwrap();
        drop(s); // unclean: no shutdown, no final checkpoint

        let (engine, dur, rep) =
            Durability::open(
                cfg(),
                LocalConfig::sequential(),
                || Err("must not cold start".into()),
            )
            .unwrap();
        assert!(rep.snapshot_loaded && rep.replayed == 1);
        let mut s = Server::with_durability(engine, dur);
        let v = ok(&mut s, r#"{"op":"kappa","space":"core","id":0}"#);
        assert_eq!(v.get("kappa").unwrap().as_u64(), Some(kappa));
        // Graceful shutdown checkpoints.
        let h = s.handle_line(r#"{"op":"shutdown"}"#);
        assert!(h.shutdown);
        assert!(h.response.contains("\"checkpointed\":true"), "{}", h.response);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Tests that arm slow-request tracing flip a process-global flag, so
    /// they serialize here instead of disarming each other under the
    /// parallel test harness.
    static TRACE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn timing_keys_are_micros_only() {
        // The wire convention pinned by the module docs: every duration is
        // microseconds under a key ending in `micros`; `uptime_seconds` is
        // the only other time-typed key. The `metrics` op is excluded from
        // the walk — its members are registry names, not wire keys.
        fn collect_keys(v: &Json, keys: &mut std::collections::BTreeSet<String>) {
            match v {
                Json::Obj(members) => {
                    for (k, v) in members {
                        keys.insert(k.clone());
                        collect_keys(v, keys);
                    }
                }
                Json::Arr(items) => {
                    for v in items {
                        collect_keys(v, keys);
                    }
                }
                _ => {}
            }
        }
        let _guard = TRACE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut keys = std::collections::BTreeSet::new();
        let mut s = demo_server();
        s.set_trace_slow_us(Some(0)); // every response carries its span tree
        for line in [
            r#"{"op":"stats"}"#,
            r#"{"op":"kappa","space":"core","id":0}"#,
            r#"{"op":"estimate","space":"core","id":6,"iterations":2}"#,
            r#"{"op":"region","space":"core","id":0}"#,
            r#"{"op":"nuclei","space":"truss","k":1}"#,
            r#"{"op":"node","space":"core","node":0}"#,
            r#"{"op":"update","insert":[[0,6]],"remove":[]}"#,
            r#"{"op":"slow_log"}"#,
        ] {
            collect_keys(&ok(&mut s, line), &mut keys);
        }
        s.set_trace_slow_us(None);
        // Failure responses follow the same convention.
        let h = s.handle_line("not json");
        collect_keys(&Json::parse(&h.response).unwrap(), &mut keys);
        // Durable-only ops: wal_stats (recovery report) and checkpoint.
        {
            use crate::recovery::{Durability, DurableConfig};
            use crate::wal::{FailPoints, FsyncPolicy};
            let dir =
                std::env::temp_dir().join(format!("hdsd_proto_timing_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let cfg = DurableConfig {
                dir: dir.clone(),
                policy: FsyncPolicy::Always,
                failpoints: FailPoints::none(),
            };
            let fresh = || {
                Ok(Engine::new(
                    graph_from_edges([(0, 1), (1, 2), (0, 2)]),
                    &EngineConfig::default(),
                ))
            };
            let (engine, dur, _) = Durability::open(cfg, LocalConfig::sequential(), fresh).unwrap();
            let mut d = Server::with_durability(engine, dur);
            collect_keys(&ok(&mut d, r#"{"op":"wal_stats"}"#), &mut keys);
            collect_keys(&ok(&mut d, r#"{"op":"checkpoint"}"#), &mut keys);
            std::fs::remove_dir_all(&dir).ok();
        }
        // Overload shapes: the shed error and the degraded answer. The
        // shed response carries `retry_after_ms` — the one sanctioned
        // `_ms` key: a client back-off *hint*, not a server timing, so it
        // is deliberately not a `micros` key.
        {
            use crate::overload::BrownoutMode;
            let overload = s.overload();
            overload.set_mode(BrownoutMode::Forced(1));
            overload.recompute_tier();
            let h = s.handle_line(r#"{"op":"node","space":"34","node":0}"#);
            collect_keys(&Json::parse(&h.response).unwrap(), &mut keys);
            collect_keys(&ok(&mut s, r#"{"op":"region","space":"34","id":0}"#), &mut keys);
            overload.set_mode(BrownoutMode::Off);
            overload.recompute_tier();
        }

        let micros_keys: Vec<&str> =
            keys.iter().filter(|k| k.contains("micros")).map(String::as_str).collect();
        assert_eq!(
            micros_keys,
            [
                "apply_micros",
                "build_micros",
                "checkpoint_micros",
                "dur_micros",
                "fold_micros",
                "graph_delta_micros",
                "hierarchy_repair_micros",
                "micros",
                "peel_micros",
                "read_micros",
                "refresh_micros",
                "repair_micros",
                "splice_micros",
                "start_micros",
                "wall_micros",
            ],
            "the set of wire timing keys changed — update the module docs and this pin together"
        );
        for k in &keys {
            assert!(!k.ends_with("_us"), "{k}: durations cross the wire as `micros` keys only");
            assert!(
                !k.ends_with("_ms") || k == "retry_after_ms",
                "{k}: durations cross the wire as `micros` keys only \
                 (`retry_after_ms` is the one sanctioned exception — a \
                 client back-off hint, not a measured duration)"
            );
            if k.contains("seconds") {
                assert_eq!(k, "uptime_seconds");
            }
        }
        assert!(keys.contains("uptime_seconds"));
        assert!(keys.contains("retry_after_ms"));
    }

    #[test]
    fn metrics_op_returns_the_registry_with_pinned_shapes() {
        let mut s = demo_server();
        ok(&mut s, r#"{"op":"stats"}"#);
        let v = ok(&mut s, r#"{"op":"metrics"}"#);
        let m = v.get("metrics").expect("metrics member");
        let Json::Obj(members) = m else { panic!("metrics must be an object: {v}") };
        assert!(
            members.windows(2).all(|w| w[0].0 < w[1].0),
            "metrics must be sorted by name with no duplicates"
        );
        let counter = m.get("requests_total").expect("requests_total registered");
        assert_eq!(counter.get("type").and_then(Json::as_str), Some("counter"));
        assert!(counter.get("value").unwrap().as_u64().unwrap() >= 1);
        let hist = m.get(r#"request_micros{op="stats"}"#).expect("per-op request histogram");
        let Json::Obj(hm) = hist else { panic!("histogram must be an object") };
        let hist_keys: Vec<&str> = hm.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(hist_keys, ["type", "count", "sum", "max", "p50", "p90", "p99"]);
        assert_eq!(hist.get("type").and_then(Json::as_str), Some("histogram"));
        assert!(hist.get("count").unwrap().as_u64().unwrap() >= 1);
    }

    #[test]
    fn failed_requests_carry_micros_and_count_in_telemetry() {
        let reg = Registry::global();
        // The registry is process-global and other tests run concurrently:
        // assert deltas, never absolute values.
        let failed_before = reg.counter("requests_failed_total").get();
        let invalid_before =
            reg.histogram(&labeled("request_micros", &[("op", "invalid")])).snapshot().count;
        let other_before =
            reg.histogram(&labeled("request_micros", &[("op", "other")])).snapshot().count;
        let mut s = demo_server();
        for line in ["not json", r#"{"op":"frobnicate"}"#] {
            let h = s.handle_line(line);
            let v = Json::parse(&h.response).unwrap();
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{line}");
            assert!(
                v.get("micros").unwrap().as_u64().is_some(),
                "{line}: failed responses still report micros"
            );
        }
        assert!(reg.counter("requests_failed_total").get() >= failed_before + 2);
        let invalid_after =
            reg.histogram(&labeled("request_micros", &[("op", "invalid")])).snapshot().count;
        let other_after =
            reg.histogram(&labeled("request_micros", &[("op", "other")])).snapshot().count;
        assert!(invalid_after > invalid_before, "unparseable line lands in op=invalid");
        assert!(other_after > other_before, "unknown op lands in op=other");
        // The per-server stats see them too (deterministic: this server
        // handled exactly these three requests).
        let v = ok(&mut s, r#"{"op":"stats"}"#);
        assert_eq!(v.get("requests_total").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("requests_failed").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn sibling_handles_serve_the_published_epoch() {
        let mut a = demo_server();
        let mut b = a.handle();
        let v = ok(&mut b, r#"{"op":"kappa","space":"core","id":0}"#);
        assert_eq!(v.get("kappa").unwrap().as_u64(), Some(3), "epoch 0: vertex 0 sits in a K4");
        // Writing through handle a publishes epoch 1...
        let v = ok(&mut a, r#"{"op":"update","insert":[[0,4],[1,4]],"remove":[]}"#);
        assert_eq!(v.get("epoch").unwrap().as_u64(), Some(1));
        // ...and sibling b observes it on its next pin, no sync call:
        // {0,1,2,3,4} is now a K5.
        let v = ok(&mut b, r#"{"op":"kappa","space":"core","id":0}"#);
        assert_eq!(v.get("kappa").unwrap().as_u64(), Some(4));
        // Request accounting and the epoch counter are shared state, not
        // per-handle: all four requests land in one stats view.
        let v = ok(&mut b, r#"{"op":"stats"}"#);
        assert_eq!(v.get("epoch").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("requests_total").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("requests_failed").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn slow_requests_attach_trace_and_enter_the_slow_log() {
        let _guard = TRACE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut s = demo_server();
        s.set_trace_slow_us(Some(0)); // everything is "slow"
        let v = ok(&mut s, r#"{"op":"update","insert":[[0,6]],"remove":[]}"#);
        let spans = v.get("trace").expect("slow response carries its span tree");
        let spans = spans.as_array().unwrap();
        assert!(!spans.is_empty());
        let names: Vec<&str> =
            spans.iter().filter_map(|sp| sp.get("name").and_then(Json::as_str)).collect();
        assert!(names.contains(&"update.graph_delta"), "{names:?}");
        assert!(names.contains(&"update.refresh"), "{names:?}");
        for sp in spans.iter().filter(|sp| sp.get("name").is_some()) {
            assert!(sp.get("start_micros").unwrap().as_u64().is_some());
            assert!(sp.get("dur_micros").unwrap().as_u64().is_some());
            assert!(sp.get("parent").is_some());
            assert!(sp.get("thread").unwrap().as_u64().is_some());
        }
        // A threshold no request reaches: traced, but nothing attached.
        s.set_trace_slow_us(Some(u64::MAX));
        let v = ok(&mut s, r#"{"op":"kappa","space":"core","id":0}"#);
        assert!(v.get("trace").is_none());
        s.set_trace_slow_us(None);
        // The slow update is in the bounded in-memory log.
        let v = ok(&mut s, r#"{"op":"slow_log"}"#);
        let entries = v.get("entries").unwrap().as_array().unwrap();
        let e = entries
            .iter()
            .rev()
            .find(|e| e.get("op").and_then(Json::as_str) == Some("update"))
            .expect("slow update must be logged");
        assert!(e.get("micros").unwrap().as_u64().is_some());
        assert!(!e.get("trace").unwrap().as_array().unwrap().is_empty());
    }
}
