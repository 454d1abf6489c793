//! `hdsd-serve` — the query-serving daemon.
//!
//! ```text
//! hdsd-serve [--graph FILE | --snapshot FILE | --synthetic N,M,P,SEED | --demo]
//!            [--spaces core,truss,34] [--threads N] [--listen ADDR:PORT]
//!            [--readers N] [--durable DIR] [--fsync always|batch:N|off]
//!            [--debug-ops] [--metrics-addr ADDR:PORT] [--trace-slow-ms N]
//!            [--log-format text|json] [--max-inflight N]
//!            [--brownout off|auto|0|1|2]
//!
//!   --graph FILE       SNAP-style edge list to serve
//!   --snapshot FILE    binary snapshot (fast restart: graph + κ + hierarchy)
//!   --synthetic SPEC   Holme–Kim generator, e.g. 20000,8,0.5,7
//!   --demo             tiny fixed graph (two K4s sharing an edge + tail)
//!   --spaces LIST      resident decompositions    (default core,truss)
//!   --threads N        accepted and ignored: the κ refresh of an update is
//!                      a sequential peel (kept for existing command lines)
//!   --listen ADDR      serve TCP instead of stdin (e.g. 127.0.0.1:7171)
//!   --readers N        request worker threads for --listen (default 4).
//!                      Each worker owns an epoch reader; reads from any
//!                      number of connections run wait-free while updates
//!                      serialize on the single writer lane.
//!   --durable DIR      crash-safe serving: WAL + atomic checkpoints in DIR.
//!                      On restart the newest checkpoint is loaded and the
//!                      WAL tail replayed; the other input flags only seed
//!                      an empty directory.
//!   --fsync POLICY     WAL sync policy (default always)
//!   --debug-ops        enable the debug_panic op (fault drills)
//!   --metrics-addr A   serve the metrics registry as Prometheus text
//!                      exposition over HTTP at A (e.g. 127.0.0.1:9901)
//!   --trace-slow-ms N  trace every request; responses slower than N ms
//!                      carry their span tree and enter the slow-query log
//!   --log-format F     stderr log format: text (default) or json
//!   --max-inflight N   global in-flight request budget for --listen
//!                      (default 256, 0 = unlimited). When full, expensive
//!                      ops are shed with {"ok":false,"error":"overloaded",
//!                      "retry_after_ms":N}; cheap ops keep queueing up to
//!                      a small multiple of the budget. Per connection, at
//!                      most 32 requests are in flight — beyond that the
//!                      server stops reading that socket (TCP backpressure)
//!   --brownout MODE    degradation controller: auto (default) follows
//!                      queue pressure and recent p99, off never degrades,
//!                      0|1|2 pins a tier (see docs/PROTOCOL.md)
//! ```
//!
//! Protocol: one JSON request per line, one JSON response per line — see
//! `hdsd_service::protocol`. `{"op":"shutdown"}` stops the server; under
//! `--durable`, SIGTERM/SIGINT also stop it gracefully (drain + final
//! checkpoint), and `kill -9` is recovered from on the next start.
//!
//! The TCP front-end is a poll-based (nonblocking, dependency-free)
//! connection loop: one acceptor/IO thread owns every socket and its
//! per-connection read/write buffers; complete request lines are handed
//! to `--readers N` worker threads (each holding its own epoch-reader
//! `Server` handle, connections pinned round-robin so per-connection
//! response order is preserved) and responses flow back through a channel
//! to the IO thread's write buffers. N clients issue concurrent reads
//! while an update stream churns — readers never block on the writer.

use std::io::{BufRead, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use hdsd_nucleus::{read_snapshot, CancelToken, LocalConfig};
use hdsd_service::overload::{is_expensive_op, is_shed_exempt_op};
use hdsd_service::{
    Admission, BrownoutMode, Durability, DurableConfig, Engine, EngineConfig, FailPoints,
    FsyncPolicy, OverloadState, Server, SpaceSel,
};
use hdsd_telemetry::{error, info, log, warn};

/// Set by the SIGTERM/SIGINT handler; polled by the serve loops.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    // Minimal libc-free signal(2) binding: the handler only flips an
    // atomic, which is async-signal-safe.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            error!("serve", "{e}");
            std::process::exit(2);
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut graph_path = None;
    let mut snapshot_path = None;
    let mut synthetic = None;
    let mut demo = false;
    let mut spaces = vec![SpaceSel::Core, SpaceSel::Truss];
    let mut listen = None;
    let mut readers = 4usize;
    let mut durable_dir: Option<String> = None;
    let mut fsync = FsyncPolicy::Always;
    let mut debug_ops = false;
    let mut metrics_addr: Option<String> = None;
    let mut trace_slow_ms: Option<u64> = None;
    let mut max_inflight = 256u64;
    let mut brownout = BrownoutMode::Auto;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--graph" => graph_path = Some(value(&mut i)?),
            "--snapshot" => snapshot_path = Some(value(&mut i)?),
            "--synthetic" => synthetic = Some(value(&mut i)?),
            "--demo" => demo = true,
            "--spaces" => {
                spaces = value(&mut i)?
                    .split(',')
                    .map(|s| {
                        SpaceSel::parse(s.trim())
                            .ok_or_else(|| format!("unknown space {s:?} (core|truss|34)"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--threads" => {
                let _ignored: usize =
                    value(&mut i)?.parse().map_err(|e| format!("bad --threads: {e}"))?;
            }
            "--listen" => listen = Some(value(&mut i)?),
            "--readers" => {
                readers = value(&mut i)?.parse().map_err(|e| format!("bad --readers: {e}"))?;
                if readers == 0 {
                    return Err("--readers must be at least 1".to_string());
                }
            }
            "--durable" => durable_dir = Some(value(&mut i)?),
            "--fsync" => {
                let v = value(&mut i)?;
                fsync = FsyncPolicy::parse(&v)
                    .ok_or_else(|| format!("bad --fsync {v:?} (always|batch:N|off)"))?;
            }
            "--debug-ops" => debug_ops = true,
            "--metrics-addr" => metrics_addr = Some(value(&mut i)?),
            "--trace-slow-ms" => {
                trace_slow_ms =
                    Some(value(&mut i)?.parse().map_err(|e| format!("bad --trace-slow-ms: {e}"))?);
            }
            "--log-format" => {
                let v = value(&mut i)?;
                let f = log::parse_format(&v)
                    .ok_or_else(|| format!("bad --log-format {v:?} (text|json)"))?;
                log::set_format(f);
            }
            "--max-inflight" => {
                max_inflight =
                    value(&mut i)?.parse().map_err(|e| format!("bad --max-inflight: {e}"))?;
            }
            "--brownout" => {
                let v = value(&mut i)?;
                brownout = BrownoutMode::parse(&v)
                    .ok_or_else(|| format!("bad --brownout {v:?} (off|auto|0|1|2)"))?;
            }
            "--help" | "-h" => {
                eprintln!("see the module docs at the top of src/bin/serve.rs");
                return Ok(());
            }
            other => return Err(format!("unknown flag {other:?} (see --help)")),
        }
        i += 1;
    }

    let cfg = EngineConfig { spaces, local: LocalConfig::sequential() };

    // Builds the engine from the input flags — the normal startup path,
    // and the seed for an empty durability directory.
    let build_engine = move || -> Result<Engine, String> {
        if let Some(path) = snapshot_path {
            let file = std::fs::File::open(&path).map_err(|e| format!("open {path:?}: {e}"))?;
            let snap = read_snapshot(&mut std::io::BufReader::new(file))
                .map_err(|e| format!("read snapshot {path:?}: {e}"))?;
            return Engine::from_snapshot(snap, cfg.local);
        }
        let graph = if let Some(path) = graph_path {
            hdsd_graph::read_edge_list(&path).map_err(|e| format!("read {path:?}: {e}"))?
        } else if let Some(spec) = synthetic {
            let parts: Vec<&str> = spec.split(',').collect();
            if parts.len() != 4 {
                return Err("--synthetic wants N,M_ATTACH,P_TRIAD,SEED".to_string());
            }
            let n: u32 = parts[0].trim().parse().map_err(|e| format!("bad N: {e}"))?;
            let m: u32 = parts[1].trim().parse().map_err(|e| format!("bad M: {e}"))?;
            let p: f64 = parts[2].trim().parse().map_err(|e| format!("bad P: {e}"))?;
            let seed: u64 = parts[3].trim().parse().map_err(|e| format!("bad SEED: {e}"))?;
            hdsd_datasets::holme_kim(n, m, p, seed)
        } else if demo {
            hdsd_graph::graph_from_edges([
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
            ])
        } else {
            return Err("no input: pass --graph, --snapshot, --synthetic or --demo (see --help)"
                .to_string());
        };
        Ok(Engine::new(graph, &cfg))
    };

    let mut server = match durable_dir {
        Some(dir) => {
            let dcfg = DurableConfig {
                dir: dir.clone().into(),
                policy: fsync,
                failpoints: FailPoints::none(),
            };
            let (engine, dur, rep) =
                Durability::open(dcfg, LocalConfig::sequential(), build_engine)?;
            info!(
                "serve",
                "durable in {dir:?} ({})",
                if rep.cold_start {
                    "fresh directory"
                } else {
                    "recovered from checkpoint — κ adopted, WAL tail applied as one update"
                };
                "replayed" => rep.replayed,
                "torn_bytes" => rep.torn_bytes,
                "generation" => rep.generation,
                "recovery_micros" => rep.wall_us,
                "read_micros" => rep.read_us,
                "fold_micros" => rep.fold_us,
                "apply_micros" => rep.apply_us,
                "checkpoint_micros" => rep.checkpoint_us,
            );
            Server::with_durability(engine, dur)
        }
        None => Server::new(build_engine()?),
    };
    if debug_ops {
        server.enable_debug_ops();
    }
    server.set_trace_slow_us(trace_slow_ms.map(|ms| ms.saturating_mul(1000)));
    {
        let overload = server.overload();
        overload.set_max_inflight(max_inflight);
        overload.set_mode(brownout);
        overload.recompute_tier();
    }
    if let Some(addr) = metrics_addr {
        let bound = hdsd_telemetry::prometheus::serve_http(&addr)
            .map_err(|e| format!("bind --metrics-addr {addr}: {e}"))?;
        info!("serve", "metrics exporter listening"; "addr" => bound);
    }

    {
        let s = server.engine_stats();
        info!(
            "serve",
            "{} vertices, {} edges; resident: {}",
            s.vertices,
            s.edges,
            s.spaces
                .iter()
                .map(|sp| format!(
                    "{}({} cliques, max κ {}, build {} µs, peel {} µs)",
                    sp.space, sp.cliques, sp.max_kappa, sp.build_us, sp.peel_us
                ))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    install_signal_handlers();
    match listen {
        None => serve_stdio(server),
        Some(addr) => serve_tcp(server, &addr, readers),
    }
}

/// Final drain: flush the WAL and fold the engine into a checkpoint so
/// the next start replays nothing. Failures are reported, not fatal —
/// the WAL still holds every acknowledged batch.
fn drain(server: &mut Server, why: &str) {
    if !server.is_durable() {
        return;
    }
    match server.drain_and_checkpoint() {
        Ok(()) => info!("serve", "{why}: checkpointed"),
        Err(e) => error!("serve", "{why}: final checkpoint failed ({e}); WAL retained"),
    }
}

fn serve_stdio(mut server: Server) -> Result<(), String> {
    // Blocking stdin reads are not reliably interrupted by SIGTERM (libc
    // installs handlers with SA_RESTART), so a dedicated thread owns the
    // blocking reads and the serving loop polls SHUTDOWN between lines
    // delivered over a channel. The thread may still be parked in read(2)
    // when the loop exits; process exit reclaims it.
    let (line_tx, line_rx) = mpsc::channel::<std::io::Result<String>>();
    std::thread::Builder::new()
        .name("hdsd-stdin".to_string())
        .spawn(move || {
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                let failed = line.is_err();
                if line_tx.send(line).is_err() || failed {
                    break;
                }
            }
        })
        .map_err(|e| format!("spawn stdin reader: {e}"))?;

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    loop {
        if SHUTDOWN.load(Ordering::SeqCst) {
            break;
        }
        let line = match line_rx.recv_timeout(Duration::from_millis(50)) {
            Ok(line) => line.map_err(|e| format!("stdin: {e}"))?,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break, // EOF
        };
        if line.trim().is_empty() {
            continue;
        }
        let h = server.handle_line(&line);
        writeln!(out, "{}", h.response)
            .and_then(|_| out.flush())
            .map_err(|e| format!("stdout: {e}"))?;
        if h.shutdown {
            // The shutdown op already checkpointed under --durable.
            return Ok(());
        }
    }
    drain(&mut server, "shutdown (EOF/signal)");
    Ok(())
}

/// A request line may not exceed this many bytes. A connection whose
/// read buffer holds this much without a newline is dropped — otherwise
/// a client streaming a newline-free line grows the buffer without
/// bound.
const MAX_LINE_BYTES: usize = 1024 * 1024;

/// Stop reading new requests from a connection whose unflushed response
/// bytes exceed this high-water mark. A client that pipelines requests
/// while never reading responses stalls (its kernel socket buffers fill,
/// then its reads stop, then its writes block) instead of growing
/// `write_buf` without bound.
const WRITE_HIGH_WATER: usize = 4 * 1024 * 1024;

/// Per-connection in-flight quota: once this many requests from one
/// connection are dispatched and unanswered, the IO loop stops reading
/// that socket — plain TCP backpressure on the one flooding client,
/// invisible to everyone else.
const PER_CONN_QUOTA: usize = 32;

/// A request line routed to a worker, tagged with its connection slot
/// and that slot's generation at dispatch time.
struct Job {
    conn: usize,
    gen: u64,
    line: String,
    /// The connection's cancel flag, raised when it is reaped: a worker
    /// drops a not-yet-started job for a dead client at dequeue, and a
    /// running kernel aborts at its next chunk boundary.
    cancel: Arc<AtomicBool>,
    /// `Some(retry_after_ms)` when admission shed this request: the
    /// worker answers the pre-rendered `overloaded` error without
    /// touching the engine. Shed verdicts ride the same queue as real
    /// jobs so per-connection response order is preserved.
    shed: Option<u64>,
}

/// A worker's answer, routed back to the connection's write buffer.
struct Resp {
    conn: usize,
    gen: u64,
    response: String,
}

/// One live TCP connection owned by the IO loop.
struct Conn {
    stream: std::net::TcpStream,
    /// Unique id for this connection's tenancy of its slot. Slots are
    /// reused after a connection dies — possibly with responses still in
    /// flight from the workers — so every `Job`/`Resp` carries the
    /// generation and the response sweep drops answers whose generation
    /// no longer matches the slot's occupant. Without this, a late
    /// response for a reaped connection would be delivered to whichever
    /// client was accepted into the recycled slot.
    gen: u64,
    /// Bytes received but not yet terminated by `\n`.
    read_buf: Vec<u8>,
    /// Response bytes accepted by the kernel lazily (nonblocking flush).
    write_buf: Vec<u8>,
    /// Worker this connection is pinned to (round-robin at accept).
    /// Pinning keeps per-connection responses in request order without
    /// any sequencing machinery: an mpsc channel is FIFO per sender, and
    /// one worker drains its queue in order.
    worker: usize,
    /// Requests dispatched to the worker and not yet answered.
    pending: usize,
    /// Raised when this connection is reaped; every dispatched job
    /// carries a clone, so in-flight work for a dead client stops
    /// instead of running to completion.
    cancel: Arc<AtomicBool>,
    eof: bool,
    dead: bool,
}

impl Conn {
    /// Pull whatever the kernel has; returns up to `max_lines` complete
    /// request lines (the per-connection quota — the surplus stays in
    /// `read_buf` for the next sweep). Sets `eof`/`dead` as a side
    /// effect.
    fn pump_read(&mut self, max_lines: usize) -> Vec<String> {
        let mut tmp = [0u8; 16 * 1024];
        loop {
            // Bound how much one sweep buffers: a flooding client leaves
            // its surplus in the kernel socket buffer until the next
            // sweep, so `read_buf` stays O(MAX_LINE_BYTES).
            if self.read_buf.len() > MAX_LINE_BYTES {
                break;
            }
            match self.stream.read(&mut tmp) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => self.read_buf.extend_from_slice(&tmp[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        let mut lines = Vec::new();
        while lines.len() < max_lines {
            let Some(pos) = self.read_buf.iter().position(|&b| b == b'\n') else { break };
            let raw: Vec<u8> = self.read_buf.drain(..=pos).collect();
            match std::str::from_utf8(&raw) {
                Ok(s) if s.trim().is_empty() => {}
                Ok(s) => lines.push(s.trim_end_matches(['\n', '\r']).to_string()),
                Err(_) => {
                    // The protocol is JSON text; a client sending raw
                    // bytes gets dropped rather than a garbled parse.
                    self.dead = true;
                    return lines;
                }
            }
        }
        if self.read_buf.len() > MAX_LINE_BYTES && !self.read_buf.contains(&b'\n') {
            // Quota-deferred complete lines are fine (drained next
            // sweep); an oversized newline-free residue is one request
            // line over the limit.
            self.dead = true;
        }
        lines
    }

    /// Push buffered response bytes; stops at WouldBlock.
    fn pump_write(&mut self) {
        while !self.write_buf.is_empty() {
            match self.stream.write(&self.write_buf) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.write_buf.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    fn finished(&self) -> bool {
        self.dead || (self.eof && self.pending == 0 && self.write_buf.is_empty())
    }
}

/// Poll-based multi-connection serving: one IO thread owns the sockets,
/// `readers` worker threads each own a wait-free `Server` handle (shared
/// epoch cell + writer lane). No epoll and no async runtime — the loop
/// does nonblocking accept/read/write sweeps with a short idle sleep,
/// which keeps the binary dependency-free and the shutdown paths
/// (in-band `shutdown` op, SIGTERM/SIGINT) easy to observe.
fn serve_tcp(mut server: Server, addr: &str, readers: usize) -> Result<(), String> {
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    info!(
        "serve",
        "listening";
        "addr" => listener.local_addr().map_err(|e| e.to_string())?,
        "readers" => readers,
    );
    listener.set_nonblocking(true).map_err(|e| format!("set_nonblocking: {e}"))?;

    let stop = Arc::new(AtomicBool::new(false));
    let overload: Arc<OverloadState> = server.overload();
    let (resp_tx, resp_rx) = mpsc::channel::<Resp>();
    let mut job_txs: Vec<mpsc::Sender<Job>> = Vec::with_capacity(readers);
    let mut workers = Vec::with_capacity(readers);
    for w in 0..readers {
        let (tx, rx) = mpsc::channel::<Job>();
        job_txs.push(tx);
        let mut handle = server.handle();
        let resp_tx = resp_tx.clone();
        let stop = Arc::clone(&stop);
        let overload = Arc::clone(&overload);
        let worker = std::thread::Builder::new()
            .name(format!("hdsd-reader-{w}"))
            .spawn(move || {
                // Drain the queue even during shutdown: every request the
                // IO loop dispatched gets its response flushed.
                while let Ok(job) = rx.recv() {
                    // Shed verdict: answer the structured error without
                    // touching the engine. It rode the queue only so the
                    // connection's response order is preserved; it was
                    // never admitted, so no overload accounting here.
                    if let Some(retry_after_ms) = job.shed {
                        let response = format!(
                            "{{\"ok\":false,\"error\":\"overloaded\",\
                             \"retry_after_ms\":{retry_after_ms},\"micros\":0}}"
                        );
                        if resp_tx.send(Resp { conn: job.conn, gen: job.gen, response }).is_err() {
                            break;
                        }
                        continue;
                    }
                    overload.job_dequeued();
                    // Dead connection: the IO loop raised the flag when it
                    // reaped the slot. Drop the job instead of burning a
                    // worker on an answer nobody will read (the response
                    // would be discarded by the generation check anyway).
                    if job.cancel.load(Ordering::Relaxed) {
                        overload.on_cancelled();
                        overload.job_done();
                        continue;
                    }
                    let token = CancelToken::with_flag(Arc::clone(&job.cancel));
                    let h = handle.handle_line_under(&job.line, &token);
                    overload.job_done();
                    if h.shutdown {
                        stop.store(true, Ordering::SeqCst);
                    }
                    if resp_tx
                        .send(Resp { conn: job.conn, gen: job.gen, response: h.response })
                        .is_err()
                    {
                        break;
                    }
                }
            })
            .map_err(|e| format!("spawn reader: {e}"))?;
        workers.push(worker);
    }
    drop(resp_tx); // the IO loop only receives

    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut next_worker = 0usize;
    let mut next_gen = 0u64;
    let mut stop_seen: Option<Instant> = None;
    let mut shutdown_op = false;
    let mut last_tick = Instant::now();
    loop {
        let mut progressed = false;
        // Brownout controller tick: re-evaluate the degradation tier from
        // queue pressure and the recent p99 about 10×/s.
        if last_tick.elapsed() >= Duration::from_millis(100) {
            overload.recompute_tier();
            last_tick = Instant::now();
        }
        let stopping = stop.load(Ordering::SeqCst) || SHUTDOWN.load(Ordering::SeqCst);
        if let (Some(_), None) = (stopping.then_some(()), stop_seen) {
            stop_seen = Some(Instant::now());
            shutdown_op = stop.load(Ordering::SeqCst);
        }

        // Accept sweep (drains the backlog) — until shutdown begins.
        if !stopping {
            loop {
                match listener.accept() {
                    Ok((s, _)) => {
                        if let Err(e) = s.set_nonblocking(true) {
                            warn!("serve", "set_nonblocking on accepted stream failed: {e}");
                            continue;
                        }
                        let conn = Conn {
                            stream: s,
                            gen: next_gen,
                            read_buf: Vec::new(),
                            write_buf: Vec::new(),
                            worker: next_worker,
                            pending: 0,
                            cancel: Arc::new(AtomicBool::new(false)),
                            eof: false,
                            dead: false,
                        };
                        next_gen += 1;
                        next_worker = (next_worker + 1) % readers;
                        let slot = conns.iter().position(Option::is_none);
                        match slot {
                            Some(i) => conns[i] = Some(conn),
                            None => conns.push(Some(conn)),
                        }
                        progressed = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) => {
                        warn!("serve", "accept failed: {e}");
                        break;
                    }
                }
            }
        }

        // Read sweep: new requests go to each connection's worker. During
        // shutdown nothing new is dispatched — in-flight work drains.
        if !stopping {
            for (id, slot) in conns.iter_mut().enumerate() {
                let Some(conn) = slot else { continue };
                // Backpressure: a client that pipelines without reading
                // responses gets no further reads until its write buffer
                // drains below the high-water mark.
                if conn.write_buf.len() >= WRITE_HIGH_WATER {
                    continue;
                }
                // Per-connection quota: leave the surplus in the socket.
                let budget = PER_CONN_QUOTA.saturating_sub(conn.pending);
                if budget == 0 {
                    continue;
                }
                for line in conn.pump_read(budget) {
                    // Admission control. A shed verdict still rides the
                    // worker queue (as a no-work job) so the connection's
                    // responses stay in request order.
                    let shed = match overload
                        .try_admit(is_expensive_op(&line), is_shed_exempt_op(&line))
                    {
                        Admission::Admit => None,
                        Admission::Shed { retry_after_ms } => Some(retry_after_ms),
                    };
                    let job = Job {
                        conn: id,
                        gen: conn.gen,
                        line,
                        cancel: Arc::clone(&conn.cancel),
                        shed,
                    };
                    if job_txs[conn.worker].send(job).is_ok() {
                        conn.pending += 1;
                        progressed = true;
                    }
                }
            }
        }

        // Response sweep: worker answers into write buffers. A response
        // whose generation doesn't match the slot's current occupant
        // belongs to a connection that was reaped while the request was
        // in flight — dropped, never delivered to the slot's new tenant.
        while let Ok(r) = resp_rx.try_recv() {
            progressed = true;
            if let Some(Some(conn)) = conns.get_mut(r.conn) {
                if conn.gen != r.gen {
                    continue;
                }
                conn.pending = conn.pending.saturating_sub(1);
                conn.write_buf.extend_from_slice(r.response.as_bytes());
                conn.write_buf.push(b'\n');
            }
        }

        // Write sweep + reap.
        let mut inflight = 0usize;
        for slot in conns.iter_mut() {
            let Some(conn) = slot else { continue };
            if !conn.write_buf.is_empty() {
                let before = conn.write_buf.len();
                conn.pump_write();
                if conn.write_buf.len() != before {
                    progressed = true;
                }
            }
            if conn.finished() {
                // Cancel this client's in-flight work: queued jobs are
                // dropped at dequeue, a running kernel aborts at its next
                // chunk boundary.
                conn.cancel.store(true, Ordering::Relaxed);
                *slot = None;
                progressed = true;
            } else {
                inflight += conn.pending + conn.write_buf.len();
            }
        }

        if stopping {
            // Leave once every dispatched request is answered and
            // flushed, or after a short deadline (a stalled client must
            // not wedge shutdown — the WAL already holds every
            // acknowledged batch).
            let deadline_passed = stop_seen.is_some_and(|t| t.elapsed() > Duration::from_secs(3));
            if inflight == 0 || deadline_passed {
                if deadline_passed {
                    // Abandoning the stragglers: raise every cancel flag
                    // so queued jobs are dropped and running kernels
                    // abort, letting the workers drain quickly.
                    for conn in conns.iter().flatten() {
                        conn.cancel.store(true, Ordering::Relaxed);
                    }
                }
                break;
            }
        }
        if !progressed {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    // Closing the job channels ends the workers once their queues drain.
    drop(job_txs);
    for w in workers {
        let _ = w.join();
    }
    // Signal path only — the in-band shutdown op already checkpointed.
    if !shutdown_op {
        drain(&mut server, "shutdown (signal)");
    }
    Ok(())
}
