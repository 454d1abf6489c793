//! The three socket workloads: `serve_point`, `serve_analytic` and
//! `serve_churn`, all against the release `hdsd-serve` over loopback TCP.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hdsd_graph::GraphBuilder;
use hdsd_service::{Engine, Json, SpaceSel};

use crate::gen::{self, Batch, Expect, Request, Rng, SPACES};
use crate::layers;
use crate::loadgen::{closed_loop, open_loop, Exchange};
use crate::metrics::Outcome;
use crate::oracle::{self, op_index, Verified};
use crate::server::{
    check_interrupted, filesystem_of, reply_micros, reply_ok, Conn, ServerProc, TempDir,
};
use crate::stats::{mean, median, percentile, summarize, windowed_percentile};
use crate::trace::Trace;
use crate::Run;

/// Connections (and load-generating threads) of the read workloads: `nproc`, at most 2.
fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Requests in flight per connection in the saturation phase (the
/// server's per-connection quota).
const SATURATION_WINDOW: usize = 32;

/// What every socket workload starts from: the generated graph on disk,
/// the oracle over the same file, and a run directory that removes itself.
struct Bed {
    dir: TempDir,
    graph_path: PathBuf,
    log: PathBuf,
    oracle: Engine,
    oracle_build_ms: f64,
}

impl Bed {
    fn new(run: &Run, label: &str, o: &mut Outcome) -> Result<Bed, String> {
        let dir = TempDir::create(&run.out_dir.join("tmp"), label)?;
        let n = if run.quick { 5_000 } else { 20_000 };
        let graph_path = dir.path().join("graph.txt");
        hdsd_graph::write_edge_list(&gen::graph(n, run.seed), &graph_path)
            .map_err(|e| format!("write {}: {e}", graph_path.display()))?;
        let bytes = std::fs::read(&graph_path).map_err(|e| format!("read back graph: {e}"))?;
        let mut hash = gen::Fnv::new();
        hash.update(&bytes);
        // The oracle reads the file the server reads, so both number
        // cliques the same way.
        let graph = hdsd_graph::read_edge_list(&graph_path)
            .map_err(|e| format!("parse {}: {e}", graph_path.display()))?;
        o.note(format!(
            "G_serve = holme_kim({n}, 8, 0.5, {}): {} vertices, {} edges, edge list fnv1a={:016x}",
            run.seed,
            graph.num_vertices(),
            graph.num_edges(),
            hash.finish()
        ));
        let t = Instant::now();
        let oracle = oracle::engine(graph);
        let oracle_build_ms = t.elapsed().as_secs_f64() * 1e3;
        let log = dir.path().join("server.log");
        Ok(Bed { dir, graph_path, log, oracle, oracle_build_ms })
    }

    /// Starts the server [`SETUPS`] times, keeps the last one, and
    /// reports the median spawn → first ok `stats` as `setup_s`. With
    /// `durable`, each start gets a fresh durability directory.
    fn start(
        &self,
        run: &Run,
        durable: bool,
        o: &mut Outcome,
    ) -> Result<(ServerProc, Option<PathBuf>), String> {
        let mut secs = Vec::with_capacity(SETUPS);
        let mut last = None;
        for i in 0..SETUPS {
            drop(last.take());
            let dir = durable.then(|| self.dir.path().join(format!("durable-{i}")));
            let server =
                ServerProc::spawn(&run.server_bin, &self.graph_path, dir.as_deref(), &self.log)?;
            secs.push(server.ready_secs);
            last = Some((server, dir));
        }
        let (server, dir) = last.expect("at least one set-up");
        o.e2e("setup_s", median(&secs), secs.len());
        o.note(format!("server: {}", server.command_line));
        Ok((server, dir))
    }
}

fn lines_of(requests: &[Request]) -> Vec<String> {
    requests.iter().map(|r| r.line.clone()).collect()
}

/// An open-loop phase over `conns` connections: arrival `i` sends line
/// `i % lines.len()` on connection `i % conns`, so the server sees the
/// whole Poisson stream.
fn open_phase(
    addr: SocketAddr,
    lines: &[String],
    due: &[f64],
    conns: usize,
    stop: &AtomicBool,
) -> Exchange {
    let origin = Instant::now() + Duration::from_millis(20);
    let shares: Vec<(Vec<usize>, Vec<f64>)> = (0..conns)
        .map(|c| {
            let arrivals = (c..due.len()).step_by(conns);
            let at = arrivals.clone().map(|i| due[i]).collect();
            (arrivals.map(|i| i % lines.len()).collect(), at)
        })
        .collect();
    let mut all = Exchange::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .iter()
            .map(|(idx, at)| scope.spawn(move || open_loop(addr, lines, idx, at, origin, stop)))
            .collect();
        for h in handles {
            all.merge(h.join().expect("load generator thread does not panic"));
        }
    });
    all
}

/// A closed-loop phase cycling over `indices` into `lines`: `conns`
/// connections, `window` in flight on each.
fn closed_phase(
    addr: SocketAddr,
    lines: &[String],
    indices: &[usize],
    conns: usize,
    window: usize,
    seconds: f64,
) -> Exchange {
    let origin = Instant::now();
    let shares: Vec<Vec<usize>> =
        (0..conns).map(|c| indices.iter().skip(c).step_by(conns).copied().collect()).collect();
    let mut all = Exchange::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .iter()
            .map(|idx| {
                scope.spawn(move || {
                    closed_loop(addr, lines, idx, window, origin, seconds, usize::MAX)
                })
            })
            .collect();
        for h in handles {
            all.merge(h.join().expect("load generator thread does not panic"));
        }
    });
    all
}

/// Time windows a phase is cut into; medians are taken across them (see
/// [`windowed_percentile`]).
const WINDOWS: usize = 10;

/// Reports how late the generator ran and marks the run invalid when it
/// could not keep its schedule: a median lateness past a fifth of the
/// median latency means the numbers describe the generator. (The tail of
/// the lateness is reported, not judged: on a virtual machine a sleeping
/// thread wakes hundreds of µs late about once in a hundred times whatever
/// the generator does, and latencies are timed from the due time, so that
/// wait is inside them.)
fn check_lateness(o: &mut Outcome, ex: &Exchange, windows: usize, p50_us: f64) {
    let late = |level| windowed_percentile(&ex.start_us, &ex.late_us, windows, level);
    o.layer("loadgen.late_p99_us", late(99.0), ex.late_us.len());
    let late_p50 = late(50.0);
    if late_p50 > 0.2 * p50_us {
        o.invalid = Some(format!(
            "load generator ran late: median lateness {late_p50:.0} µs is over 20% of the \
             median latency {p50_us:.0} µs"
        ));
    }
}

/// One hierarchy-backed query per space builds its forest, which then
/// stays resident (and is repaired, not rebuilt, by updates).
fn make_forests_resident(conn: &mut Conn) -> Result<(), String> {
    for sel in SPACES {
        let reply =
            conn.call(&format!("{{\"op\":\"nuclei\",\"space\":\"{}\",\"k\":1}}", sel.name()))?;
        if !reply_ok(&reply) {
            return Err(format!("warm-up nuclei on {} failed: {reply}", sel.name()));
        }
    }
    Ok(())
}

/// The overload counters of a `stats` reply: shed, degraded, cancelled, tier.
fn overload_counters(conn: &mut Conn) -> Result<[f64; 4], String> {
    let stats = conn.call("{\"op\":\"stats\"}")?;
    let ov = stats.get("overload").ok_or("stats reply lacks overload")?;
    let read = |k: &str| ov.get(k).and_then(Json::as_f64).ok_or(format!("overload lacks {k}"));
    Ok([read("shed")?, read("degraded")?, read("cancelled")?, read("brownout_tier")?])
}

fn report_overload(o: &mut Outcome, before: [f64; 4], after: [f64; 4]) {
    o.layer("service.overload.shed", after[0] - before[0], 1);
    o.layer("service.overload.degraded", after[1] - before[1], 1);
    o.layer("service.overload.cancelled", after[2] - before[2], 1);
    o.layer("service.overload.tier_max", before[3].max(after[3]), 2);
}

const SRV_NAMES: [&str; 5] = [
    "service.serve.srv_us.kappa",
    "service.serve.srv_us.estimate",
    "service.serve.srv_us.region",
    "service.serve.srv_us.nuclei",
    "service.serve.srv_us.node",
];

/// Round trip and its wire share: round trip − the reply's own `micros`,
/// i.e. the socket, the IO loop's sleeps and any queueing.
fn wire_layers(o: &mut Outcome, latency_us: &[f64], server_us: &[f64]) {
    let wire: Vec<f64> = latency_us.iter().zip(server_us).map(|(l, s)| l - s).collect();
    o.layer("service.serve.rtt_us", mean(latency_us), wire.len());
    o.layer("service.serve.wire_us", mean(&wire), wire.len());
    o.layer("service.serve.wire_p99_us", percentile(&wire, 99.0), wire.len());
}

/// Socket-side layer numbers of a verified open-loop phase: the wire
/// share (round trip − the reply's own `micros`) and server time per op.
/// Spans are built from timestamps the generator took anyway; the time it
/// takes to record them is the tracing overhead.
fn socket_layers(
    o: &mut Outcome,
    trace: &mut Trace,
    requests: &[Request],
    ex: &Exchange,
    v: &Verified,
    phase_secs: f64,
) {
    wire_layers(o, &ex.latency_us, &v.server_us);
    for (slot, name) in SRV_NAMES.iter().enumerate() {
        let of_op: Vec<f64> = (0..ex.replies.len())
            .filter(|&i| op_index(requests[ex.request[i]].expect.op()) == slot)
            .map(|i| v.server_us[i])
            .collect();
        if !of_op.is_empty() {
            o.layer(name, median(&of_op), of_op.len());
        }
    }
    let t = Instant::now();
    let origin = ex.origin.expect("a phase that ran has an origin");
    for i in 0..ex.replies.len() {
        let at = |us: f64| origin + Duration::from_secs_f64(us.max(0.0) / 1e6);
        let (start, end) = (ex.start_us[i], ex.start_us[i] + ex.latency_us[i]);
        let rtt = trace.record("service.serve.rtt", at(start), at(end), None, i as u64);
        trace.record(
            "service.protocol.handle_line",
            at(end - v.server_us[i]),
            at(end),
            rtt,
            i as u64,
        );
    }
    o.layer("trace.overhead_pct", t.elapsed().as_secs_f64() / phase_secs * 100.0, 1);
}

/// `serve_point`: `kappa` lookups — warm-up, an unloaded round trip (one
/// request in flight), an open loop at 2000 req/s, then a closed loop at
/// the per-connection quota for saturation throughput.
pub fn point(run: &Run) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    // Created first: spans are placed by instants taken during the phases.
    let mut trace = Trace::new(run.traced);
    let bed = Bed::new(run, "point", &mut o)?;
    let (server, _) = bed.start(run, false, &mut o)?;
    let conns = connections();
    let rate = 2000.0;
    let (warm_s, idle_s, open_s, sat_s) =
        (0.1 * run.seconds, 0.15 * run.seconds, 0.4 * run.seconds, 0.35 * run.seconds);

    let mut rng = Rng::new(run.seed, 11);
    let warm_due = gen::poisson_schedule(&mut rng, rate, warm_s);
    let open_due = gen::poisson_schedule(&mut rng, rate, open_s);
    let warm = gen::point_requests(&bed.oracle, &mut rng, warm_due.len());
    let open = gen::point_requests(&bed.oracle, &mut rng, open_due.len());
    let sat = gen::point_requests(&bed.oracle, &mut rng, 1 << 16);
    let (warm_lines, open_lines, sat_lines) = (lines_of(&warm), lines_of(&open), lines_of(&sat));
    o.note(format!(
        "requests fnv1a={:016x} (warm-up {}, open loop {} at {rate} req/s over {conns} \
         connections, pool of {} for the closed loops)",
        gen::hash_lines(warm_lines.iter().chain(&open_lines).chain(&sat_lines).map(String::as_str)),
        warm.len(),
        open.len(),
        sat.len()
    ));

    let never = AtomicBool::new(false);
    let mut ctl = Conn::open(server.addr)?;
    let warm_ex = open_phase(server.addr, &warm_lines, &warm_due, conns, &never);
    let before = overload_counters(&mut ctl)?;
    // The two closed loops walk the pool from opposite halves.
    let (first_half, second_half): (Vec<usize>, Vec<usize>) =
        ((0..sat.len() / 2).collect(), (sat.len() / 2..sat.len()).collect());
    let idle_ex = closed_phase(server.addr, &sat_lines, &first_half, 1, 1, idle_s);
    check_interrupted()?;
    let open_ex = open_phase(server.addr, &open_lines, &open_due, conns, &never);
    check_interrupted()?;
    let sat_ex =
        closed_phase(server.addr, &sat_lines, &second_half, conns, SATURATION_WINDOW, sat_s);
    let after = overload_counters(&mut ctl)?;
    check_interrupted()?;
    o.e2e("rss_mb", server.peak_rss_mb()?, 1);
    drop(ctl);
    server.kill();

    oracle::verify(&mut o, &bed.oracle, &warm, &warm_ex);
    let open_v = oracle::verify(&mut o, &bed.oracle, &open, &open_ex);
    oracle::verify(&mut o, &bed.oracle, &sat, &idle_ex);
    oracle::verify(&mut o, &bed.oracle, &sat, &sat_ex);
    if idle_ex.replies.is_empty() || open_ex.replies.is_empty() || sat_ex.replies.is_empty() {
        return Err(format!(
            "no replies: {:?} {:?} {:?}",
            idle_ex.error, open_ex.error, sat_ex.error
        ));
    }

    // Every latency of this server is a whole number of its IO loop's 1 ms
    // idle sleeps plus a little, and how many requests pay one sleep and
    // how many two moves with the machine's wake-up latency from minute to
    // minute. A percentile that sits between two of those modes (the
    // median does, in all three phases) jumps by a whole sleep when the
    // mix shifts; the bounded numbers are therefore percentiles that stay
    // inside one mode. The medians and p99s are printed without a bound.
    let at = |ex: &Exchange, level: f64| {
        windowed_percentile(&ex.start_us, &ex.latency_us, WINDOWS, level) / 1e3
    };
    let (idle_p90, open_p90) = (at(&idle_ex, 90.0), at(&open_ex, 90.0));
    let (sat_p50, sat_p95) = (at(&sat_ex, 50.0), at(&sat_ex, 95.0));
    // Completions per second while the loop was full: per window, the
    // replies whose request started in it.
    let mut per_window = vec![0.0; WINDOWS];
    for &t in &sat_ex.start_us {
        per_window[((t / 1e6 / sat_s * WINDOWS as f64) as usize).min(WINDOWS - 1)] += 1.0;
    }
    let rps = median(&per_window) / (sat_s / WINDOWS as f64);
    o.e2e("t1_ms", idle_p90, idle_ex.replies.len());
    o.e2e("t2_ms", open_p90, open_ex.replies.len());
    o.e2e("t3_ms", sat_p50, sat_ex.replies.len());
    o.e2e("t4_ms", sat_p95, sat_ex.replies.len());
    o.name("point_idle_p90_us", "us", idle_p90 * 1e3, idle_ex.replies.len());
    o.name("point_p90_us", "us", open_p90 * 1e3, open_ex.replies.len());
    o.name("point_sat_p50_us", "us", sat_p50 * 1e3, sat_ex.replies.len());
    o.name("point_sat_p95_us", "us", sat_p95 * 1e3, sat_ex.replies.len());
    o.name("point_rps", "1/s", rps, sat_ex.replies.len());
    o.name("point_idle_p50_us", "us", at(&idle_ex, 50.0) * 1e3, idle_ex.replies.len());
    o.name("point_p50_us", "us", at(&open_ex, 50.0) * 1e3, open_ex.replies.len());
    o.name("point_p99_us", "us", at(&open_ex, 99.0) * 1e3, open_ex.replies.len());
    o.name("point_sat_p99_us", "us", at(&sat_ex, 99.0) * 1e3, sat_ex.replies.len());
    o.note(format!(
        "unloaded = closed loop, 1 connection, 1 in flight for {idle_s:.1} s; saturation = \
         closed loop, window {SATURATION_WINDOW} on each of {conns} connections for {sat_s:.1} s; \
         every percentile is the median over {WINDOWS} windows of time"
    ));
    check_lateness(&mut o, &open_ex, WINDOWS, at(&open_ex, 50.0) * 1e3);
    report_overload(&mut o, before, after);
    o.layer("service.serve.sat_rps", rps, sat_ex.replies.len());
    o.layer("service.engine.build_ms", bed.oracle_build_ms, 1);

    if run.traced {
        socket_layers(&mut o, &mut trace, &open, &open_ex, &open_v, open_s);
        layers::point_replay(&mut o, &mut trace, bed.oracle, &open);
        let (rtt, wire, srv) = (
            o.layers["service.serve.rtt_us"].value,
            o.layers["service.serve.wire_us"].value,
            mean(&open_v.server_us),
        );
        let handle = o.layers["service.protocol.handle_us.kappa"].value;
        o.layer("service.serve.unattributed_us", srv - handle, open_v.server_us.len());
        o.note(format!(
            "budget per request (means, µs): rtt {rtt:.1} = wire {wire:.1} + server {srv:.1}; \
             server = parse {:.2} + engine {:.2} + dispatch/render {:.2} + unattributed {:.2} \
             (socket `micros` − in-process handle_line)",
            o.layers["service.json.parse_ns"].value / 1e3,
            o.layers["service.engine.kappa_ns"].value / 1e3,
            o.layers["service.protocol.render_us.kappa"].value,
            srv - handle,
        ));
        o.note(trace.write_for(run, "serve_point")?);
    }
    Ok(o)
}

/// The pipelined phases of `serve_analytic`: name, share of the run, ops.
const PIPELINED: [(&str, f64, &[&str]); 4] = [
    ("mix", 0.25, &["estimate", "region", "nuclei", "node"]),
    ("walk", 0.15, &["nuclei", "node"]),
    ("estimate", 0.15, &["estimate"]),
    ("region", 0.25, &["region"]),
];

/// Milliseconds per query of a pipelined phase on one connection: the
/// median, over the whole laps of its `lap` requests that it completed, of
/// lap time ÷ `lap` (over all replies when it did not finish one lap). A
/// lap is the same work in every run of a seed, a part of a lap is not; and
/// the median keeps one slow lap out of the number. Replies arrive in
/// request order, so replies `k·lap .. (k+1)·lap` are lap `k`.
fn per_query_ms(ex: &Exchange, lap: usize) -> (f64, usize) {
    let done_ms = |reply: usize| (ex.start_us[reply] + ex.latency_us[reply]) / 1e3;
    let laps = ex.replies.len() / lap;
    if laps == 0 {
        return (done_ms(ex.replies.len() - 1) / ex.replies.len() as f64, ex.replies.len());
    }
    let ends: Vec<f64> = (1..=laps).map(|k| done_ms(k * lap - 1)).collect();
    let mut lap_ms = vec![ends[0]];
    lap_ms.extend(ends.windows(2).map(|w| w[1] - w[0]));
    (median(&lap_ms) / lap as f64, laps * lap)
}

/// `serve_analytic`: the heavy read mix with all three hierarchies
/// resident — an open loop at 100 req/s for latency under a light load,
/// then closed loops that keep one connection's pipeline full, for what a
/// query costs the server when it never waits for the next one.
pub fn analytic(run: &Run) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    // Created first: spans are placed by instants taken during the phases.
    let mut trace = Trace::new(run.traced);
    let bed = Bed::new(run, "analytic", &mut o)?;
    // The first hierarchy-backed query on a space builds its forest.
    let t = Instant::now();
    let _ = bed.oracle.region_of(SpaceSel::Truss, 0);
    o.layer("service.engine.first_region_truss_ms", t.elapsed().as_secs_f64() * 1e3, 1);
    let targets = gen::AnalyticTargets::new(&bed.oracle);
    let (server, _) = bed.start(run, false, &mut o)?;
    let conns = connections();
    let rate = 100.0;
    let (warm_s, open_s) = (0.05 * run.seconds, 0.15 * run.seconds);

    // One pool, in a seeded order; every phase cycles over (its ops of) it.
    let mut rng = Rng::new(run.seed, 12);
    let pool = gen::analytic_pool(&targets, &mut rng, if run.quick { 300 } else { 1000 });
    let pool: Vec<Request> =
        gen::shuffled(pool.len(), &mut rng).into_iter().map(|i| pool[i].clone()).collect();
    let lines = lines_of(&pool);
    let warm_due = gen::poisson_schedule(&mut rng, rate, warm_s);
    let open_due = gen::poisson_schedule(&mut rng, rate, open_s);
    o.note(format!(
        "requests fnv1a={:016x} (pool of {}: 50% estimate, 30% region, 10% nuclei at k = {:?}, \
         10% node; warm-up {} and open loop {} at {rate} req/s over {conns} connections; then \
         closed loops on 1 connection with {SATURATION_WINDOW} in flight)",
        gen::hash_lines(lines.iter().map(String::as_str)),
        pool.len(),
        targets.median_level,
        warm_due.len(),
        open_due.len(),
    ));

    let mut ctl = Conn::open(server.addr)?;
    make_forests_resident(&mut ctl)?;
    let never = AtomicBool::new(false);
    // The warm-up starts where the open loop will end, so between them
    // they touch as much of the pool as they can.
    let warm_lines: Vec<String> = lines.iter().rev().cloned().collect();
    let warm_pool: Vec<Request> = pool.iter().rev().cloned().collect();
    let warm_ex = open_phase(server.addr, &warm_lines, &warm_due, conns, &never);
    let before = overload_counters(&mut ctl)?;
    let open_ex = open_phase(server.addr, &lines, &open_due, conns, &never);
    check_interrupted()?;
    let mut pipelined = Vec::with_capacity(PIPELINED.len());
    let mut per_query = Vec::with_capacity(PIPELINED.len());
    for (_, share, ops) in PIPELINED {
        let indices: Vec<usize> =
            (0..pool.len()).filter(|&i| ops.contains(&pool[i].expect.op())).collect();
        let seconds = share * run.seconds;
        let ex = closed_phase(server.addr, &lines, &indices, 1, SATURATION_WINDOW, seconds);
        check_interrupted()?;
        if ex.replies.is_empty() {
            return Err(format!("no replies in a pipelined phase: {:?}", ex.error));
        }
        per_query.push(per_query_ms(&ex, indices.len()));
        pipelined.push(ex);
    }
    let after = overload_counters(&mut ctl)?;
    o.e2e("rss_mb", server.peak_rss_mb()?, 1);
    drop(ctl);
    server.kill();

    oracle::verify_repeats(&mut o, &bed.oracle, &warm_pool, &Exchange::default(), &[&warm_ex]);
    // The open loop may lap the pool on a long run; its first lap gets the
    // full check and the per-op engine times.
    let open_v = oracle::verify(&mut o, &bed.oracle, &pool, &open_ex);
    let repeats: Vec<&Exchange> = pipelined.iter().collect();
    oracle::verify_repeats(&mut o, &bed.oracle, &pool, &open_ex, &repeats);
    if open_ex.replies.is_empty() {
        return Err(format!("no replies: {:?}", open_ex.error));
    }

    // The bounded numbers are the pipelined ones: milliseconds per query
    // with the connection's worker never idle, which is the query's own
    // cost (parse, kernel, render) and does not depend on when the IO loop
    // happens to wake. Under the open loop (and in any loop with one
    // request in flight) a query that computes for 0.3 ms and one that
    // computes for 0.9 ms both take two of the IO loop's 1 ms sleeps, and a
    // tenth of the requests (regions of the one big nucleus, tens of ms)
    // block whatever queues behind them; those percentiles move by tens of
    // percent between runs of the same code and are printed without a bound.
    for (slot, name) in ["t1_ms", "t2_ms", "t3_ms", "t4_ms"].into_iter().enumerate() {
        o.e2e(name, per_query[slot].0, per_query[slot].1);
    }
    for (slot, name) in ["query_ms", "walk_ms", "estimate_ms", "region_ms"].into_iter().enumerate()
    {
        o.name(name, "ms", per_query[slot].0, per_query[slot].1);
    }
    let open = summarize(&open_ex.latency_us);
    o.name("query_p50_us", "us", open.p50, open.n);
    o.name("query_tail_us", "us", open.tail, open.n);
    o.note(format!(
        "pipelined phases (1 connection, {SATURATION_WINDOW} in flight): {}; ms per query = time \
         to the end of the last whole lap of the phase's requests / replies until then; open \
         loop at {rate} req/s: query_tail_us is p{}",
        PIPELINED.map(|(name, share, _)| format!("{name} {:.1} s", share * run.seconds)).join(", "),
        open.tail_level
    ));
    check_lateness(&mut o, &open_ex, WINDOWS / 2, open.p50);
    report_overload(&mut o, before, after);
    o.layer("service.engine.build_ms", bed.oracle_build_ms, 1);
    let t = &open_v.times;
    for (op, name) in [
        ("estimate", "service.engine.estimate_us"),
        ("region", "service.engine.region_us"),
        ("nuclei", "service.engine.nuclei_us"),
    ] {
        let (secs, calls) = t.by_op[op_index(op)];
        o.layer(name, secs * 1e6 / calls.max(1) as f64, calls);
    }
    let n_est = t.by_op[op_index("estimate")].1.max(1) as f64;
    o.layer("nucleus.query.explored_mean", t.explored as f64 / n_est, n_est as usize);
    o.layer("nucleus.query.truncated_share", t.truncated as f64 / n_est, n_est as usize);

    if run.traced {
        socket_layers(&mut o, &mut trace, &pool, &open_ex, &open_v, open_s);
        let replayed = &pool[..open_ex.replies.len().min(pool.len())];
        layers::analytic_replay(&mut o, &mut trace, bed.oracle, replayed);
        let (rtt, wire, srv) = (
            o.layers["service.serve.rtt_us"].value,
            o.layers["service.serve.wire_us"].value,
            mean(&open_v.server_us),
        );
        o.note(format!(
            "budget per open-loop request (means, µs): rtt {rtt:.1} = wire and queue {wire:.1} + \
             server {srv:.1} (share outside the handler {:.0}%)",
            wire / rtt * 100.0
        ));
        o.note(trace.write_for(run, "serve_analytic")?);
    }
    Ok(o)
}

/// One acknowledged `update`, as the client saw it and as the ack itemises it.
struct Ack {
    sent_us: f64,
    rtt_us: f64,
    micros: f64,
    wall: f64,
    graph_delta: f64,
    splice: [f64; 3],
    refresh: [f64; 3],
    repair: [f64; 3],
    processed: [f64; 3],
    awake: [f64; 3],
    preserved_nodes: [f64; 3],
    rebuilt_nodes: [f64; 3],
    full_rebuilds: f64,
}

fn parse_ack(reply: &Json, sent_us: f64, rtt_us: f64) -> Result<Ack, String> {
    let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).ok_or(format!("ack lacks {k}"));
    let mut ack = Ack {
        sent_us,
        rtt_us,
        micros: num(reply, "micros")?,
        wall: num(reply, "wall_micros")?,
        graph_delta: num(reply, "graph_delta_micros")?,
        splice: [0.0; 3],
        refresh: [0.0; 3],
        repair: [0.0; 3],
        processed: [0.0; 3],
        awake: [0.0; 3],
        preserved_nodes: [0.0; 3],
        rebuilt_nodes: [0.0; 3],
        full_rebuilds: 0.0,
    };
    let spaces = reply.get("spaces").and_then(Json::as_array).ok_or("ack lacks spaces")?;
    for sp in spaces {
        let name = sp.get("space").and_then(Json::as_str).ok_or("space lacks name")?;
        let s = SPACES.iter().position(|sel| sel.name() == name).ok_or("unknown space in ack")?;
        ack.splice[s] = num(sp, "splice_micros")?;
        ack.refresh[s] = num(sp, "refresh_micros")?;
        ack.processed[s] = num(sp, "processed")?;
        ack.awake[s] = num(sp, "awake")?;
        if let Some(hr) = sp.get("hierarchy_repair") {
            ack.repair[s] = num(hr, "repair_micros")?;
            ack.preserved_nodes[s] = num(hr, "preserved_nodes")?;
            ack.rebuilt_nodes[s] = num(hr, "rebuilt_nodes")?;
            ack.full_rebuilds +=
                f64::from(hr.get("full_rebuild").and_then(Json::as_bool) == Some(true));
        }
    }
    Ok(ack)
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// Checks a `kappa`-by-vertices reply against an oracle whose clique ids
/// differ from the server's (a graph rebuilt from the final edge set).
fn check_kappa_by_vertices(oracle: &Engine, space: usize, reply: &Json) -> Result<(), String> {
    if !reply_ok(reply) {
        return Err(format!("not a full-quality answer: {reply}"));
    }
    let vertices: Vec<u32> = reply
        .get("vertices")
        .and_then(Json::as_array)
        .and_then(|xs| xs.iter().map(|x| x.as_u64().map(|v| v as u32)).collect())
        .ok_or("reply lacks vertices")?;
    let id = oracle.resolve(SPACES[space], &vertices)?;
    let want = u64::from(oracle.kappa_of(SPACES[space], id)?);
    let got = reply.get("kappa").and_then(Json::as_u64).ok_or("reply lacks kappa")?;
    if got == want {
        Ok(())
    } else {
        Err(format!("κ of {vertices:?}: server says {got}, oracle says {want}"))
    }
}

const DELTA_NAMES: [&str; 3] =
    ["nucleus.delta.core_ms", "nucleus.delta.truss_ms", "nucleus.delta.n34_ms"];
const INCREMENTAL_NAMES: [&str; 3] =
    ["nucleus.incremental.core_ms", "nucleus.incremental.truss_ms", "nucleus.incremental.n34_ms"];
const REPAIR_NAMES: [&str; 3] =
    ["nucleus.repair.core_ms", "nucleus.repair.truss_ms", "nucleus.repair.n34_ms"];
const PROCESSED_NAMES: [&str; 3] = [
    "nucleus.incremental.core_processed",
    "nucleus.incremental.truss_processed",
    "nucleus.incremental.n34_processed",
];
const AWAKE_NAMES: [&str; 3] = [
    "nucleus.incremental.core_awake",
    "nucleus.incremental.truss_awake",
    "nucleus.incremental.n34_awake",
];

/// Layer numbers of the write path, all from fields the `update` ack
/// already carries: the mean update round trip splits into wire, protocol
/// overhead and the engine's stages, with the remainder under its own name.
fn update_layers(o: &mut Outcome, acks: &[Ack]) {
    let n = acks.len();
    let mean_ms = |f: &dyn Fn(&Ack) -> f64| acks.iter().map(f).sum::<f64>() / n as f64 / 1e3;
    let total = |f: &dyn Fn(&Ack) -> f64| acks.iter().map(f).sum::<f64>();
    let rtt = mean_ms(&|a| a.rtt_us);
    let wire = mean_ms(&|a| a.rtt_us - a.micros);
    let overhead = mean_ms(&|a| a.micros - a.wall);
    let wall = mean_ms(&|a| a.wall);
    let delta = mean_ms(&|a| a.graph_delta);
    o.layer("service.serve.update_rtt_ms", rtt, n);
    o.layer("service.serve.update_wire_ms", wire, n);
    o.layer("service.protocol.update_overhead_ms", overhead, n);
    o.layer("service.engine.update_ms", wall, n);
    o.layer("graph.delta_ms", delta, n);
    let micros: Vec<f64> = acks.iter().map(|a| a.micros).collect();
    o.layer("service.serve.srv_us.update", median(&micros), n);
    let mut attributed = delta;
    for s in 0..3 {
        let (splice, refresh, repair) =
            (mean_ms(&|a| a.splice[s]), mean_ms(&|a| a.refresh[s]), mean_ms(&|a| a.repair[s]));
        attributed += splice + refresh + repair;
        o.layer(DELTA_NAMES[s], splice, n);
        o.layer(INCREMENTAL_NAMES[s], refresh, n);
        o.layer(REPAIR_NAMES[s], repair, n);
        o.layer(PROCESSED_NAMES[s], total(&|a| a.processed[s]), n);
        o.layer(AWAKE_NAMES[s], total(&|a| a.awake[s]), n);
    }
    let other = wall - attributed;
    o.layer("service.engine.update_other_ms", other, n);
    let (kept, rebuilt) = (total(&|a| a.preserved_nodes[1]), total(&|a| a.rebuilt_nodes[1]));
    o.layer("nucleus.repair.truss_preserved_share", kept / (kept + rebuilt).max(1.0), n);
    o.layer("nucleus.repair.full_rebuilds", total(&|a| a.full_rebuilds), n);
    o.note(format!(
        "budget per update (means, ms): rtt {rtt:.2} = wire {wire:.2} + protocol overhead \
         {overhead:.2} (batch parse + WAL + publish + render) + engine {wall:.2}; engine = \
         graph delta {delta:.2} + Σ per-space splice/refresh/repair {:.2} + other {other:.2}",
        attributed - delta
    ));
}

/// `serve_churn`: a durable server takes a closed loop of update batches
/// with periodic checkpoints while a second connection reads; then
/// `kill -9`, restart, and a check of the recovered state.
pub fn churn(run: &Run) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    // Created first: spans are placed by instants taken during the phases.
    let mut trace = Trace::new(run.traced);
    let bed = Bed::new(run, "churn", &mut o)?;
    let n_batches = (5.0 * run.seconds) as usize;
    let every = n_batches * 3 / 10;
    let tail = n_batches - 3 * every;
    let read_rate = 500.0;

    let mut rng = Rng::new(run.seed, 13);
    let (read_targets, protected) = gen::churn_read_targets(&bed.oracle, &mut rng, 512);
    let stream = gen::churn_stream(bed.oracle.graph(), &protected, &mut rng, n_batches);
    let batch_lines: Vec<String> = stream.batches.iter().map(Batch::line).collect();
    // The reader's schedule outlasts any plausible writer; the stop flag ends it.
    let read_due = gen::poisson_schedule(&mut rng, read_rate, 4.0 * run.seconds + 10.0);
    let reads = gen::churn_read_requests(&bed.oracle, &read_targets, &mut rng, read_due.len());
    let read_lines = lines_of(&reads);
    o.note(format!(
        "requests fnv1a={:016x} ({n_batches} update batches of 8 removals + 8 insertions, \
         checkpoint after batches {every}/{}/{}, {tail}-batch WAL tail; reader at {read_rate} \
         req/s over {} protected cliques)",
        gen::hash_lines(batch_lines.iter().chain(&read_lines).map(String::as_str)),
        2 * every,
        3 * every,
        read_targets.len()
    ));

    let (server, durable) = bed.start(run, true, &mut o)?;
    let durable = durable.expect("churn runs durable");
    o.note(format!(
        "durable dir on {} (fsync always): {}",
        filesystem_of(&durable),
        durable.display()
    ));
    let mut writer = Conn::open(server.addr)?;
    // Resident forests put hierarchy repair on the update path.
    make_forests_resident(&mut writer)?;
    let before = overload_counters(&mut writer)?;

    // Connection B reads from half a second before the first batch until
    // half a second after the last ack; connection A is this thread.
    let stop = AtomicBool::new(false);
    let origin = Instant::now();
    let since = |t: Instant| t.duration_since(origin).as_secs_f64() * 1e6;
    // Per batch: the ack, when it was sent (µs from origin) and its round trip.
    let mut acks: Vec<(Json, f64, f64)> = Vec::with_capacity(n_batches);
    let mut checkpoint_ms = Vec::new();
    let mut snapshot_bytes = 0.0;
    let (read_ex, window) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let idx: Vec<usize> = (0..read_due.len()).collect();
            open_loop(server.addr, &read_lines, &idx, &read_due, origin, &stop)
        });
        let written: Result<(f64, f64), String> = (|| {
            std::thread::sleep(Duration::from_millis(500));
            let first_send = since(Instant::now());
            for (i, line) in batch_lines.iter().enumerate() {
                check_interrupted()?;
                let t = Instant::now();
                let reply = writer.call(line)?;
                acks.push((reply, since(t), t.elapsed().as_secs_f64() * 1e6));
                if (i + 1) % every == 0 && i < 3 * every {
                    let t = Instant::now();
                    let reply = writer.call("{\"op\":\"checkpoint\"}")?;
                    checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    if !reply_ok(&reply) {
                        return Err(format!("checkpoint failed: {reply}"));
                    }
                    snapshot_bytes =
                        reply.get("snapshot_bytes").and_then(Json::as_f64).unwrap_or(0.0);
                }
            }
            let last_ack = since(Instant::now());
            std::thread::sleep(Duration::from_millis(500));
            Ok((first_send, last_ack))
        })();
        stop.store(true, Ordering::Relaxed);
        (reader.join().expect("reader thread does not panic"), written)
    });
    let (first_send_us, last_ack_us) = window?;
    let after = overload_counters(&mut writer)?;
    o.e2e("rss_mb", server.peak_rss_mb()?, 1);
    drop(writer);

    // kill -9, then restart on the killed directory and on two copies of
    // it: three recoveries of the same state.
    server.kill();
    // The third copy is for the traced run's in-process `Durability::open`.
    let copies: Vec<PathBuf> = ["r1", "r2", "open"][..if run.traced { 3 } else { 2 }]
        .iter()
        .map(|tag| durable.with_extension(tag))
        .map(|to| copy_dir(&durable, &to).map(|()| to))
        .collect::<Result<_, _>>()?;
    let mut recover_secs = Vec::new();
    let mut recovered = None;
    for dir in [&copies[0], &copies[1], &durable] {
        drop(recovered.take());
        let s = ServerProc::spawn(&run.server_bin, &bed.graph_path, Some(dir), &bed.log)?;
        recover_secs.push(s.ready_secs);
        recovered = Some(s);
    }
    let recovered = recovered.expect("three recoveries ran");

    // The oracle for the end state: rebuild the final edge set and peel.
    let n_vertices = bed.oracle.graph().num_vertices();
    let final_graph = GraphBuilder::new()
        .with_num_vertices(n_vertices)
        .edges(stream.final_edges.iter().copied())
        .build();
    let final_edges = final_graph.num_edges();
    let final_oracle = oracle::engine(final_graph);

    let mut ctl = Conn::open(recovered.addr)?;
    let stats = ctl.call("{\"op\":\"stats\"}")?;
    o.attempted += 2;
    if stats.get("edges").and_then(Json::as_u64) != Some(final_edges as u64) {
        o.fail(format!("recovered stats.edges {:?} ≠ oracle {final_edges}", stats.get("edges")));
    }
    let wal = ctl.call("{\"op\":\"wal_stats\"}")?;
    let replayed =
        wal.get("recovery").and_then(|r| r.get("replayed")).and_then(Json::as_u64).unwrap_or(0);
    if replayed != tail as u64 {
        o.fail(format!("recovery replayed {replayed} batches, the WAL tail held {tail}"));
    }
    o.layer("service.recovery.replayed", replayed as f64, 1);
    drop(ctl);

    // κ of sampled cliques of every space, addressed by vertices.
    let per_space = if run.quick { 200 } else { 1000 };
    let mut sample = Vec::with_capacity(3 * per_space);
    for (s, &sel) in SPACES.iter().enumerate() {
        let n = final_oracle.num_cliques(sel)?;
        for _ in 0..per_space {
            let id = rng.below(n);
            let vs = final_oracle.clique_vertices(sel, id)?;
            let vs: Vec<String> = vs.iter().map(u32::to_string).collect();
            sample.push((
                s,
                format!(
                    "{{\"op\":\"kappa\",\"space\":\"{}\",\"vertices\":[{}]}}",
                    sel.name(),
                    vs.join(",")
                ),
            ));
        }
    }
    let sample_lines: Vec<String> = sample.iter().map(|(_, l)| l.clone()).collect();
    let idx: Vec<usize> = (0..sample_lines.len()).collect();
    let sample_ex =
        closed_loop(recovered.addr, &sample_lines, &idx, 32, Instant::now(), 60.0, idx.len());
    recovered.kill();
    o.attempted += sample_lines.len() as u64;
    o.failed += (sample_lines.len() - sample_ex.replies.len()) as u64;
    for (i, raw) in sample_ex.replies.iter().enumerate() {
        let checked = Json::parse(raw).and_then(|r| {
            check_kappa_by_vertices(&final_oracle, sample[sample_ex.request[i]].0, &r)
        });
        if let Err(e) = checked {
            o.fail(format!("after recovery, {}: {e}", sample_lines[sample_ex.request[i]]));
        }
    }

    // The write stream: every ack must be a full-quality success.
    o.attempted += n_batches as u64;
    let mut parsed = Vec::with_capacity(acks.len());
    for (i, (reply, sent_us, rtt_us)) in acks.iter().enumerate() {
        match (reply_ok(reply), parse_ack(reply, *sent_us, *rtt_us)) {
            (true, Ok(ack)) => parsed.push(ack),
            (_, ack) => o.fail(format!("update {i}: {reply} {:?}", ack.err())),
        }
    }

    // The read stream: shape always; κ exactly where the epoch is known
    // (before the first batch was sent, after the last was acknowledged).
    o.attempted += (read_ex.replies.len() + read_ex.lost) as u64;
    o.failed += read_ex.lost as u64;
    let (mut pinned_before, mut pinned_after) = (0usize, 0usize);
    let mut times = oracle::EngineTimes::default();
    let mut read_srv = Vec::with_capacity(read_ex.replies.len());
    for (i, raw) in read_ex.replies.iter().enumerate() {
        let request = &reads[read_ex.request[i]];
        let Expect::Kappa { space, .. } = request.expect else {
            unreachable!("reader sends kappa")
        };
        let (sent, done) =
            (read_ex.start_us[i] + read_ex.late_us[i], read_ex.start_us[i] + read_ex.latency_us[i]);
        let checked = Json::parse(raw).and_then(|reply| {
            read_srv.push(reply_micros(&reply));
            if done < first_send_us {
                pinned_before += 1;
                oracle::check_reply(&bed.oracle, request, &reply, true, &mut times)
            } else {
                oracle::check_reply(&bed.oracle, request, &reply, false, &mut times)?;
                if sent > last_ack_us {
                    pinned_after += 1;
                    check_kappa_by_vertices(&final_oracle, space, &reply)?;
                }
                Ok(())
            }
        });
        if read_srv.len() <= i {
            read_srv.push(0.0);
        }
        if let Err(e) = checked {
            o.fail(format!("reader, {}: {e}", request.line));
        }
    }
    o.note(format!(
        "reader: {} replies, κ held to the oracle on {pinned_before} before the first batch and \
         {pinned_after} after the last ack; the rest checked for shape (their epoch is unknown)",
        read_ex.replies.len()
    ));
    if parsed.is_empty() || read_ex.replies.is_empty() {
        return Err(format!("no acks or no reads: {:?}", read_ex.error));
    }

    let rtt_ms: Vec<f64> = parsed.iter().map(|a| a.rtt_us / 1e3).collect();
    let update = summarize(&rtt_ms);
    // The whole write stream, checkpoints included, per batch: what a
    // batch costs a client that keeps the writer busy.
    let batch_ms = (last_ack_us - first_send_us) / 1e3 / n_batches as f64;
    let read_at =
        |level| windowed_percentile(&read_ex.start_us, &read_ex.latency_us, WINDOWS / 2, level);

    let recover = median(&recover_secs);
    o.e2e("t1_ms", update.p50, update.n);
    o.e2e("t2_ms", update.tail, update.n);
    o.e2e("t3_ms", batch_ms, n_batches);
    o.e2e("t4_ms", recover * 1e3, recover_secs.len());
    o.name("update_p50_ms", "ms", update.p50, update.n);
    o.name("update_p90_ms", "ms", update.tail, update.n);
    o.name("churn_batch_ms", "ms", batch_ms, n_batches);
    o.name("recover_s", "s", recover, recover_secs.len());
    // The reader's latency under churn doubles when the machine's wake-up
    // latency has one of its bad minutes (see the README): printed, not bounded.
    o.name("churn_read_p50_us", "us", read_at(50.0), read_ex.replies.len());
    o.name("churn_read_p99_us", "us", read_at(99.0), read_ex.replies.len());
    o.note(format!("update tail is p{}", update.tail_level));
    check_lateness(&mut o, &read_ex, WINDOWS / 2, median(&read_ex.latency_us));
    report_overload(&mut o, before, after);
    update_layers(&mut o, &parsed);
    o.layer("service.recovery.checkpoint_ms", median(&checkpoint_ms), checkpoint_ms.len());
    o.layer("nucleus.export.snapshot_bytes", snapshot_bytes, 1);
    o.layer("service.engine.build_ms", bed.oracle_build_ms, 1);
    o.layer("service.serve.srv_us.kappa", median(&read_srv), read_srv.len());
    wire_layers(&mut o, &read_ex.latency_us, &read_srv);

    if run.traced {
        let t = Instant::now();
        for (i, a) in parsed.iter().enumerate() {
            let at = |us: f64| origin + Duration::from_secs_f64(us / 1e6);
            let (start, end) = (a.sent_us, a.sent_us + a.rtt_us);
            let rtt = trace.record("service.serve.update_rtt", at(start), at(end), None, i as u64);
            let handle =
                trace.record("service.protocol.update", at(end - a.micros), at(end), rtt, i as u64);
            trace.record("service.engine.update", at(end - a.wall), at(end), handle, i as u64);
        }
        let recorded = t.elapsed().as_secs_f64();
        o.layer("trace.overhead_pct", recorded / ((last_ack_us - first_send_us) / 1e6) * 100.0, 1);
        layers::churn_probes(&mut o, &mut trace, &stream.batches, &copies[2], &final_oracle)?;
        o.note(trace.write_for(run, "serve_churn")?);
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exchange(late_us: f64) -> Exchange {
        let n = 1000;
        Exchange {
            request: (0..n).collect(),
            start_us: (0..n).map(|i| i as f64 * 1e3).collect(),
            latency_us: vec![1000.0; n],
            late_us: vec![late_us; n],
            replies: vec![String::new(); n],
            ..Exchange::default()
        }
    }

    #[test]
    fn a_generator_that_cannot_keep_its_schedule_invalidates_the_run() {
        let mut o = Outcome::default();
        check_lateness(&mut o, &exchange(150.0), 5, 1000.0);
        assert!(o.invalid.is_none(), "150 µs late against a 1000 µs median is within a fifth");
        assert_eq!(o.layers["loadgen.late_p99_us"].value, 150.0);
        check_lateness(&mut o, &exchange(250.0), 5, 1000.0);
        assert!(o.invalid.is_some(), "250 µs late against a 1000 µs median is not");
        assert!(!o.correct());
    }

    #[test]
    fn pipelined_cost_is_the_median_whole_lap() {
        // 7 replies 1 ms apart, then a slow one: laps of 3 end at 3, 6 ms;
        // the 7th and 8th replies are part of a lap and do not count.
        let mut ex = exchange(0.0);
        ex.replies.truncate(8);
        ex.start_us = vec![0.0; 8];
        ex.latency_us = vec![1e3, 2e3, 3e3, 4e3, 5e3, 6e3, 7e3, 50e3];
        assert_eq!(per_query_ms(&ex, 3), (1.0, 6));
        // One slow lap among three does not move the median.
        ex.replies.push(String::new());
        ex.start_us.push(0.0);
        ex.latency_us = vec![1e3, 2e3, 3e3, 4e3, 5e3, 36e3, 37e3, 38e3, 39e3];
        assert_eq!(per_query_ms(&ex, 3), (1.0, 9));
        // Less than a lap: all replies.
        assert_eq!(per_query_ms(&ex, 10), (39.0 / 9.0, 9));
    }

    #[test]
    fn acks_itemise_the_update_and_the_budget_adds_up() {
        let ack = Json::parse(
            r#"{"ok":true,"inserted":1,"removed":0,"wall_micros":900,"graph_delta_micros":100,
                "hierarchy_repair_micros":50,"spaces":[
                {"space":"core","sweeps":3,"processed":19,"awake":6,"lifted":5,"splice_micros":10,
                 "refresh_micros":200,"hierarchy_repair":{"repair_micros":50,"preserved_subtrees":0,
                 "preserved_nodes":3,"rebuilt_nodes":1,"dirty_cliques":6,"scanned_scliques":0,
                 "full_rebuild":true}},
                {"space":"truss","sweeps":3,"processed":36,"awake":11,"lifted":3,"splice_micros":40,
                 "refresh_micros":300}],"wal_seq":1,"epoch":1,"micros":1000}"#,
        )
        .unwrap();
        let a = parse_ack(&ack, 0.0, 1500.0).unwrap();
        let mut o = Outcome::default();
        update_layers(&mut o, &[a]);
        let v = |name: &str| o.layers[name].value;
        let stages = v("graph.delta_ms")
            + v("nucleus.delta.core_ms")
            + v("nucleus.delta.truss_ms")
            + v("nucleus.incremental.core_ms")
            + v("nucleus.incremental.truss_ms")
            + v("nucleus.repair.core_ms");
        assert!((stages - 0.7).abs() < 1e-9);
        assert!((v("service.engine.update_other_ms") - 0.2).abs() < 1e-9);
        let rtt = v("service.serve.update_wire_ms")
            + v("service.protocol.update_overhead_ms")
            + stages
            + v("service.engine.update_other_ms");
        assert!((rtt - v("service.serve.update_rtt_ms")).abs() < 1e-9);
        assert_eq!(v("nucleus.incremental.truss_processed"), 36.0);
        assert_eq!(v("nucleus.repair.full_rebuilds"), 1.0);
    }
}
