//! Traced runs only: the same generated request lines replayed in-process
//! through each layer's public entry point, so that a request's budget
//! (wire + parse + engine call + dispatch/render) adds up, plus stand-alone
//! probes of the layers the write path crosses (WAL, snapshot, recovery).

use std::path::Path;
use std::time::Instant;

use hdsd_nucleus::{
    local_estimate_opts, read_snapshot, write_snapshot, CachedSpace, CoreSpace, LocalConfig,
    TrussSpace,
};
use hdsd_service::{
    Durability, DurableConfig, Engine, FailPoints, FsyncPolicy, Json, Server, WalWriter,
};

use crate::gen::{Batch, Expect, Request, ESTIMATE, SPACES};
use crate::metrics::Outcome;
use crate::oracle::op_index;
use crate::trace::Trace;

/// Mean cost of parsing the request lines, ns per line.
fn parse_ns(trace: &mut Trace, requests: &[Request]) -> f64 {
    let (parsed, secs) = trace.time("service.json.parse", None, u64::MAX, || {
        requests.iter().filter(|r| Json::parse(&r.line).is_ok()).count()
    });
    assert_eq!(parsed, requests.len(), "generated lines parse");
    secs * 1e9 / requests.len() as f64
}

/// `serve_point` replay: parse, the engine call behind `kappa`, and the
/// whole `handle_line`; the difference is dispatch + render.
pub fn point_replay(o: &mut Outcome, trace: &mut Trace, oracle: Engine, requests: &[Request]) {
    let n = requests.len();
    let parse = parse_ns(trace, requests);
    o.layer("service.json.parse_ns", parse, n);

    // What the protocol's `kappa` asks of the engine: resolve (when
    // addressed by vertices), the κ read, and the vertices echoed back.
    let view = oracle.view();
    let (sum, secs) = trace.time("service.engine.kappa", None, u64::MAX, || {
        let mut sum = 0u64;
        for r in requests {
            let Expect::Kappa { space, id } = r.expect else { continue };
            let sel = SPACES[space];
            let id = if r.line.contains("\"vertices\"") {
                let vs = view.clique_vertices(sel, id).expect("generated id in range");
                view.resolve(sel, &vs).expect("generated clique resolves")
            } else {
                id
            };
            sum += u64::from(view.kappa_of(sel, id).expect("in range"));
            sum += view.clique_vertices(sel, id).expect("in range").len() as u64;
        }
        sum
    });
    std::hint::black_box(sum);
    drop(view);
    let engine_ns = secs * 1e9 / n as f64;
    o.layer("service.engine.kappa_ns", engine_ns, n);

    let mut server = Server::new(oracle);
    let (answered, secs) = trace.time("service.protocol.handle_line", None, u64::MAX, || {
        requests
            .iter()
            .filter(|r| server.handle_line(&r.line).response.contains("\"ok\":true"))
            .count()
    });
    assert_eq!(answered, n, "in-process replay answers every request");
    let handle_us = secs * 1e6 / n as f64;
    o.layer("service.protocol.handle_us.kappa", handle_us, n);
    o.layer("service.protocol.overhead_us.kappa", handle_us - engine_ns / 1e3, n);
    o.layer("service.protocol.render_us.kappa", handle_us - engine_ns / 1e3 - parse / 1e3, n);
}

const HANDLE_NAMES: [&str; 4] = [
    "service.protocol.handle_us.kappa",
    "service.protocol.handle_us.estimate",
    "service.protocol.handle_us.region",
    "service.protocol.handle_us.nuclei",
];
const HANDLE_SPANS: [&str; 5] = [
    "service.protocol.handle.kappa",
    "service.protocol.handle.estimate",
    "service.protocol.handle.region",
    "service.protocol.handle.nuclei",
    "service.protocol.handle.node",
];

/// `serve_analytic` replay: the local estimator called directly, then
/// every request through `handle_line`, timed per op.
pub fn analytic_replay(o: &mut Outcome, trace: &mut Trace, oracle: Engine, requests: &[Request]) {
    o.layer("service.json.parse_ns", parse_ns(trace, requests), requests.len());

    // `nucleus::query` without the engine around it, on spaces built the
    // way the engine builds them.
    let g = oracle.graph().clone();
    let spaces =
        [CachedSpace::build(&CoreSpace::new(&g)), CachedSpace::build(&TrussSpace::on_the_fly(&g))];
    let mut estimate_secs = Vec::new();
    for r in requests {
        if let Expect::Estimate { space, id } = r.expect {
            let t = Instant::now();
            std::hint::black_box(local_estimate_opts(&spaces[space], id, &ESTIMATE));
            estimate_secs.push(t.elapsed().as_secs_f64());
        }
    }
    let calls = estimate_secs.len();
    o.layer(
        "nucleus.query.estimate_us",
        estimate_secs.iter().sum::<f64>() * 1e6 / calls.max(1) as f64,
        calls,
    );

    let mut server = Server::new(oracle);
    // Forests resident first, as on the socket after its warm-up.
    for sel in SPACES {
        server.handle_line(&format!("{{\"op\":\"nuclei\",\"space\":\"{}\",\"k\":1}}", sel.name()));
    }
    let mut by_op = [(0.0f64, 0usize); 5];
    for (i, r) in requests.iter().enumerate() {
        let slot = op_index(r.expect.op());
        let (_, secs) =
            trace.time(HANDLE_SPANS[slot], None, i as u64, || server.handle_line(&r.line));
        by_op[slot].0 += secs;
        by_op[slot].1 += 1;
    }
    for (slot, name) in HANDLE_NAMES.iter().enumerate() {
        let (secs, calls) = by_op[slot];
        if calls > 0 {
            o.layer(name, secs * 1e6 / calls as f64, calls);
        }
    }
}

/// `serve_churn` probes: the WAL on the same batches and policy, the
/// snapshot writer and reader, and `Durability::open` on a copy of the
/// killed directory.
pub fn churn_probes(
    o: &mut Outcome,
    trace: &mut Trace,
    batches: &[Batch],
    killed_copy: &Path,
    final_oracle: &Engine,
) -> Result<(), String> {
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
    // Append and fsync apart: the writer runs with the policy off and the
    // probe syncs after every append, which is what `--fsync always` does.
    let wal_path = killed_copy.join("probe.wal");
    let mut wal = WalWriter::create(&wal_path, 1, FsyncPolicy::Off, FailPoints::none())
        .map_err(|e| io("create probe WAL", e))?;
    let (mut append_secs, mut sync_secs) = (0.0, 0.0);
    for (i, b) in batches.iter().enumerate() {
        let (r, secs) =
            trace.time("service.wal.append", None, i as u64, || wal.append(&b.insert, &b.remove));
        r.map_err(|e| io("WAL append", e))?;
        append_secs += secs;
        let (r, secs) = trace.time("service.wal.fsync", None, i as u64, || wal.sync("wal.fsync"));
        r.map_err(|e| io("WAL sync", e))?;
        sync_secs += secs;
    }
    let n = batches.len();
    o.layer("service.wal.append_us", append_secs * 1e6 / n as f64, n);
    o.layer("service.wal.fsync_us", sync_secs * 1e6 / n as f64, n);
    o.layer("service.wal.bytes_per_batch", wal.stats().bytes as f64 / n as f64, n);
    drop(wal);
    std::fs::remove_file(&wal_path).map_err(|e| io("remove probe WAL", e))?;

    // Snapshot of the end state, forests included (as a checkpoint writes it).
    let snapshot = final_oracle.to_snapshot();
    let mut bytes = Vec::new();
    let (r, secs) = trace
        .time("nucleus.export.write", None, u64::MAX, || write_snapshot(&snapshot, &mut bytes));
    r.map_err(|e| io("write snapshot", e))?;
    o.layer("nucleus.export.write_ms", secs * 1e3, 1);
    let (r, secs) =
        trace.time("nucleus.export.read", None, u64::MAX, || read_snapshot(&mut bytes.as_slice()));
    r.map_err(|e| io("read snapshot", e))?;
    o.layer("nucleus.export.read_ms", secs * 1e3, 1);

    let cfg = DurableConfig {
        dir: killed_copy.to_path_buf(),
        policy: FsyncPolicy::Always,
        failpoints: FailPoints::none(),
    };
    let (opened, secs) = trace.time("service.recovery.open", None, u64::MAX, || {
        Durability::open(cfg, LocalConfig::sequential(), || {
            Err("the killed directory holds a checkpoint".to_string())
        })
    });
    let (_, _, report) = opened?;
    o.layer("service.recovery.open_ms", secs * 1e3, 1);
    o.note(format!(
        "in-process Durability::open: snapshot_loaded={} replayed={} torn_bytes={}",
        report.snapshot_loaded, report.replayed, report.torn_bytes
    ));
    Ok(())
}
