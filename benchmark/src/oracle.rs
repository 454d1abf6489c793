//! The in-process oracle: an `Engine` over the same graph the server was
//! given, against which every reply is checked. A reply that disagrees is
//! a failed operation, not a warning.

use std::time::Instant;

use hdsd_graph::CsrGraph;
use hdsd_nucleus::LocalConfig;
use hdsd_service::{Engine, EngineConfig, Json, RegionReport};

use crate::gen::{Expect, Request, ESTIMATE, SPACES};
use crate::loadgen::Exchange;
use crate::metrics::Outcome;
use crate::server::{reply_micros, reply_ok, OP_TIMEOUT};

/// Builds the oracle engine: all three spaces, peeled sequentially.
pub fn engine(graph: CsrGraph) -> Engine {
    Engine::new(graph, &EngineConfig { spaces: SPACES.to_vec(), local: LocalConfig::sequential() })
}

fn u64_of(reply: &Json, key: &str) -> Result<u64, String> {
    reply.get(key).and_then(Json::as_u64).ok_or_else(|| format!("reply lacks integer {key:?}"))
}

fn u32_list(reply: &Json, key: &str) -> Result<Vec<u32>, String> {
    reply
        .get(key)
        .and_then(Json::as_array)
        .and_then(|xs| xs.iter().map(|x| x.as_u64().map(|v| v as u32)).collect())
        .ok_or_else(|| format!("reply lacks integer list {key:?}"))
}

fn same<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: server says {got:?}, oracle says {want:?}"))
    }
}

fn check_region(reply: &Json, want: &RegionReport) -> Result<(), String> {
    same("node", u64_of(reply, "node")?, u64::from(want.node))?;
    same("k", u64_of(reply, "k")?, u64::from(want.k))?;
    same("size", u64_of(reply, "size")?, want.size as u64)?;
    same("num_vertices", u64_of(reply, "num_vertices")?, want.vertices.len() as u64)?;
    // The protocol sends the first 64 member vertices.
    let shown = &want.vertices[..want.vertices.len().min(64)];
    same("vertices", u32_list(reply, "vertices")?.as_slice(), shown)?;
    same("edges", u64_of(reply, "edges")?, want.density.edges as u64)?;
    let density = reply.get("density").and_then(Json::as_f64).ok_or("reply lacks density")?;
    if (density - want.density.density).abs() > 1e-9 {
        return Err(format!(
            "density: server says {density}, oracle says {}",
            want.density.density
        ));
    }
    Ok(())
}

/// Per-op engine time spent answering the same requests in-process, which
/// doubles as the `service.engine.*` layer measurement.
#[derive(Default)]
pub struct EngineTimes {
    /// Seconds and calls per op, indexed like [`OPS`].
    pub by_op: [(f64, usize); 5],
    /// Estimates: cliques explored, and how many were truncated.
    pub explored: usize,
    /// Estimates cut short by their budget.
    pub truncated: usize,
}

/// The read ops, in the order `EngineTimes::by_op` indexes them.
pub const OPS: [&str; 5] = ["kappa", "estimate", "region", "nuclei", "node"];

/// Index of an op in [`OPS`].
pub fn op_index(op: &str) -> usize {
    OPS.iter().position(|o| *o == op).expect("a read op")
}

/// Checks one parsed reply against the oracle. With `exact_kappa` off, a
/// `kappa` reply is only checked for shape (id and vertices): the caller
/// could not pin down which epoch answered.
pub fn check_reply(
    oracle: &Engine,
    request: &Request,
    reply: &Json,
    exact_kappa: bool,
    times: &mut EngineTimes,
) -> Result<(), String> {
    if !reply_ok(reply) {
        return Err(format!("not a full-quality answer: {reply}"));
    }
    let t = Instant::now();
    let slot = op_index(request.expect.op());
    let mut engine_secs = |t: Instant| {
        times.by_op[slot].0 += t.elapsed().as_secs_f64();
        times.by_op[slot].1 += 1;
    };
    match request.expect {
        Expect::Kappa { space, id } => {
            let want_kappa = oracle.kappa_of(SPACES[space], id)?;
            let want_vertices = oracle.clique_vertices(SPACES[space], id)?;
            engine_secs(t);
            same("vertices", u32_list(reply, "vertices")?, want_vertices)?;
            if exact_kappa {
                same("id", u64_of(reply, "id")?, id as u64)?;
                same("kappa", u64_of(reply, "kappa")?, u64::from(want_kappa))?;
            }
        }
        Expect::Estimate { space, id } => {
            let want = oracle.estimate(SPACES[space], id, &ESTIMATE)?;
            engine_secs(t);
            let kappa = u64::from(oracle.kappa_of(SPACES[space], id)?);
            let (lower, upper) = (u64_of(reply, "lower")?, u64_of(reply, "estimate")?);
            if !(lower <= kappa && kappa <= upper) {
                return Err(format!("Theorem 1 violated: [{lower}, {upper}] misses κ={kappa}"));
            }
            same("estimate", upper, u64::from(want.estimate))?;
            same("lower", lower, u64::from(want.lower))?;
            times.explored += u64_of(reply, "explored")? as usize;
            times.truncated +=
                usize::from(reply.get("truncated").and_then(Json::as_bool) == Some(true));
        }
        Expect::Region { space, id } => {
            let want = oracle.region_of(SPACES[space], id)?;
            engine_secs(t);
            check_region(reply, &want)?;
        }
        Expect::Node { space, node } => {
            let want = oracle.node_region(SPACES[space], node)?;
            engine_secs(t);
            check_region(reply, &want)?;
        }
        Expect::Nuclei { space, k } => {
            let want = oracle.nuclei_at(SPACES[space], k)?;
            engine_secs(t);
            same("total", u64_of(reply, "total")?, want.len() as u64)?;
            let listed = reply.get("nuclei").and_then(Json::as_array).ok_or("no nuclei list")?;
            // The protocol lists the 32 largest.
            same("listed", listed.len(), want.len().min(32))?;
            for (got, want) in listed.iter().zip(&want) {
                same("nucleus node", u64_of(got, "node")?, u64::from(want.node))?;
                same("nucleus size", u64_of(got, "size")?, want.size as u64)?;
            }
        }
    }
    Ok(())
}

/// What a verified phase hands back besides the failures it counted.
pub struct Verified {
    /// Server-side `micros` per reply, aligned with the exchange.
    pub server_us: Vec<f64>,
    /// In-process engine time for the same requests.
    pub times: EngineTimes,
}

/// Checks every reply of a phase and counts attempted and failed
/// operations: lost or late replies, refusals, degraded answers and
/// disagreements with the oracle all fail.
pub fn verify(o: &mut Outcome, oracle: &Engine, requests: &[Request], ex: &Exchange) -> Verified {
    let mut out =
        Verified { server_us: Vec::with_capacity(ex.replies.len()), times: EngineTimes::default() };
    o.attempted += (ex.replies.len() + ex.lost) as u64;
    o.failed += ex.lost as u64;
    if let Some(e) = &ex.error {
        o.note(format!("FAILED transport: {e} ({} requests unanswered)", ex.lost));
    }
    for (i, raw) in ex.replies.iter().enumerate() {
        let request = &requests[ex.request[i]];
        let checked =
            Json::parse(raw).map_err(|e| format!("unparseable reply: {e}")).and_then(|reply| {
                out.server_us.push(reply_micros(&reply));
                if ex.latency_us[i] > OP_TIMEOUT.as_secs_f64() * 1e6 {
                    return Err(format!("took {:.0} µs", ex.latency_us[i]));
                }
                check_reply(oracle, request, &reply, true, &mut out.times)
            });
        if out.server_us.len() <= i {
            out.server_us.push(0.0);
        }
        if let Err(e) = checked {
            o.fail(format!("{}: {e}", request.line));
        }
    }
    out
}

/// A reply with its trailing `micros` (the one field that differs between
/// two answers to the same request) cut off.
fn without_micros(reply: &str) -> &str {
    reply.rfind(",\"micros\":").map_or(reply, |at| &reply[..at])
}

/// Checks phases that cycle over a pool of requests, some of which an
/// earlier phase already had verified: a reply that is byte-identical (up
/// to `micros`) to a verified reply to the same request is right; anything
/// else gets the full check, and is remembered when it passes. This keeps
/// the oracle's own work (it recomputes every answer) to once per request.
pub fn verify_repeats(
    o: &mut Outcome,
    oracle: &Engine,
    requests: &[Request],
    verified: &Exchange,
    repeats: &[&Exchange],
) {
    let mut known: Vec<Option<&str>> = vec![None; requests.len()];
    for (i, raw) in verified.replies.iter().enumerate() {
        known[verified.request[i]] = Some(without_micros(raw));
    }
    let mut times = EngineTimes::default();
    for ex in repeats {
        o.attempted += (ex.replies.len() + ex.lost) as u64;
        o.failed += ex.lost as u64;
        if let Some(e) = &ex.error {
            o.note(format!("FAILED transport: {e} ({} requests unanswered)", ex.lost));
        }
        for (i, raw) in ex.replies.iter().enumerate() {
            let at = ex.request[i];
            if ex.latency_us[i] > OP_TIMEOUT.as_secs_f64() * 1e6 {
                o.fail(format!("{}: took {:.0} µs", requests[at].line, ex.latency_us[i]));
                continue;
            }
            if known[at] == Some(without_micros(raw)) {
                continue;
            }
            let checked = Json::parse(raw)
                .map_err(|e| format!("unparseable reply: {e}"))
                .and_then(|reply| check_reply(oracle, &requests[at], &reply, true, &mut times));
            match checked {
                Ok(()) => known[at] = Some(without_micros(raw)),
                Err(e) => o.fail(format!("{}: {e}", requests[at].line)),
            }
        }
    }
}
