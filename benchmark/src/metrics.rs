//! The metric catalogue (`BENCHMARK.json` mirrors it; a test keeps the
//! two in step) and the result a workload hands back.

use std::collections::BTreeMap;

/// Whether a smaller or a larger value is the better one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Times, memory.
    Lower,
    /// Rates, shares of useful work.
    Higher,
}

/// An end-to-end metric: every workload reports every one of these.
pub struct EndToEnd {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// `BENCHMARK.json` wants one flat list reported by every workload, so the
/// workload-specific times ride in four slots `t1_ms`..`t4_ms`; what each
/// slot means on each workload is [`SLOT_MEANING`] (and the README table).
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "setup_s", unit: "s", bound: 0.25 },
    EndToEnd { name: "rss_mb", unit: "MB", bound: 0.25 },
    EndToEnd { name: "t1_ms", unit: "ms", bound: 0.25 },
    EndToEnd { name: "t2_ms", unit: "ms", bound: 0.25 },
    EndToEnd { name: "t3_ms", unit: "ms", bound: 0.25 },
    EndToEnd { name: "t4_ms", unit: "ms", bound: 0.25 },
];

/// The workloads, in running order.
pub const WORKLOADS: [&str; 4] = ["decompose", "serve_point", "serve_analytic", "serve_churn"];

/// Per workload, the issue's name for what `t1_ms`..`t4_ms` carry.
pub const SLOT_MEANING: [(&str, [&str; 4]); 4] = [
    ("decompose", ["exact_s", "local_s", "snd_s", "hierarchy_s"]),
    ("serve_point", ["point_idle_p90_us", "point_p90_us", "point_sat_p50_us", "point_sat_p95_us"]),
    ("serve_analytic", ["query_ms", "walk_ms", "estimate_ms", "region_ms"]),
    ("serve_churn", ["update_p50_ms", "update_p90_ms", "churn_batch_ms", "recover_s"]),
];

/// A per-layer metric: `(name, unit, better)`. A workload that does not
/// run the layer reports 0 (no work done, no time busy).
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    // graph
    ("graph.csr_build_ms", "ms", Better::Lower),
    ("graph.triangles_ms", "ms", Better::Lower),
    ("graph.k4_ms", "ms", Better::Lower),
    ("graph.triangles", "count", Better::Lower),
    ("graph.k4s", "count", Better::Lower),
    ("graph.delta_ms", "ms", Better::Lower),
    // hindex
    ("hindex.compute_ns", "ns", Better::Lower),
    // nucleus::space
    ("nucleus.space.truss_ms", "ms", Better::Lower),
    ("nucleus.space.n34_ms", "ms", Better::Lower),
    ("nucleus.space.cached_truss_ms", "ms", Better::Lower),
    ("nucleus.space.cached_n34_ms", "ms", Better::Lower),
    // nucleus::peel / parallel
    ("nucleus.peel.core_ms", "ms", Better::Lower),
    ("nucleus.peel.truss_ms", "ms", Better::Lower),
    ("nucleus.peel.n34_ms", "ms", Better::Lower),
    ("nucleus.peel.truss_scanned", "count", Better::Lower),
    ("nucleus.peel.truss_moves", "count", Better::Lower),
    ("nucleus.peel.par_truss_ms", "ms", Better::Lower),
    ("nucleus.peel.par_speedup", "x", Better::Higher),
    ("nucleus.peel.par_epilogue_share", "share", Better::Lower),
    // nucleus::asynchronous / snd
    ("nucleus.and.core_ms", "ms", Better::Lower),
    ("nucleus.and.truss_ms", "ms", Better::Lower),
    ("nucleus.and.n34_ms", "ms", Better::Lower),
    ("nucleus.and.truss_sweeps", "count", Better::Lower),
    ("nucleus.and.truss_processed", "count", Better::Lower),
    ("nucleus.and.par_truss_ms", "ms", Better::Lower),
    ("nucleus.and.par_speedup", "x", Better::Higher),
    ("nucleus.snd.truss_ms", "ms", Better::Lower),
    ("nucleus.snd.truss_iterations", "count", Better::Lower),
    ("nucleus.snd.truss_exact_share_i3", "share", Better::Higher),
    // nucleus::hierarchy
    ("nucleus.hierarchy.core_ms", "ms", Better::Lower),
    ("nucleus.hierarchy.truss_ms", "ms", Better::Lower),
    ("nucleus.hierarchy.n34_ms", "ms", Better::Lower),
    ("nucleus.hierarchy.truss_nodes", "count", Better::Lower),
    ("nucleus.repair.core_ms", "ms", Better::Lower),
    ("nucleus.repair.truss_ms", "ms", Better::Lower),
    ("nucleus.repair.n34_ms", "ms", Better::Lower),
    ("nucleus.repair.truss_preserved_share", "share", Better::Higher),
    ("nucleus.repair.full_rebuilds", "count", Better::Lower),
    // nucleus::delta / incremental
    ("nucleus.delta.core_ms", "ms", Better::Lower),
    ("nucleus.delta.truss_ms", "ms", Better::Lower),
    ("nucleus.delta.n34_ms", "ms", Better::Lower),
    ("nucleus.incremental.core_ms", "ms", Better::Lower),
    ("nucleus.incremental.truss_ms", "ms", Better::Lower),
    ("nucleus.incremental.n34_ms", "ms", Better::Lower),
    ("nucleus.incremental.core_processed", "count", Better::Lower),
    ("nucleus.incremental.truss_processed", "count", Better::Lower),
    ("nucleus.incremental.n34_processed", "count", Better::Lower),
    ("nucleus.incremental.core_awake", "count", Better::Lower),
    ("nucleus.incremental.truss_awake", "count", Better::Lower),
    ("nucleus.incremental.n34_awake", "count", Better::Lower),
    // nucleus::query
    ("nucleus.query.estimate_us", "us", Better::Lower),
    ("nucleus.query.explored_mean", "count", Better::Lower),
    ("nucleus.query.truncated_share", "share", Better::Lower),
    // nucleus::export
    ("nucleus.export.write_ms", "ms", Better::Lower),
    ("nucleus.export.read_ms", "ms", Better::Lower),
    ("nucleus.export.snapshot_bytes", "bytes", Better::Lower),
    // service::json / protocol
    ("service.json.parse_ns", "ns", Better::Lower),
    ("service.protocol.handle_us.kappa", "us", Better::Lower),
    ("service.protocol.handle_us.estimate", "us", Better::Lower),
    ("service.protocol.handle_us.region", "us", Better::Lower),
    ("service.protocol.handle_us.nuclei", "us", Better::Lower),
    ("service.protocol.overhead_us.kappa", "us", Better::Lower),
    ("service.protocol.render_us.kappa", "us", Better::Lower),
    ("service.protocol.update_overhead_ms", "ms", Better::Lower),
    // service::engine
    ("service.engine.build_ms", "ms", Better::Lower),
    ("service.engine.kappa_ns", "ns", Better::Lower),
    ("service.engine.estimate_us", "us", Better::Lower),
    ("service.engine.region_us", "us", Better::Lower),
    ("service.engine.nuclei_us", "us", Better::Lower),
    ("service.engine.first_region_truss_ms", "ms", Better::Lower),
    ("service.engine.update_ms", "ms", Better::Lower),
    ("service.engine.update_other_ms", "ms", Better::Lower),
    // service::serve (the IO loop, seen from the client)
    ("service.serve.rtt_us", "us", Better::Lower),
    ("service.serve.wire_us", "us", Better::Lower),
    ("service.serve.wire_p99_us", "us", Better::Lower),
    ("service.serve.unattributed_us", "us", Better::Lower),
    ("service.serve.sat_rps", "1/s", Better::Higher),
    ("service.serve.srv_us.kappa", "us", Better::Lower),
    ("service.serve.srv_us.estimate", "us", Better::Lower),
    ("service.serve.srv_us.region", "us", Better::Lower),
    ("service.serve.srv_us.nuclei", "us", Better::Lower),
    ("service.serve.srv_us.node", "us", Better::Lower),
    ("service.serve.srv_us.update", "us", Better::Lower),
    ("service.serve.update_rtt_ms", "ms", Better::Lower),
    ("service.serve.update_wire_ms", "ms", Better::Lower),
    ("loadgen.late_p99_us", "us", Better::Lower),
    // service::wal / recovery / overload
    ("service.wal.append_us", "us", Better::Lower),
    ("service.wal.fsync_us", "us", Better::Lower),
    ("service.wal.bytes_per_batch", "bytes", Better::Lower),
    ("service.recovery.checkpoint_ms", "ms", Better::Lower),
    ("service.recovery.open_ms", "ms", Better::Lower),
    ("service.recovery.replayed", "count", Better::Lower),
    ("service.overload.shed", "count", Better::Lower),
    ("service.overload.degraded", "count", Better::Lower),
    ("service.overload.cancelled", "count", Better::Lower),
    ("service.overload.tier_max", "count", Better::Lower),
    // the benchmark's own tracing
    ("trace.overhead_pct", "%", Better::Lower),
];

/// A measured value with the number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Value {
    /// The value, in the metric's unit.
    pub value: f64,
    /// Samples it was reduced from.
    pub samples: usize,
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (see the README for what fails an operation).
    pub failed: u64,
    /// Why the run as a whole is not to be trusted, if so.
    pub invalid: Option<String>,
    /// End-to-end values by `BENCHMARK.json` name.
    pub end_to_end: BTreeMap<&'static str, Value>,
    /// The same numbers under the issue's own names and units, for the
    /// human-readable report.
    pub named: Vec<(&'static str, &'static str, Value)>,
    /// Per-layer values by name (absent = 0).
    pub layers: BTreeMap<&'static str, Value>,
    /// Free-form lines for the report (budgets, sizes, hashes).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records an end-to-end value.
    pub fn e2e(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(END_TO_END.iter().any(|m| m.name == name), "unknown end-to-end metric {name}");
        self.end_to_end.insert(name, Value { value, samples });
    }

    /// Records the issue's name for a slot value (human-readable report only).
    pub fn name(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.named.push((name, unit, Value { value, samples }));
    }

    /// Records a per-layer value.
    pub fn layer(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(PER_LAYER.iter().any(|m| m.0 == name), "unknown per-layer metric {name}");
        self.layers.insert(name, Value { value, samples });
    }

    /// Records a failed check against the oracle or the protocol.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.iter().filter(|n| n.starts_with("FAILED")).count() < 8 {
            self.notes.push(format!("FAILED {what}"));
        }
    }

    /// Adds a free-form report line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every answer was right and the run is valid.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_none()
    }

    /// The contract's result object: `correct`, `attempted`, `failed`, and
    /// every end-to-end (untraced) or every per-layer (traced) metric.
    pub fn result_json(&self, traced: bool) -> String {
        let number = |v: f64| if v.is_finite() { format!("{v}") } else { "0".to_string() };
        let metrics: Vec<String> = if traced {
            PER_LAYER
                .iter()
                .map(|&(name, unit, _)| {
                    let v = self.layers.get(name).map_or(0.0, |v| v.value);
                    format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", number(v))
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let v = self.end_to_end.get(m.name).map_or(0.0, |v| v.value);
                    format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, number(v), m.unit)
                })
                .collect()
        };
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsd_service::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("missing {key}"))
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let doc = benchmark_json();
        let listed: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name").to_string(),
                    field(m, "unit").to_string(),
                    field(m, "better").to_string(),
                    m.get("bound").and_then(Json::as_f64).expect("bound"),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), "lower".to_string(), m.bound))
            .collect();
        assert_eq!(listed, ours);

        let layers: Vec<(String, String, String)> = doc
            .get("per_layer")
            .and_then(Json::as_array)
            .expect("per_layer")
            .iter()
            .map(|m| {
                (
                    field(m, "name").to_string(),
                    field(m, "unit").to_string(),
                    field(m, "better").to_string(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| {
                let better = if b == Better::Lower { "lower" } else { "higher" };
                (n.to_string(), u.to_string(), better.to_string())
            })
            .collect();
        assert_eq!(layers, ours);
        assert!(ours.len() <= 128);

        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_object_has_exactly_the_contract_keys() {
        let mut o = Outcome { attempted: 10, ..Outcome::default() };
        o.e2e("setup_s", 0.5, 3);
        for traced in [false, true] {
            let doc = Json::parse(&o.result_json(traced)).expect("result parses");
            let Json::Obj(members) = &doc else { panic!("not an object") };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Some(Json::Obj(metrics)) = doc.get("metrics") else { panic!("metrics") };
            assert_eq!(metrics.len(), if traced { PER_LAYER.len() } else { END_TO_END.len() });
        }
    }
}
