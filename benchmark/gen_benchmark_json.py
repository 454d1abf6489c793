#!/usr/bin/env python3
"""Writes ../BENCHMARK.json from the catalogue in src/metrics.rs.

The catalogue is the source of truth; `cargo test` fails when the two differ.
"""
import json
import pathlib
import re

here = pathlib.Path(__file__).resolve().parent
src = (here / "src" / "metrics.rs").read_text()
end_to_end = re.findall(r'EndToEnd \{ name: "([^"]+)", unit: "([^"]+)", bound: ([0-9.]+) \}', src)
per_layer = re.findall(r'\("([a-z0-9_.]+)", "([^"]+)", Better::(Lower|Higher)\)', src)
doc = {
    "command": ["bash", "benchmark/run.sh"],
    "paths": ["benchmark"],
    "run_seconds": 25,
    "workloads": [
        {
            "name": "decompose",
            "why": "Offline, no service code: exact peel, And to convergence, 8 Snd sweeps, "
            "hierarchy on an 800k-edge graph; a serving change must leave it flat. "
            "t1..t4 = exact, local, snd, hierarchy",
        },
        {
            "name": "serve_point",
            "why": "kappa over the socket, unloaded, at 2000 req/s and saturated: IO loop, queue hop, "
            "json, protocol dominate; the kernel is one array index. "
            "t1..t4 = unloaded p90, open-loop p90, saturation p50, p95",
        },
        {
            "name": "serve_analytic",
            "why": "Same socket, opposite balance: estimate/region/nuclei/node through a full pipeline, "
            "kernel and hierarchy time dominate the wire. "
            "t1..t4 = ms per query: mix, nuclei+node, estimate, region",
        },
        {
            "name": "serve_churn",
            "why": "Durable writes beside reads, then kill -9 and restart: delta, incremental, "
            "repair, WAL, recovery run nowhere else. "
            "t1..t4 = update p50, update p90, stream time per batch, recovery",
        },
    ],
    "end_to_end": [
        {"name": n, "unit": u, "better": "lower", "bound": float(b)} for n, u, b in end_to_end
    ],
    "per_layer": [{"name": n, "unit": u, "better": b.lower()} for n, u, b in per_layer],
}
for w in doc["workloads"]:
    assert len(w["why"]) <= 200, (w["name"], len(w["why"]))
assert 1 <= len(doc["per_layer"]) <= 128 and 1 <= len(doc["end_to_end"]) <= 16
(here.parent / "BENCHMARK.json").write_text(json.dumps(doc, indent=2) + "\n")
