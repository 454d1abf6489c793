#!/usr/bin/env bash
# Smoke test for the hdsd-serve daemon: pipe a scripted session of
# lookups, estimates, region extractions and updates through the binary
# and assert the replies. Mirrors the richer assertions in
# crates/service/tests/serve_session.rs but exercises the release binary
# exactly as a user would.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p hdsd-service --bin hdsd-serve

SESSION='{"op":"stats"}
{"op":"kappa","space":"core","id":0}
{"op":"kappa","space":"truss","vertices":[0,1]}
{"op":"estimate","space":"core","id":2,"iterations":3,"budget":50}
{"op":"estimate","space":"core","id":2,"iterations":4294967296,"deadline_ms":1000}
{"op":"region","space":"core","id":0}
{"op":"nuclei","space":"34","k":1}
{"op":"remove","edges":[[5,6]]}
{"op":"kappa","space":"core","id":6}
{"op":"update","insert":[[0,4],[1,4]],"remove":[]}
{"op":"kappa","space":"core","id":4}
{"op":"metrics"}'

# The session is fed with a pause before the shutdown op so the metrics
# listener stays up long enough to be scraped mid-flight, exactly like a
# Prometheus scrape loop against a live daemon.
METRICS_PORT="${METRICS_PORT:-19901}"
OUT=$(
  {
    printf '%s\n' "$SESSION"
    sleep 2
    printf '%s\n' '{"op":"shutdown"}'
  } | ./target/release/hdsd-serve --demo --spaces core,truss,34 \
        --metrics-addr "127.0.0.1:${METRICS_PORT}" --trace-slow-ms 0 &
  SERVE_PID=$!
  python3 - "$METRICS_PORT" > target/smoke_metrics.txt <<'PYEOF'
import sys, time, urllib.request
url = "http://127.0.0.1:%s/metrics" % sys.argv[1]
body = ""
# Retry until the exporter is up AND the first requests have landed in
# the registry (the session is racing us through the daemon's stdin).
for attempt in range(30):
    try:
        body = urllib.request.urlopen(url, timeout=2).read().decode()
        if "hdsd_request_micros" in body:
            break
    except Exception:
        pass
    time.sleep(0.2)
else:
    sys.exit("scrape failed or never saw request metrics: " + url)
sys.stdout.write(body)
PYEOF
  wait "$SERVE_PID"
)
echo "$OUT"

lines=$(printf '%s\n' "$OUT" | wc -l)
[ "$lines" -eq 13 ] || { echo "FAIL: expected 13 replies, got $lines"; exit 1; }

assert_line() { # line_number pattern description
  reply=$(printf '%s\n' "$OUT" | sed -n "${1}p")
  case "$reply" in
    *"$2"*) ;;
    *) echo "FAIL: reply $1 ($3) missing '$2': $reply"; exit 1 ;;
  esac
}

assert_line 1 '"edges":12' "stats sees the demo graph"
assert_line 1 '"uptime_seconds":' "stats reports uptime"
assert_line 1 '"requests_total":' "stats counts requests"
assert_line 2 '"kappa":3' "κ-core lookup"
assert_line 3 '"kappa":2' "κ-truss lookup by endpoints"
assert_line 4 '"interval":' "budgeted estimate returns the bound interval"
assert_line 5 '"interval":[3,3]' "2^32 rounds run to the exact core number"
assert_line 5 '"iterations":4294967296' "iterations echoed, not truncated"
assert_line 6 '"num_vertices":6' "densest region around vertex 0"
assert_line 7 '"total":2' "two separate (3,4) nuclei (paper Fig. 3)"
assert_line 8 '"removed":1' "edge removal applied"
assert_line 9 '"kappa":0' "tail vertex left every core"
assert_line 10 '"inserted":2' "K5-closing insertions applied"
assert_line 11 '"kappa":4' "the refresh found the new 4-core"
assert_line 12 '"requests_total"' "metrics op returns the registry"
assert_line 12 'request_micros{op=' "metrics op has per-op histograms"
assert_line 10 '"trace":' "slow threshold 0 attaches the span tree to the update"
assert_line 13 '"bye"' "clean shutdown"

for n in 1 2 3 4 5 6 7 8 9 10 11 12 13; do
  assert_line "$n" '"ok":true' "reply $n ok"
  assert_line "$n" '"micros":' "reply $n telemetry"
done

# The scraped Prometheus exposition: families the dashboards key on.
assert_scrape() { # pattern description
  grep -qF -- "$1" target/smoke_metrics.txt \
    || { echo "FAIL: metrics scrape missing '$1' ($2)"; exit 1; }
}
assert_scrape '# TYPE hdsd_requests_total counter' "request counter family"
assert_scrape 'hdsd_request_micros_bucket{op="stats"' "per-op latency histogram"
assert_scrape 'hdsd_graph_edges' "graph gauges"
assert_scrape 'hdsd_space_peel_micros' "startup peel latency"
assert_scrape 'hdsd_peel_containers_scanned_total' "peel work counters"

echo "PASS: hdsd-serve answered the scripted session and served a scrapeable metrics surface"
