#!/usr/bin/env bash
# End-to-end smoke test of the multi-process deployment:
#
#   1. radserve -snapshot-only partitions the DBLP analog and writes
#      the snapshot.
#   2. Two radsworker OS processes each host two machines from their
#      snapshot shards.
#   3. A cluster-mode radserve fronts them; a RADS query must execute
#      on the workers and match an in-process engine bit for bit.
#   4. A client that sends half a request header is disconnected by
#      the header timeout. radserve is restarted; its first query must
#      be answered from the snapshot (no re-partitioning) and still
#      match.
#
#   5. Chaos: one worker is wedged (SIGSTOP) and later killed outright;
#      in-flight queries must fail with a clean typed 503 (never a
#      hang), the worker_up and healthy gauges must track the outage
#      (a worker is up or down: a down worker is pinged on every
#      heartbeat and marked up by the first ping it answers), and after
#      the worker returns the cluster must serve again with no
#      coordinator restart.
#
# CI runs this; it also works locally: ./scripts/cluster_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

PORT_BASE=${SMOKE_PORT_BASE:-19400}
ADDR="127.0.0.1:$PORT_BASE"
W1="127.0.0.1:$((PORT_BASE + 1))"
W2="127.0.0.1:$((PORT_BASE + 2))"
W1DBG="127.0.0.1:$((PORT_BASE + 3))"

echo "== build (ldflags-injected build info)"
BUILD_VERSION=smoke
BUILD_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
go build -ldflags "-X rads/internal/buildinfo.Version=$BUILD_VERSION -X rads/internal/buildinfo.Commit=$BUILD_COMMIT" \
    -o "$TMP/bin/" ./cmd/radserve ./cmd/radsworker

echo "== write snapshot (partition once)"
"$TMP/bin/radserve" -dataset DBLP -scale 0.4 -machines 4 \
    -snapshot "$TMP/snap" -snapshot-only

cat > "$TMP/spec.json" <<EOF
{"machines": ["$W1", "$W1", "$W2", "$W2"]}
EOF

echo "== start two radsworker processes"
"$TMP/bin/radsworker" -spec "$TMP/spec.json" -snapshot "$TMP/snap" \
    -machines 0,1 -debug-addr "$W1DBG" >"$TMP/worker1.log" 2>&1 &
PIDS+=($!)
start_worker2() {
    "$TMP/bin/radsworker" -spec "$TMP/spec.json" -snapshot "$TMP/snap" \
        -machines 2,3 >>"$TMP/worker2.log" 2>&1 &
    W2PID=$!
    PIDS+=($W2PID)
}
start_worker2

# Fault-tolerance knobs are tuned tight so the chaos phase detects an
# outage in seconds: 1s per-RPC deadline, 5s budget for a dispatched
# query, 300ms heartbeats, breaker opens after 2 consecutive failures.
start_serve() {
    "$TMP/bin/radserve" -addr "$ADDR" -snapshot "$TMP/snap" \
        -cluster "$TMP/spec.json" \
        -call-timeout 1s -query-timeout 5s -rpc-retries 2 \
        -heartbeat 300ms -breaker-threshold 2 >"$TMP/serve.log" 2>&1 &
    PIDS+=($!)
    for _ in $(seq 1 100); do
        if curl -fs "http://$ADDR/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.2
    done
    echo "radserve did not come up"; cat "$TMP/serve.log"; exit 1
}

total_of() { # total_of PATTERN ENGINE
    # No -f: on a non-200 the body is the error we want to see, not an
    # opaque empty-input traceback from the JSON parse.
    body=$(curl -s "http://$ADDR/query?pattern=$1&engine=$2&nocache=1")
    if ! printf '%s' "$body" \
        | python3 -c 'import json,sys; d=json.load(sys.stdin); print(d["total"])'; then
        echo "FAIL: query pattern=$1 engine=$2 did not return a total: $body" >&2
        return 1
    fi
}

echo "== start cluster-mode radserve"
start_serve
SERVE_PID=${PIDS[-1]}

echo "== query: cluster RADS vs in-process baseline (conformance patterns)"
for q in triangle 'square:4:0-1,1-2,2-3,3-0' q1 q4; do
    remote=$(total_of "$q" RADS)
    local_=$(total_of "$q" TwinTwig)
    echo "   $q: cluster RADS=$remote, in-process TwinTwig=$local_"
    if [ "$remote" != "$local_" ] || [ "$remote" -le 0 ]; then
        echo "FAIL: counts disagree (or are empty) for $q"
        tail -20 "$TMP"/*.log; exit 1
    fi
done

echo "== verify both worker processes executed queries"
for log in "$TMP/worker1.log" "$TMP/worker2.log"; do
    if ! grep -q "hosting machines" "$log"; then
        echo "FAIL: $log shows no hosted machines"; cat "$log"; exit 1
    fi
done
# The workers' comm metrics flow back per query; assert the coordinator
# accounted remote traffic (i.e. the work really ran out-of-process).
remote_bytes=$(curl -fs "http://$ADDR/stats" \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["comm_by_kind"].get("remote", 0))')
if [ "$remote_bytes" -le 0 ]; then
    echo "FAIL: /stats shows no remote communication ($remote_bytes bytes)"
    exit 1
fi
echo "   remote comm: $remote_bytes bytes"

echo "== observability: /metrics on the coordinator"
metrics=$(curl -fs "http://$ADDR/metrics")
for family in \
    'rads_query_seconds_count{engine="RADS"}' \
    'rads_admission_wait_seconds_count' \
    'rads_queries_total{outcome="ok"}' \
    'rads_cache_hits_total' \
    'rads_cache_misses_total' \
    'rads_transport_bytes_total{kind=' \
    'rads_transport_latency_seconds_count{kind=' \
    'rads_steals_total' \
    'rads_jobs_running' \
    'rads_jobs_queued' \
    'rads_jobs_submitted_total' \
    'rads_jobs_total{outcome="completed"}' \
    'rads_jobs_total{outcome="cancelled"}' \
    'rads_jobs_total{outcome="failed"}' \
    'rads_job_progress' \
    'rads_census_subgraphs_total' \
    'rads_census_subgraphs_per_second' \
    '# TYPE rads_events_total counter' \
    "rads_build_info{build=\"$BUILD_VERSION@$BUILD_COMMIT\"} 1"; do
    if ! grep -qF "$family" <<<"$metrics"; then
        echo "FAIL: coordinator /metrics missing $family"
        echo "$metrics"; exit 1
    fi
done
# The same injected build info appears in /healthz.
if ! curl -fs "http://$ADDR/healthz" | grep -qF "\"build\":\"$BUILD_VERSION@$BUILD_COMMIT\""; then
    echo "FAIL: coordinator /healthz missing build info"
    curl -fs "http://$ADDR/healthz"; exit 1
fi

echo "== observability: /metrics and /healthz on worker 1"
wmetrics=$(curl -fs "http://$W1DBG/metrics")
for family in \
    'rads_query_seconds_count{engine="RADS"}' \
    'rads_admission_wait_seconds_count' \
    'rads_handle_seconds_count{kind="runQuery"}' \
    'rads_transport_bytes_total{kind=' \
    'rads_cache_hits_total' \
    'rads_verify_edges_total' \
    'rads_pulled_lists_total' \
    'rads_pulled_edges_total' \
    'rads_steals_total' \
    'rads_events_total{type="query_start"}' \
    'rads_events_total{type="query_done"}' \
    "rads_build_info{build=\"$BUILD_VERSION@$BUILD_COMMIT\"} 1"; do
    if ! grep -qF "$family" <<<"$wmetrics"; then
        echo "FAIL: worker /metrics missing $family"
        echo "$wmetrics"; exit 1
    fi
done
# The RADS queries above made the verify-or-pull choice in this worker
# process: some verification neighbours' lists were cheaper to pull.
pulled=$(awk '$1 == "rads_pulled_lists_total" {print $2}' <<<"$wmetrics")
if [ "${pulled:-0}" -le 0 ]; then
    echo "FAIL: worker pulled no verification neighbours (rads_pulled_lists_total=${pulled:-absent})"
    grep -E '^rads_(pulled|verify)_' <<<"$wmetrics" || true; exit 1
fi
echo "   worker 1 pulled $pulled lists"
# The worker's journal replays its query executions.
wevents=$(curl -fs "http://$W1DBG/debug/events?type=query_done")
python3 - "$wevents" <<'EOF'
import json, sys
d = json.loads(sys.argv[1])
evs = d["events"]
assert evs, "worker journal has no query_done events"
assert all(e["type"] == "query_done" for e in evs), "?type= filter leaked other events"
assert any("ok in" in e["detail"] for e in evs), evs
EOF
health=$(curl -fs "http://$W1DBG/healthz")
python3 - "$health" "$BUILD_VERSION@$BUILD_COMMIT" <<'EOF'
import json, sys
h = json.loads(sys.argv[1])
assert h["ready"] is True, h
assert h["machines"] == [0, 1], h
assert len(h["snapshot_fingerprint"]) == 16, h
assert h["build"] == sys.argv[2], h
EOF
echo "   worker healthz: $health"

echo "== observability: /debug/trace lists the served queries"
traces=$(curl -fs "http://$ADDR/debug/trace")
python3 - "$traces" <<'EOF'
import json, sys
t = json.loads(sys.argv[1])
recent = t.get("recent") or []
assert recent, "no recent profiles in /debug/trace"
p = recent[0]
assert p.get("wall_seconds", 0) > 0 or p.get("cache_hit"), p
EOF
echo "   recent profiles present"

echo "== observability: stitched cluster trace covers >= 2 machines"
qid=$(curl -s "http://$ADDR/query?pattern=q1&engine=RADS&nocache=1" \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["query_id"])')
curl -fs "http://$ADDR/debug/trace?id=$qid" | python3 -c '
import json, sys
p = json.load(sys.stdin)
spans = p.get("spans") or []
stitched = [s for s in spans if s["name"].startswith("execute/") and s["machine"] >= 0]
machines = sorted({s["machine"] for s in stitched})
assert len(machines) >= 2, "stitched spans cover machines %s, want >= 2 (%d spans)" % (machines, len(spans))
starts = [s["start_ns"] for s in spans]
assert starts == sorted(starts), "spans not in timeline order"
print("   query %d: %d spans from machines %s" % (p["id"], len(spans), machines))'

echo "== observability: /metrics/cluster merges worker registries under machine labels"
fleet=$(curl -fs "http://$ADDR/metrics/cluster")
for line in \
    'rads_queries_total{machine="0",outcome="ok"}' \
    'rads_queries_total{machine="2",outcome="ok"}' \
    'rads_handle_seconds_count{machine="1",kind="runQuery"}' \
    'rads_handle_seconds_count{machine="3",kind="runQuery"}' \
    "rads_build_info{machine=\"0\",build=\"$BUILD_VERSION@$BUILD_COMMIT\"} 1" \
    'rads_cache_hits_total '; do
    if ! grep -qF "$line" <<<"$fleet"; then
        echo "FAIL: /metrics/cluster missing $line"
        echo "$fleet" | head -60; exit 1
    fi
done
# One HELP block per family even when coordinator and workers share it.
if [ "$(grep -cF '# HELP rads_cache_hits_total' <<<"$fleet")" != 1 ]; then
    echo "FAIL: shared family rendered with duplicate HELP blocks"; exit 1
fi

echo "== observability: /debug/cluster fleet summary"
curl -fs "http://$ADDR/debug/cluster" | python3 -c '
import json, sys
s = json.load(sys.stdin)
assert s["healthy"] is True, s
assert s["machines"] == 4, s
assert len(s["workers"]) == 4, s
fps = {w["fingerprint"] for w in s["workers"]}
assert len(fps) == 1 and "" not in fps, s
for w in s["workers"]:
    assert w["up"], w
print("   4 workers up, fingerprint", fps.pop())'

echo "== stalled client: half a request header must not hold a connection"
# radserve's listener sets ReadHeaderTimeout 10s (obs.NewHTTPServer); a
# client that stops mid-header must be disconnected within 15s.
python3 - "$ADDR" <<'EOF'
import socket, sys, time
host, port = sys.argv[1].rsplit(":", 1)
s = socket.create_connection((host, int(port)), timeout=5)
s.sendall(b"GET /healthz HTTP/1.1\r\nHo")
began = time.monotonic()
while True:
    left = 15 - (time.monotonic() - began)
    if left <= 0:
        sys.exit("FAIL: radserve kept a stalled connection open for 15s")
    s.settimeout(left)
    try:
        if not s.recv(4096):
            break
    except socket.timeout:
        continue
    except ConnectionResetError:
        break
print("   stalled connection closed after %.1fs" % (time.monotonic() - began))
EOF

echo "== restart radserve: first query must be warm (no re-partitioning)"
kill "$SERVE_PID"; wait "$SERVE_PID" 2>/dev/null || true
start_serve
if ! grep -q "no re-partitioning" "$TMP/serve.log"; then
    echo "FAIL: restarted radserve did not load the snapshot"
    cat "$TMP/serve.log"; exit 1
fi
warm=$(total_of triangle RADS)
cold=$(total_of triangle SEED)
echo "   after restart: RADS=$warm, SEED=$cold"
if [ "$warm" != "$cold" ]; then
    echo "FAIL: post-restart counts disagree"; exit 1
fi

# ---------------------------------------------------------------- chaos

# query_code PATTERN -> HTTP status (body lands in $TMP/chaos_body.json).
# -m 30 is the watchdog: a hang here is exactly the bug this phase
# exists to catch.
query_code() {
    curl -s -o "$TMP/chaos_body.json" -w '%{http_code}' -m 30 \
        "http://$ADDR/query?pattern=$1&engine=RADS&nocache=1"
}

# wait_health STATUS waits for /healthz to report it (ok | degraded).
wait_health() {
    for _ in $(seq 1 120); do
        got=$(curl -fs "http://$ADDR/healthz" \
            | python3 -c 'import json,sys; print(json.load(sys.stdin)["status"])' \
            2>/dev/null || true)
        if [ "$got" = "$1" ]; then return 0; fi
        sleep 0.5
    done
    echo "FAIL: /healthz never reported $1"
    curl -fs "http://$ADDR/healthz"; tail -20 "$TMP/serve.log"; exit 1
}

echo "== chaos: wedge worker 2 (SIGSTOP) — in-flight query must 503, not hang"
kill -STOP "$W2PID"
began=$(date +%s)
code=$(query_code triangle)
took=$(( $(date +%s) - began ))
if [ "$code" != 503 ]; then
    echo "FAIL: query against a wedged worker returned $code, want 503"
    cat "$TMP/chaos_body.json"; exit 1
fi
if ! grep -q "worker" "$TMP/chaos_body.json"; then
    echo "FAIL: 503 body does not name the down worker"
    cat "$TMP/chaos_body.json"; exit 1
fi
echo "   wedged query: 503 in ${took}s ($(cat "$TMP/chaos_body.json"))"

echo "== chaos: breaker opens, health and metrics track the outage"
wait_health degraded
cmetrics=$(curl -fs "http://$ADDR/metrics")
if ! grep -qE 'rads_cluster_worker_up\{machine="(2|3)"\} 0' <<<"$cmetrics"; then
    echo "FAIL: no worker_up gauge dropped to 0"
    grep rads_cluster <<<"$cmetrics" || true; exit 1
fi
if ! grep -q 'rads_cluster_healthy 0' <<<"$cmetrics"; then
    echo "FAIL: rads_cluster_healthy still 1 during outage"; exit 1
fi
timeouts=$(grep -c '^rads_cluster_rpc_timeouts_total{' <<<"$cmetrics" || true)
retries=$(grep -c '^rads_cluster_rpc_retries_total{' <<<"$cmetrics" || true)
if [ "$timeouts" -eq 0 ] && [ "$retries" -eq 0 ]; then
    echo "FAIL: neither timeout nor retry counters moved during the outage"
    grep rads_cluster <<<"$cmetrics" || true; exit 1
fi
# /stats carries the same per-machine view for operators.
curl -fs "http://$ADDR/stats" | python3 -c '
import json, sys
s = json.load(sys.stdin)
c = s["cluster"]
assert c["healthy"] is False, c
down = [w["machine"] for w in c["workers"] if not w["up"]]
assert down, c
print("   /stats cluster view: workers", down, "down")'

echo "== chaos: gated query fails fast while the breaker is open"
began=$(date +%s)
code=$(query_code triangle)
took=$(( $(date +%s) - began ))
if [ "$code" != 503 ]; then
    echo "FAIL: gated query returned $code, want 503"; exit 1
fi
if [ "$took" -gt 5 ]; then
    echo "FAIL: gated query took ${took}s — the breaker is not short-circuiting"
    exit 1
fi
echo "   gated query: 503 in ${took}s"

echo "== chaos: worker resumes (SIGCONT) — heartbeats must close the breaker"
kill -CONT "$W2PID"
wait_health ok
recovered=$(total_of triangle RADS)
if [ "$recovered" != "$warm" ]; then
    echo "FAIL: post-recovery count $recovered != $warm"; exit 1
fi
echo "   recovered: triangle=$recovered"

echo "== chaos: /debug/events replays the breaker transitions in order"
curl -fs "http://$ADDR/debug/events" | python3 -c '
import json, sys
d = json.load(sys.stdin)
evs = d["events"]
opens = [e for e in evs if e["type"] == "breaker_open" and e["machine"] in (2, 3)]
closes = [e for e in evs if e["type"] == "breaker_close" and e["machine"] in (2, 3)]
assert opens, "no breaker_open event for the wedged worker: %s" % evs
assert closes, "no breaker_close event after recovery: %s" % evs
assert opens[0]["seq"] < closes[-1]["seq"], (opens, closes)
assert all("worker %d" % e["machine"] in e["detail"] for e in opens + closes), (opens, closes)
c = d["counts"]
assert c.get("breaker_open", 0) >= 1 and c.get("breaker_close", 0) >= 1, c
print("   journal: %d breaker_open, %d breaker_close for the stopped worker" % (len(opens), len(closes)))'

echo "== chaos: kill worker 2 outright, restart it — no coordinator restart"
kill -9 "$W2PID"; wait "$W2PID" 2>/dev/null || true
wait_health degraded
code=$(query_code triangle)
if [ "$code" != 503 ]; then
    echo "FAIL: query against a dead worker returned $code, want 503"; exit 1
fi
start_worker2
wait_health ok
revived=$(total_of triangle RADS)
if [ "$revived" != "$warm" ]; then
    echo "FAIL: post-restart count $revived != $warm"; exit 1
fi
echo "   worker restarted: triangle=$revived, same radserve process"

echo "PASS: cluster smoke"
