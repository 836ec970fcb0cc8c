#!/usr/bin/env bash
# Fleet-serving latency benchmark: start a two-daemon xtalkd fleet with
# persistent stores, seed it with one xtalkload pass (cold solves populate
# both disk tiers), restart both daemons (memory cold, disks warm), then
# replay a larger trace with day churn. The measured pass exercises every
# hit tier — mem (Zipf-hot repeats), disk (restart warm hits), peer
# (fingerprints owned by the other daemon) and cold (new day / new jobs) —
# and writes the per-tier latency split to BENCH_serve.json.
#
# The measured pass runs behind a -warmup ramp (connection pool fill, first
# round of Zipf repeats) so the artifact's percentiles and throughput
# describe the steady state. MIN_RPS / MAX_MEM_P50_MS (0 = unchecked) turn
# the sanity block into a regression gate against the refreshed artifact.
#
# Tunables (env): OUT, DEVICE, DUR, WARMUP, JOBS, CLIENTS, MIN_RPS,
# MAX_MEM_P50_MS.
set -euo pipefail

cd "$(dirname "$0")/.."
OUT="${OUT:-BENCH_serve.json}"
DEVICE="${DEVICE:-poughkeepsie}"
DUR="${DUR:-10s}"
WARMUP="${WARMUP:-2s}"
JOBS="${JOBS:-24}"
# Closed-loop clients: per-request latency ~= CLIENTS / throughput, so on a
# small CI box more clients measure their own queueing delay, not serving.
CLIENTS="${CLIENTS:-4}"
MIN_RPS="${MIN_RPS:-0}"
MAX_MEM_P50_MS="${MAX_MEM_P50_MS:-0}"
ADDR_A="127.0.0.1:${BENCH_PORT_A:-18081}"
ADDR_B="127.0.0.1:${BENCH_PORT_B:-18082}"
TMP="$(mktemp -d)"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
  echo "bench_serve: $1" >&2
  tail -20 "$TMP"/*.log >&2 || true
  exit 1
}

go build -o "$TMP/xtalkd" ./cmd/xtalkd
go build -o "$TMP/xtalkload" ./cmd/xtalkload

# start_daemon <addr> <peer-addr> <store-dir> <log>
# The tiny -cache-kb keeps the memory tier small enough that the disk tier
# stays in play even within one pass.
start_daemon() {
  "$TMP/xtalkd" -addr "$1" -self "$1" -peers "$2" -device "$DEVICE" \
    -partition -budget 2s -store "$3" -cache-kb 256 -quiet >>"$4" 2>&1 &
  PIDS+=("$!")
}

wait_healthy() {
  for _ in $(seq 1 50); do
    curl -fsS "http://$1/healthz" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  fail "daemon $1 never became healthy"
}

stop_all() {
  for pid in "${PIDS[@]}"; do kill -TERM "$pid" 2>/dev/null || true; done
  for pid in "${PIDS[@]}"; do wait "$pid" 2>/dev/null || true; done
  PIDS=()
}

echo "== phase 1: seed the fleet (cold solves populate both disk stores)"
start_daemon "$ADDR_A" "$ADDR_B" "$TMP/storeA" "$TMP/daemonA.log"
start_daemon "$ADDR_B" "$ADDR_A" "$TMP/storeB" "$TMP/daemonB.log"
wait_healthy "$ADDR_A"
wait_healthy "$ADDR_B"
"$TMP/xtalkload" -addr "$ADDR_A" -devices "$DEVICE" -jobs "$JOBS" -days 1 \
  -c "$CLIENTS" -duration "$DUR" -out "$TMP/seed.json" || fail "seed pass failed"

echo "== phase 2: restart both daemons (memory cold, disks warm)"
stop_all
start_daemon "$ADDR_A" "$ADDR_B" "$TMP/storeA" "$TMP/daemonA.log"
start_daemon "$ADDR_B" "$ADDR_A" "$TMP/storeB" "$TMP/daemonB.log"
wait_healthy "$ADDR_A"
wait_healthy "$ADDR_B"

echo "== phase 3: measured pass (Zipf repeats + restart warm hits + day churn)"
"$TMP/xtalkload" -addr "$ADDR_A" -devices "$DEVICE" -jobs "$((JOBS * 2))" -days 2 \
  -c "$CLIENTS" -duration "$DUR" -warmup "$WARMUP" -out "$OUT" || fail "measured pass failed"

# Sanity: the artifact must carry a latency split for the disk tier (the
# whole point of the restart) and a nonzero hit rate — plus the optional
# throughput floor and mem-tier p50 ceiling regression gates.
MIN_RPS="$MIN_RPS" MAX_MEM_P50_MS="$MAX_MEM_P50_MS" \
python3 - "$OUT" <<'EOF' || fail "benchmark artifact failed sanity checks"
import json, os, sys
d = json.load(open(sys.argv[1]))
assert d["requests"] > 0 and d["errors"] == 0, d
# The restart's disk warm hits land in the ramp-up window (each fingerprint
# pays disk exactly once, then the memory tier owns it), so check the
# daemon's cumulative counter rather than the measured-window samples.
disk_hits = (d.get("daemon_stats") or {}).get("disk_hits", 0)
assert "disk" in d["tiers"] or disk_hits > 0, \
    f"no disk-tier activity: tiers={list(d['tiers'])} disk_hits={disk_hits}"
assert d["hit_rate"] > 0, d["hit_rate"]
print("bench_serve: tiers " + ", ".join(
    f"{k}: n={v['count']} p50={v['p50_ms']:.2f}ms p99={v['p99_ms']:.2f}ms"
    for k, v in sorted(d["tiers"].items())))
print(f"bench_serve: hit rate {d['hit_rate']:.2f}, "
      f"{d['requests_per_s']:.0f} req/s "
      f"(warmup excluded: {d.get('warmup_requests', 0)} reqs / {d.get('warmup_s', 0):.1f}s), "
      f"saturation mean inflight {d['saturation']['mean_inflight']:.2f}/"
      f"{d['saturation']['max_concurrent']}")
min_rps = float(os.environ.get("MIN_RPS", "0"))
max_mem_p50 = float(os.environ.get("MAX_MEM_P50_MS", "0"))
if min_rps > 0:
    assert d["requests_per_s"] >= min_rps, \
        f"throughput regression: {d['requests_per_s']:.0f} req/s < floor {min_rps:.0f}"
if max_mem_p50 > 0:
    assert "mem" in d["tiers"], f"no mem-tier samples: {list(d['tiers'])}"
    p50 = d["tiers"]["mem"]["p50_ms"]
    assert p50 <= max_mem_p50, \
        f"mem-hit latency regression: p50 {p50:.3f}ms > ceiling {max_mem_p50:.3f}ms"
EOF

stop_all
echo "bench_serve: OK -> $OUT"
