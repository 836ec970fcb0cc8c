#!/usr/bin/env bash
# Smoke test for the xtalkd compilation daemon: start it on heavyhex:27,
# compile the same circuit twice (second response must be a cache hit —
# via the xtalksched -serve client to exercise that path too), shut down
# cleanly with SIGTERM, then restart over the same disk store and assert
# the warm hit is served from disk with zero solver invocations. A final
# phase checks two-daemon consistent-hash peer routing and runs a short
# xtalkload trace. CI runs this after the unit suite.
set -euo pipefail

cd "$(dirname "$0")/.."
ADDR="127.0.0.1:${XTALKD_PORT:-18077}"
ADDR_B="127.0.0.1:${XTALKD_PORT_B:-18078}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

go build -o "$TMP/xtalkd" ./cmd/xtalkd
go build -o "$TMP/xtalksched" ./cmd/xtalksched
go build -o "$TMP/xtalkcert" ./cmd/xtalkcert
go build -o "$TMP/xtalkload" ./cmd/xtalkload

# -store enables the persistent tier the restart phase below depends on.
"$TMP/xtalkd" -addr "$ADDR" -device heavyhex:27 -partition -budget 2s \
  -store "$TMP/store" >"$TMP/xtalkd.log" 2>&1 &
XTALKD_PID=$!

fail() {
  echo "smoke_xtalkd: $1" >&2
  echo "--- daemon log ---" >&2
  cat "$TMP/xtalkd.log" >&2 || true
  kill "$XTALKD_PID" 2>/dev/null || true
  exit 1
}

for _ in $(seq 1 50); do
  curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && break
  kill -0 "$XTALKD_PID" 2>/dev/null || fail "daemon died during startup"
  sleep 0.2
done
curl -fsS "http://$ADDR/healthz" >/dev/null || fail "daemon never became healthy"

# First compile: cold. Raw-QASM body exercises the curl-friendly path.
cat >"$TMP/circ.qasm" <<'EOF'
OPENQASM 2.0;
include "qelib1.inc";
qreg q[27];
creg c[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
measure q[0] -> c[0];
measure q[1] -> c[1];
measure q[2] -> c[2];
EOF
FIRST="$(curl -fsS -X POST --data-binary @"$TMP/circ.qasm" "http://$ADDR/compile")" \
  || fail "first compile failed"
echo "$FIRST" | grep -q '"cached":false' || fail "first compile unexpectedly cached: $FIRST"
echo "$FIRST" | grep -q '"qasm":"OPENQASM' || fail "first compile returned no QASM: $FIRST"

# The served artifact must certify clean offline: xtalkcert reconstructs
# the compiled QASM's timing and re-checks it against the device model
# without trusting the daemon.
echo "$FIRST" | "$TMP/xtalkcert" >"$TMP/cert.log" 2>&1 \
  || { cat "$TMP/cert.log" >&2; fail "served artifact failed independent certification"; }
grep -q 'certified' "$TMP/cert.log" || fail "xtalkcert produced no certification verdict: $(cat "$TMP/cert.log")"

# Second compile through the xtalksched client: must be a cache hit.
SECOND="$("$TMP/xtalksched" -serve "http://$ADDR" -device heavyhex:27 -in "$TMP/circ.qasm")" \
  || fail "client compile failed"
echo "$SECOND" | grep -q 'cache hit' || fail "second compile was not a cache hit: $SECOND"

# Stats must agree: one solve, at least one hit.
STATS="$(curl -fsS "http://$ADDR/stats")"
echo "$STATS" | grep -q '"solves":1' || fail "stats report wrong solve count: $STATS"

# Clean shutdown on SIGTERM.
kill -TERM "$XTALKD_PID"
for _ in $(seq 1 50); do
  kill -0 "$XTALKD_PID" 2>/dev/null || break
  sleep 0.2
done
if kill -0 "$XTALKD_PID" 2>/dev/null; then
  fail "daemon did not exit within 10s of SIGTERM"
fi
wait "$XTALKD_PID" || fail "daemon exited non-zero"
grep -q "bye" "$TMP/xtalkd.log" || fail "daemon did not log a clean shutdown"

# --- restart over the same store: the previously compiled fingerprint must
# be served from the disk tier with zero solver invocations.
"$TMP/xtalkd" -addr "$ADDR" -device heavyhex:27 -partition -budget 2s \
  -store "$TMP/store" >"$TMP/xtalkd2.log" 2>&1 &
XTALKD_PID=$!
for _ in $(seq 1 50); do
  curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && break
  kill -0 "$XTALKD_PID" 2>/dev/null || { cat "$TMP/xtalkd2.log" >&2; fail "restarted daemon died during startup"; }
  sleep 0.2
done
WARM="$(curl -fsS -X POST --data-binary @"$TMP/circ.qasm" "http://$ADDR/compile")" \
  || fail "post-restart compile failed"
echo "$WARM" | grep -q '"tier":"disk"' || fail "restart compile not served from disk: $WARM"
echo "$WARM" | grep -q '"cached":true' || fail "restart compile not reported cached: $WARM"
WARM_FP="$(echo "$WARM" | sed -n 's/.*"fingerprint":"\([^"]*\)".*/\1/p')"
FIRST_FP="$(echo "$FIRST" | sed -n 's/.*"fingerprint":"\([^"]*\)".*/\1/p')"
[ -n "$WARM_FP" ] && [ "$WARM_FP" = "$FIRST_FP" ] || fail "restart fingerprint drifted: $WARM_FP vs $FIRST_FP"
STATS="$(curl -fsS "http://$ADDR/stats")"
echo "$STATS" | grep -q '"solves":0' || fail "restarted daemon invoked the solver: $STATS"
echo "$STATS" | grep -q '"disk_hits":1' || fail "restart hit not attributed to the disk tier: $STATS"
kill -TERM "$XTALKD_PID"
wait "$XTALKD_PID" || fail "restarted daemon exited non-zero"

# --- two-daemon fleet: both daemons build the same consistent-hash ring,
# the non-owner proxies to the owner, and the fleet solves each
# fingerprint exactly once.
"$TMP/xtalkd" -addr "$ADDR" -self "$ADDR" -peers "$ADDR_B" -device heavyhex:27 \
  -partition -budget 2s >"$TMP/fleetA.log" 2>&1 &
PID_A=$!
"$TMP/xtalkd" -addr "$ADDR_B" -self "$ADDR_B" -peers "$ADDR" -device heavyhex:27 \
  -partition -budget 2s >"$TMP/fleetB.log" 2>&1 &
PID_B=$!
fleet_fail() {
  echo "smoke_xtalkd: $1" >&2
  tail -20 "$TMP/fleetA.log" "$TMP/fleetB.log" >&2 || true
  kill "$PID_A" "$PID_B" 2>/dev/null || true
  exit 1
}
for d in "$ADDR" "$ADDR_B"; do
  for _ in $(seq 1 50); do
    curl -fsS "http://$d/healthz" >/dev/null 2>&1 && break
    sleep 0.2
  done
  curl -fsS "http://$d/healthz" >/dev/null || fleet_fail "fleet daemon $d never became healthy"
done
RA="$(curl -fsS -X POST --data-binary @"$TMP/circ.qasm" "http://$ADDR/compile")" \
  || fleet_fail "fleet compile via A failed"
RB="$(curl -fsS -X POST --data-binary @"$TMP/circ.qasm" "http://$ADDR_B/compile")" \
  || fleet_fail "fleet compile via B failed"
echo "$RA$RB" | grep -q '"tier":"peer"' || fleet_fail "no request was proxied to the ring owner: $RA / $RB"
SA="$(curl -fsS "http://$ADDR/stats")"
SB="$(curl -fsS "http://$ADDR_B/stats")"
SOLVES_A="$(echo "$SA" | sed -n 's/.*"solves":\([0-9]*\).*/\1/p')"
SOLVES_B="$(echo "$SB" | sed -n 's/.*"solves":\([0-9]*\).*/\1/p')"
[ "$((SOLVES_A + SOLVES_B))" = "1" ] \
  || fleet_fail "fleet solved $SOLVES_A+$SOLVES_B times for one fingerprint, want exactly 1"

# --- short xtalkload trace against the fleet.
"$TMP/xtalkload" -addr "$ADDR" -devices heavyhex:27 -n 10 -jobs 4 -c 2 \
  -out "$TMP/load.json" >"$TMP/load.log" 2>&1 || fleet_fail "xtalkload smoke failed: $(cat "$TMP/load.log")"
grep -q '"errors": 0' "$TMP/load.json" || fleet_fail "xtalkload reported errors: $(cat "$TMP/load.json")"
grep -q '"requests": 10' "$TMP/load.json" || fleet_fail "xtalkload request count off: $(cat "$TMP/load.json")"

kill -TERM "$PID_A" "$PID_B"
wait "$PID_A" || fleet_fail "fleet daemon A exited non-zero"
wait "$PID_B" || fleet_fail "fleet daemon B exited non-zero"

# --- chaos fleet: daemon A rides the deterministic fault-injection rig —
# its peer link is blackholed, every disk read is corrupted, and the solver
# is slowed — while daemon B runs clean. The fleet must still answer 100%
# of a chaos-mode xtalkload trace (xtalkload retries shed/5xx responses),
# the corrupted store entry must be quarantined and recompiled, and the
# tripped breaker must be visible in /stats.
"$TMP/xtalkd" -addr "$ADDR" -self "$ADDR" -peers "$ADDR_B" -device heavyhex:27 \
  -partition -budget 2s -store "$TMP/store" \
  -peer-timeout 500ms -peer-retries 0 -breaker-failures 1 \
  -faults "seed=7,peer.blackhole=1,store.corrupt=1,solve.delay=50ms" \
  >"$TMP/chaosA.log" 2>&1 &
PID_A=$!
"$TMP/xtalkd" -addr "$ADDR_B" -self "$ADDR_B" -peers "$ADDR" -device heavyhex:27 \
  -partition -budget 2s >"$TMP/chaosB.log" 2>&1 &
PID_B=$!
chaos_fail() {
  echo "smoke_xtalkd: $1" >&2
  tail -20 "$TMP/chaosA.log" "$TMP/chaosB.log" >&2 || true
  kill "$PID_A" "$PID_B" 2>/dev/null || true
  exit 1
}
for d in "$ADDR" "$ADDR_B"; do
  for _ in $(seq 1 50); do
    curl -fsS "http://$d/healthz" >/dev/null 2>&1 && break
    sleep 0.2
  done
  curl -fsS "http://$d/healthz" >/dev/null || chaos_fail "chaos daemon $d never became healthy"
done

# The fingerprint persisted by the restart phase now reads back corrupted:
# the daemon must quarantine it and answer with a recompile, not an error.
CHAOS_WARM="$(curl -fsS -X POST --data-binary @"$TMP/circ.qasm" "http://$ADDR/compile")" \
  || chaos_fail "compile over corrupted store failed"
CHAOS_FP="$(echo "$CHAOS_WARM" | sed -n 's/.*"fingerprint":"\([^"]*\)".*/\1/p')"
[ -n "$CHAOS_FP" ] && [ "$CHAOS_FP" = "$FIRST_FP" ] || chaos_fail "chaos fingerprint drifted: $CHAOS_FP vs $FIRST_FP"

"$TMP/xtalkload" -addr "$ADDR" -devices heavyhex:27 -n 20 -jobs 6 -c 4 \
  -chaos -require-avail 1.0 -out "$TMP/chaos.json" >"$TMP/chaosload.log" 2>&1 \
  || chaos_fail "chaos xtalkload below 100% availability: $(cat "$TMP/chaosload.log")"
grep -q '"availability": 1' "$TMP/chaos.json" || chaos_fail "chaos availability not 1: $(cat "$TMP/chaos.json")"

CS="$(curl -fsS "http://$ADDR/stats")"
echo "$CS" | grep -q '"quarantined":[1-9]' || chaos_fail "corrupted store entry was not quarantined: $CS"
echo "$CS" | grep -q '"state":"open"' || chaos_fail "blackholed peer did not trip the breaker: $CS"
kill -TERM "$PID_A" "$PID_B"
wait "$PID_A" || chaos_fail "chaos daemon A exited non-zero"
wait "$PID_B" || chaos_fail "chaos daemon B exited non-zero"
grep -q "injected faults" "$TMP/chaosA.log" || chaos_fail "fault injector summary missing from log"

# --- saturation: one solver slot, no waiting room, slow solver. The second
# concurrent cold compile must be shed with 429 + Retry-After, not queued.
"$TMP/xtalkd" -addr "$ADDR" -device heavyhex:27 -partition -budget 2s \
  -queue 1 -shed-queue -1 -faults "seed=1,solve.delay=3s" \
  >"$TMP/shed.log" 2>&1 &
XTALKD_PID=$!
for _ in $(seq 1 50); do
  curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
cat >"$TMP/circ2.qasm" <<'EOF'
OPENQASM 2.0;
include "qelib1.inc";
qreg q[27];
h q[5];
cx q[5],q[6];
EOF
curl -fsS -X POST --data-binary @"$TMP/circ.qasm" "http://$ADDR/compile" >/dev/null 2>&1 &
SLOW_PID=$!
sleep 0.5
SHED_HDRS="$(curl -sS -D - -o /dev/null -X POST --data-binary @"$TMP/circ2.qasm" "http://$ADDR/compile")"
echo "$SHED_HDRS" | grep -q "429" || fail "saturated daemon did not shed with 429: $SHED_HDRS"
echo "$SHED_HDRS" | grep -qi "retry-after" || fail "shed response missing Retry-After: $SHED_HDRS"
wait "$SLOW_PID" || fail "admitted request was harmed by shedding"
kill -TERM "$XTALKD_PID"
wait "$XTALKD_PID" || fail "shed-phase daemon exited non-zero"

# --- drain gate: SIGTERM while a slow compile is in flight. The in-flight
# request must complete with 200 (zero loss) and the daemon must log a
# complete drain.
"$TMP/xtalkd" -addr "$ADDR" -device heavyhex:27 -partition -budget 2s \
  -faults "seed=1,solve.delay=2s" >"$TMP/drain.log" 2>&1 &
XTALKD_PID=$!
for _ in $(seq 1 50); do
  curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -sS -o /dev/null -w '%{http_code}' -X POST --data-binary @"$TMP/circ.qasm" \
  "http://$ADDR/compile" >"$TMP/drain.code" 2>/dev/null &
INFLIGHT_PID=$!
sleep 0.5
kill -TERM "$XTALKD_PID"
wait "$INFLIGHT_PID" || fail "in-flight request aborted during drain"
[ "$(cat "$TMP/drain.code")" = "200" ] || fail "in-flight request lost to drain: HTTP $(cat "$TMP/drain.code")"
wait "$XTALKD_PID" || fail "draining daemon exited non-zero"
grep -q "drain complete: zero in-flight" "$TMP/drain.log" \
  || fail "daemon did not certify a complete drain: $(tail -5 "$TMP/drain.log")"

echo "smoke_xtalkd: OK (cold compile + client cache hit + restart disk hit with 0 solves + peer routing + xtalkload + chaos fleet at 100% availability + 429 shed + zero-loss drain)"
