#!/bin/sh
# prof_serve.sh — measure-first profiling harness for the serving warm path.
#
# Runs BenchmarkServeMemHit (a real net/http round trip against the memory
# tier's request aliases and pre-encoded replies) under the Go CPU and heap
# profilers, then prints
#
#   1. the benchmark line (ns/op, B/op, allocs/op — the allocation budget
#      TestServeMemHitAllocGate pins in CI),
#   2. the top CPU consumers (is the wall syscalls, HTTP parsing, or — the
#      regression this harness exists to catch — JSON re-encoding?),
#   3. the top allocators from the heap profile.
#
# The profiles stay on disk for interactive digging (go tool pprof). For a
# *live* daemon instead of the benchmark, start it with `xtalkd -pprof
# localhost:6060` and point pprof at /debug/pprof on that side listener.
#
# Usage: scripts/prof_serve.sh [outdir]
#   outdir  where cpu.prof/mem.prof/bench.txt land (default ./prof)
set -e
cd "$(dirname "$0")/.."
outdir="${1:-prof}"
mkdir -p "$outdir"

go test -run '^$' -bench '^BenchmarkServeMemHit$' -benchtime "${BENCHTIME:-2s}" -timeout 10m \
	-cpuprofile "$outdir/cpu.prof" -memprofile "$outdir/mem.prof" -benchmem . \
	| tee "$outdir/bench.txt"

echo
echo "== top CPU (${outdir}/cpu.prof) =="
go tool pprof -top -nodecount=15 "$outdir/cpu.prof" | sed -n '/flat%/,$p'

echo
echo "== top allocators (${outdir}/mem.prof) =="
go tool pprof -top -nodecount=10 -sample_index=alloc_space "$outdir/mem.prof" | sed -n '/flat%/,$p'
