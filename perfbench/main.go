// Command perfbench is the repository's fixed-work benchmark. It runs one
// workload per invocation and prints, as its last line, one JSON object
// with the run's correctness verdict and metrics:
//
//	perfbench -workload warm_serve -seed 1 -seconds 15 -trace 0 -xtalkd bin/xtalkd -workdir .bench_build
//
// Workloads:
//
//   - warm_serve: a seeded Zipf(1.2) replay of paper circuits against an
//     xtalkd child whose set-up compiled every fingerprint, so every timed
//     request is a memory hit (closed loop for ops_per_s and tail_ms,
//     open loop at a fixed rate for p50_ms).
//   - cold_compile: one closed-loop client sends a list of distinct
//     circuits to a fresh xtalkd with an empty store; every op is a cold
//     solve to optimality plus a store write.
//   - paper_loop: the paper's operational loop in-process: day-0
//     characterization, then per day a high-crosstalk-only refresh and,
//     per SWAP circuit, XtalkSched vs ParSched executed on the noisy
//     simulator with readout mitigation.
//
// Every solve runs to optimality, so the schedules, their costs and every
// quality number repeat exactly; each run checks that by replaying its op
// list more than once and comparing every exact output with the first
// pass. (Solver effort counters do not repeat exactly; their drift is
// reported in the diagnostics.)
// With -trace 1 the run replays the workload in-process with spans around
// each layer call and prints the per-layer metrics instead.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runCtx carries the invocation's settings and collects its output.
type runCtx struct {
	seed    int64
	seconds float64
	trace   bool
	xtalkd  string
	workdir string

	res  result
	diag map[string]any // diagnostics printed beside the result
}

func (r *runCtx) put(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail marks the run incorrect and says why on stderr.
func (r *runCtx) fail(format string, args ...any) {
	r.res.Correct = false
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

var workloadFuncs = map[string]func(*runCtx) error{
	"warm_serve":   runWarm,
	"cold_compile": runCold,
	"paper_loop":   runPaper,
}

func main() {
	var (
		workload = flag.String("workload", "", "warm_serve | cold_compile | paper_loop")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 15, "nominal measured time; sizes the fixed op count")
		trace    = flag.Int("trace", 0, "1 = traced in-process replay reporting per-layer metrics")
		xtalkd   = flag.String("xtalkd", "", "xtalkd binary (daemon workloads)")
		workdir  = flag.String("workdir", ".bench_build", "scratch directory for stores and traces")
	)
	flag.Parse()
	run, ok := workloadFuncs[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	r := &runCtx{seed: *seed, seconds: *seconds, trace: *trace == 1, xtalkd: *xtalkd, workdir: *workdir,
		res: result{Correct: true, Metrics: map[string]metric{}}, diag: map[string]any{}}
	if err := os.MkdirAll(r.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.diag["workload"] = *workload
	r.diag["seed"] = *seed
	r.diag["ref_loop_ms_start"] = refLoopMS()
	if err := run(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	r.diag["ref_loop_ms_end"] = refLoopMS()
	diag, _ := json.Marshal(r.diag)
	fmt.Println(string(diag))
	out, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// refLoopMS times a fixed CPU loop (SHA-256 over 4 MiB, 8 times). It is a
// diagnostic printed at the start and end of every run, so that machine
// noise is visible beside the metrics; it is not a metric.
func refLoopMS() float64 {
	buf := make([]byte, 4<<20)
	t0 := time.Now()
	var sum [32]byte
	for i := 0; i < 8; i++ {
		buf[0] = sum[0]
		sum = sha256.Sum256(buf)
	}
	return ms(time.Since(t0))
}
