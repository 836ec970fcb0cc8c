package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"xtalk/internal/certify"
	"xtalk/internal/circuit"
	"xtalk/internal/core"
	"xtalk/internal/pipeline"
	"xtalk/internal/qasm"
	"xtalk/internal/serve"
)

// perLayer lists every per-layer metric: unit, which direction is better,
// and the end-to-end metric and workload it should move. A traced run
// reports all of them; a layer a workload does not exercise reads 0.
// Times named after a span are that span's mean self time per op, so
// they sum with trace.residual_ms to trace.op_ms; serve.http_ms,
// pipeline.stage.* and smt.simplex_ms are derived splits of those spans.
// Counts are per op unless they are run totals from /stats deltas
// (serve.mem_hits ... serve.errors) or from the load generator.
var perLayer = []struct{ Name, Unit, Better, Moves string }{
	{"trace.op_ms", "ms", "lower", "all: sum of the layer self times below plus the residual"},
	{"trace.residual_ms", "ms", "lower", "all: op time outside every layer span"},
	{"trace.overhead_ms", "ms", "lower", "all: traced minus untraced warm round-trip p50"},
	{"serve.roundtrip_ms", "ms", "lower", "warm_serve p50_ms, ops_per_s"},
	{"serve.compile_ms", "ms", "lower", "warm_serve p50_ms, ops_per_s"},
	{"serve.http_ms", "ms", "lower", "warm_serve p50_ms, ops_per_s"},
	{"serve.mem_hits", "count", "higher", "warm_serve p50_ms"},
	{"serve.disk_hits", "count", "lower", "warm_serve p50_ms"},
	{"serve.solves", "count", "lower", "warm_serve p50_ms; cold_compile ops_per_s"},
	{"serve.shed", "count", "lower", "warm_serve ok_share"},
	{"serve.errors", "count", "lower", "warm_serve ok_share"},
	{"serve.resp_bytes", "bytes", "lower", "warm_serve p50_ms"},
	{"loadgen.late_p99_ms", "ms", "lower", "warm_serve tail_ms (validity)"},
	{"loadgen.sent", "count", "higher", "warm_serve tail_ms (validity)"},
	{"pipeline.compile_ms", "ms", "lower", "cold_compile p50_ms"},
	{"pipeline.stage.parse_ms", "ms", "lower", "cold_compile p50_ms"},
	{"pipeline.stage.decompose_ms", "ms", "lower", "cold_compile p50_ms"},
	{"pipeline.stage.schedule_ms", "ms", "lower", "cold_compile p50_ms, tail_ms"},
	{"pipeline.stage.barriers_ms", "ms", "lower", "cold_compile p50_ms"},
	{"pipeline.fingerprint_ms", "ms", "lower", "cold_compile p50_ms"},
	{"pipeline.decompose_ms", "ms", "lower", "cold_compile p50_ms"},
	{"pipeline.encode_us", "us", "lower", "cold_compile p50_ms"},
	{"pipeline.decode_us", "us", "lower", "cold_compile p50_ms"},
	{"pipeline.artifact_bytes", "bytes", "lower", "cold_compile p50_ms"},
	{"qasm.parse_ms", "ms", "lower", "cold_compile p50_ms"},
	{"qasm.dump_ms", "ms", "lower", "cold_compile p50_ms"},
	{"certify.reconstruct_ms", "ms", "lower", "cold_compile p50_ms"},
	{"certify.check_ms", "ms", "lower", "cold_compile p50_ms"},
	{"certify.violations", "count", "lower", "cold_compile ok_share"},
	{"certify.cost_mismatches", "count", "lower", "cold_compile, warm_serve ok_share"},
	{"core.schedule_ms", "ms", "lower", "cold_compile p50_ms, tail_ms; paper_loop p50_ms"},
	{"core.barriers_ms", "ms", "lower", "cold_compile p50_ms"},
	{"core.parsched_ms", "ms", "lower", "paper_loop p50_ms"},
	{"core.windows", "count", "lower", "cold_compile p50_ms, tail_ms"},
	{"core.components", "count", "lower", "cold_compile p50_ms, tail_ms"},
	{"core.fallbacks", "count", "lower", "cold_compile sched_gain (must be 0)"},
	{"smt.simplex_ms", "ms", "lower", "cold_compile tail_ms; paper_loop p50_ms"},
	{"smt.pivots", "count", "lower", "cold_compile tail_ms; paper_loop p50_ms"},
	{"smt.promotions", "count", "lower", "cold_compile tail_ms; paper_loop p50_ms"},
	{"smt.promotions_per_pivot", "ratio", "lower", "cold_compile tail_ms; paper_loop p50_ms"},
	{"smt.conflicts", "count", "lower", "cold_compile p50_ms, tail_ms"},
	{"smt.decisions", "count", "lower", "cold_compile p50_ms, tail_ms"},
	{"smt.peak_rat_bits", "bits", "lower", "cold_compile tail_ms; paper_loop p50_ms"},
	{"characterize.run_ms", "ms", "lower", "paper_loop ops_per_s, setup_s"},
	{"characterize.pairs", "count", "lower", "paper_loop ops_per_s, char_device_s"},
	{"characterize.batches", "count", "lower", "paper_loop char_device_s"},
	{"rb.executions", "count", "lower", "paper_loop ops_per_s, char_device_s"},
	{"noise.exec_ms", "ms", "lower", "paper_loop p50_ms"},
	{"noise.ideal_ms", "ms", "lower", "paper_loop p50_ms"},
	{"noise.shots", "count", "lower", "paper_loop p50_ms"},
	{"metrics.mitigate_ms", "ms", "lower", "paper_loop p50_ms"},
	{"go.gc_cycles_per_op", "count", "lower", "all: p50_ms of the in-process layers"},
	{"go.alloc_mb_per_op", "MB", "lower", "all: p50_ms of the in-process layers"},
}

// spanMetric maps a span name to the per-layer metric of its self time
// and the unit scale (1 = ms, 1000 = us).
var spanMetric = map[string]struct {
	Metric string
	Scale  float64
}{
	"op":                   {"trace.residual_ms", 1},
	"serve.roundtrip":      {"serve.roundtrip_ms", 1},
	"serve.compile":        {"serve.compile_ms", 1},
	"pipeline.compile":     {"pipeline.compile_ms", 1},
	"pipeline.fingerprint": {"pipeline.fingerprint_ms", 1},
	"pipeline.decompose":   {"pipeline.decompose_ms", 1},
	"pipeline.encode":      {"pipeline.encode_us", 1000},
	"pipeline.decode":      {"pipeline.decode_us", 1000},
	"qasm.parse":           {"qasm.parse_ms", 1},
	"qasm.dump":            {"qasm.dump_ms", 1},
	"certify.reconstruct":  {"certify.reconstruct_ms", 1},
	"certify.check":        {"certify.check_ms", 1},
	"core.schedule":        {"core.schedule_ms", 1},
	"core.barriers":        {"core.barriers_ms", 1},
	"core.parsched":        {"core.parsched_ms", 1},
	"characterize.run":     {"characterize.run_ms", 1},
	"noise.exec":           {"noise.exec_ms", 1},
	"noise.ideal":          {"noise.ideal_ms", 1},
	"metrics.mitigate":     {"metrics.mitigate_ms", 1},
}

// layerAcc accumulates the counters of a traced run.
type layerAcc struct {
	ops       int
	counts    map[string]float64 // summed over ops; reported per op
	totals    map[string]float64 // reported as is
	solve     core.SolveStats
	stages    map[string]time.Duration
	gc0       uint32
	alloc0    uint64
	costDiffs int       // ops whose served and library costs differ
	rtUntr    []float64 // untraced serve roundtrips, for the overhead estimate
	rtTrace   []float64
}

func newLayerAcc() *layerAcc {
	gc, alloc := goRuntime()
	return &layerAcc{counts: map[string]float64{}, totals: map[string]float64{}, stages: map[string]time.Duration{}, gc0: gc, alloc0: alloc}
}

// finish converts a traced run into per-layer metrics.
func (a *layerAcc) finish(r *runCtx, t *tracer, name string) error {
	for _, m := range perLayer {
		r.put(m.Name, 0, m.Unit)
	}
	if a.ops == 0 {
		return errors.New("traced run completed no op")
	}
	r.res.Attempted = a.ops
	n := float64(a.ops)
	self := selfTimes(t.spans)
	var sum time.Duration
	for sp, d := range self {
		m, ok := spanMetric[sp]
		if !ok {
			return fmt.Errorf("span %q has no metric", sp)
		}
		sum += d
		r.put(m.Metric, ms(d)*m.Scale/n, unitOf(m.Metric))
	}
	total := rootTotal(t.spans)
	r.put("trace.op_ms", ms(total)/n, "ms")
	r.diag["trace_self_sum_minus_op_ms"] = ms(sum - total)
	r.diag["trace_ops"] = a.ops
	r.diag["served_vs_library_cost_diffs"] = a.costDiffs
	if rt := r.res.Metrics["serve.roundtrip_ms"].Value; rt > 0 {
		r.put("serve.http_ms", rt-r.res.Metrics["serve.compile_ms"].Value, "ms")
	}
	if len(a.rtUntr) > 0 && len(a.rtTrace) > 0 {
		r.put("trace.overhead_ms", median(a.rtTrace)-median(a.rtUntr), "ms")
	}
	for stage, d := range a.stages {
		r.put("pipeline.stage."+stage+"_ms", ms(d)/n, "ms")
	}
	for k, v := range a.counts {
		r.put(k, v/n, unitOf(k))
	}
	for k, v := range a.totals {
		r.put(k, v, unitOf(k))
	}
	st := a.solve
	r.put("core.windows", float64(st.Windows)/n, "count")
	r.put("core.components", float64(st.Components)/n, "count")
	r.put("core.fallbacks", float64(st.Fallbacks)/n, "count")
	r.put("smt.simplex_ms", ms(st.SimplexTime)/n, "ms")
	r.put("smt.pivots", float64(st.Pivots)/n, "count")
	r.put("smt.promotions", float64(st.Promotions)/n, "count")
	if st.Pivots > 0 {
		r.put("smt.promotions_per_pivot", float64(st.Promotions)/float64(st.Pivots), "ratio")
	}
	r.put("smt.conflicts", float64(st.Conflicts)/n, "count")
	r.put("smt.decisions", float64(st.Decisions)/n, "count")
	r.put("smt.peak_rat_bits", float64(st.PeakRatBits), "bits")
	if st.Fallbacks != 0 {
		r.fail("%d heuristic fallbacks in a run-to-optimality solve", st.Fallbacks)
	}
	gc, alloc := goRuntime()
	r.put("go.gc_cycles_per_op", float64(gc-a.gc0)/n, "count")
	r.put("go.alloc_mb_per_op", float64(alloc-a.alloc0)/(1<<20)/n, "MB")
	return writeSpans(r, name, t.spans)
}

func unitOf(name string) string {
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// daemonConfig mirrors the serve.Config cmd/xtalkd builds from the flags
// the benchmark passes (-device heavyhex:27 -budget 0, defaults otherwise).
func daemonConfig(store string) serve.Config {
	return serve.Config{
		Spec: "heavyhex:27",
		Seed: 1,
		Pipeline: pipeline.Config{
			Omega:          omega,
			Budget:         0,
			Partition:      true,
			DecomposeSwaps: true,
		},
		CacheBytes: 64 << 20,
		StoreDir:   store,
		StoreBytes: 512 << 20,
	}
}

// inProc is an in-process xtalkd: Server.Handler on a loopback listener.
type inProc struct {
	srv  *serve.Server
	http *http.Server
	cl   *client
	done chan error
}

func startInProc(store string) (*inProc, error) {
	s, err := serve.New(daemonConfig(store))
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	p := &inProc{srv: s, http: &http.Server{Handler: s.Handler()}, cl: newClient("http://"+l.Addr().String(), 1), done: make(chan error, 1)}
	go func() { p.done <- p.http.Serve(l) }()
	return p, nil
}

func (p *inProc) close() {
	p.cl.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = p.http.Shutdown(ctx)
	<-p.done
	p.srv.Close()
}

// pipelines memoises one compile engine per (spec, day), configured as the
// daemon's engines are.
type pipelines map[string]*pipeline.Pipeline

func (ps pipelines) get(in instance) (*pipeline.Pipeline, error) {
	key := fmt.Sprintf("%s/%d", in.Spec, in.Day)
	if p, ok := ps[key]; ok {
		return p, nil
	}
	p, err := pipeline.NewFromSpec(in.Spec, calSeed, in.Day, daemonConfig("").Pipeline)
	if err != nil {
		return nil, err
	}
	ps[key] = p
	return p, nil
}

// traceServeOp runs one daemon request through every layer with spans:
// the HTTP round trip to an in-process server, Server.Compile on another
// (or the same) server, the pipeline's own compile, and then the library
// chain the pipeline is built from, call by call.
func traceServeOp(ctx context.Context, t *tracer, a *layerAcc, in instance, body []byte, viaHTTP *inProc, direct *serve.Server, ps pipelines, buf *bytes.Buffer) error {
	eng, err := ps.get(in)
	if err != nil {
		return err
	}
	req := serve.CompileRequest{}
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	root := t.begin("op")
	defer t.end(root)

	sp := t.begin("serve.roundtrip")
	status, err := viaHTTP.cl.post(body, buf)
	t.end(sp)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("%s on %s: status %d: %v", in.Name, in.Spec, status, err)
	}
	a.counts["serve.resp_bytes"] += float64(buf.Len())

	var resp *serve.CompileResponse
	t.do("serve.compile", func() { resp, err = direct.Compile(ctx, req) })
	if err != nil {
		return err
	}

	var res *pipeline.Result
	t.do("pipeline.compile", func() { res = eng.Compile(ctx, pipeline.Request{Source: in.Source}) })
	if res.Err != nil {
		return res.Err
	}
	for _, st := range res.Timings {
		a.stages[st.Stage] += st.Elapsed
	}

	circ, err := parseTraced(t, in.Source)
	if err != nil {
		return err
	}
	var fp string
	t.do("pipeline.fingerprint", func() { fp = eng.Fingerprint(circ) })
	t.do("pipeline.decompose", func() { circ = circ.DecomposeSwaps() })
	var s *core.Schedule
	t.do("core.schedule", func() { s, err = core.ScheduleWithContext(ctx, eng.Scheduler(&pipeline.Request{}), circ, eng.Dev) })
	if err != nil {
		return err
	}
	a.solve.Add(s.Stats)
	var barriered *circuit.Circuit
	t.do("core.barriers", func() { barriered = core.InsertBarriers(s) })
	var src string
	t.do("qasm.dump", func() { src = qasm.Dump(barriered) })
	cost := s.Cost(eng.Noise, omega)
	if err := traceCertify(t, a, src, eng, cost); err != nil {
		return fmt.Errorf("%s on %s: barriered program: %w", in.Name, in.Spec, err)
	}
	art := &pipeline.CompiledArtifact{Fingerprint: fp, Device: string(eng.Dev.Name), Seed: eng.Dev.Seed, Day: eng.Dev.Day,
		Scheduler: s.Scheduler, NQubits: circ.NQubits, Gates: len(circ.Gates), Makespan: s.Makespan(), Cost: cost,
		SolverObjective: s.SolverObjective, Solve: s.Stats, QASM: src}
	var enc []byte
	t.do("pipeline.encode", func() { enc = art.EncodeBinary() })
	a.counts["pipeline.artifact_bytes"] += float64(len(enc))
	var dec *pipeline.CompiledArtifact
	t.do("pipeline.decode", func() { dec, err = pipeline.DecodeArtifact(enc) })
	if err != nil {
		return err
	}
	if dec.QASM != src || dec.Cost != cost {
		return fmt.Errorf("%s on %s: artifact codec round trip changed the artifact", in.Name, in.Spec)
	}
	if resp.Fingerprint != fp {
		return fmt.Errorf("%s on %s: served fingerprint %s, library fingerprint %s", in.Name, in.Spec, resp.Fingerprint[:12], fp[:12])
	}
	// A partitioned solve is optimal per window, and ties between window
	// optima are broken by solver state, so the daemon and a fresh library
	// engine may stitch schedules of slightly different total cost. The
	// diagnostics count how often.
	if fmt.Sprintf("%.12g", resp.Cost) != fmt.Sprintf("%.12g", cost) {
		a.costDiffs++
	}
	a.ops++
	t.op++
	return nil
}

func parseTraced(t *tracer, src string) (c *circuit.Circuit, err error) {
	t.do("qasm.parse", func() { c, err = qasm.Parse(src) })
	return c, err
}

// traceCertify re-parses the barriered program, rebuilds its hardware
// timing and certifies it against the claimed cost, with spans.
func traceCertify(t *tracer, a *layerAcc, src string, eng *pipeline.Pipeline, claimed float64) error {
	circ, err := parseTraced(t, src)
	if err != nil {
		return err
	}
	var s *core.Schedule
	t.do("certify.reconstruct", func() { s = certify.ReconstructASAP(circ, eng.Dev) })
	var rep *certify.Report
	t.do("certify.check", func() {
		rep = certify.Check(s, certify.Config{Omega: omega, Threshold: threshold, CheckCost: true, ClaimedCost: claimed})
	})
	for _, v := range rep.Violations {
		if v.Kind == certify.CostMismatch {
			a.counts["certify.cost_mismatches"]++
		} else {
			a.counts["certify.violations"]++
		}
	}
	return nil
}
