package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"time"

	"xtalk/internal/serve"
)

// cold_compile sizing: one pass (a fresh daemon working through the whole
// list) takes about coldPassSecond on a 2-core x86 container.
const (
	coldPassSecond = 2.5
	coldMinPasses  = 3
)

// probeSource is a one-gate circuit compiled once per device during
// set-up, so that engine construction (device synthesis and its noise
// model) is paid before the first timed op, as a long-lived daemon would.
const probeSource = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\n"

// engineSpecs lists the distinct (spec, day) engines a list uses.
func engineSpecs(insts []instance) []instance {
	seen := map[string]bool{}
	var out []instance
	for _, in := range insts {
		key := fmt.Sprintf("%s/%d", in.Spec, in.Day)
		if !seen[key] {
			seen[key] = true
			out = append(out, instance{Name: "probe", Spec: in.Spec, Day: in.Day, Source: probeSource})
		}
	}
	return out
}

// warmEngines sends the probe circuit once per engine.
func warmEngines(cl *client, insts []instance) error {
	var buf bytes.Buffer
	for _, p := range engineSpecs(insts) {
		status, err := cl.post(requestBody(p), &buf)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("engine probe on %s: status %d: %v (%s)", p.Spec, status, err, buf.String())
		}
	}
	return nil
}

func runCold(r *runCtx) error {
	ctx := context.Background()
	insts, err := coldInstances()
	if err != nil {
		return err
	}
	bodies := make([][]byte, len(insts))
	for i, in := range insts {
		bodies[i] = requestBody(in)
	}
	if r.trace {
		return traceCold(ctx, r, insts, bodies)
	}
	passes := int(r.seconds/coldPassSecond + 0.5)
	if passes < coldMinPasses {
		passes = coldMinPasses
	}
	var setups, lat []float64
	var timed time.Duration
	var first []*serve.CompileResponse
	var rss float64
	countDrift := 0
	coldOK := make([]int, len(insts)) // passes in which the reply was a full, cold solve
	for pass := 0; pass < passes; pass++ {
		run, err := coldDaemonPass(r, insts, bodies)
		if err != nil {
			return fmt.Errorf("pass %d: %w", pass, err)
		}
		setups, lat, timed, rss = append(setups, run.setup), append(lat, run.lat...), timed+run.elapsed, max(rss, run.rss)
		if pass == 0 {
			first = run.resps
		} else {
			if err := sameExact(insts, first, run.resps, pass); err != nil {
				return err
			}
			countDrift += countsDiffer(first, run.resps)
		}
		for i, resp := range run.resps {
			if resp.Tier == serve.TierCold && !resp.Degraded {
				coldOK[i]++
			}
		}
	}
	q, err := assessServed(r, insts, first)
	if err != nil {
		return err
	}
	okN := 0
	for i, n := range coldOK {
		if q.ok[i] {
			okN += n
		}
	}
	attempted := passes * len(insts)
	r.res.Attempted, r.res.Failed = attempted, attempted-okN
	p, tv, beyond := tail(lat)
	r.put("setup_s", median(setups), "s")
	r.put("p50_ms", median(lat), "ms")
	r.put("tail_ms", tv, "ms")
	r.put("ops_per_s", float64(attempted)/timed.Seconds(), "1/s")
	r.put("ok_share", float64(okN)/float64(attempted), "share")
	r.put("peak_rss_mb", rss, "MB")
	r.put("sched_gain", q.schedGain, "ratio")
	r.put("error_gain", q.errorGain, "ratio")
	r.diag["setup_s_all"] = setups
	r.diag["tail_percentile"] = p
	r.diag["tail_beyond"] = beyond
	r.diag["passes"] = passes
	r.diag["smt_count_drift"] = countDrift
	return charCheck(r)
}

// coldRun is one pass on a fresh daemon.
type coldRun struct {
	setup   float64 // seconds from daemon start to every engine built
	resps   []*serve.CompileResponse
	lat     []float64
	elapsed time.Duration
	rss     float64
}

// coldDaemonPass starts a daemon on an empty store, builds its engines,
// sends the list once and checks that every request was solved.
func coldDaemonPass(r *runCtx, insts []instance, bodies [][]byte) (*coldRun, error) {
	store, err := os.MkdirTemp(r.workdir, "cold-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(store)
	t0 := time.Now()
	d, err := startDaemon(r.xtalkd, store)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	cl := newClient(d.base, 1)
	defer cl.close()
	if err := warmEngines(cl, insts); err != nil {
		return nil, err
	}
	run := &coldRun{setup: time.Since(t0).Seconds()}
	st0, err := d.stats()
	if err != nil {
		return nil, err
	}
	if run.resps, run.lat, run.elapsed, err = coldPass(cl, insts, bodies); err != nil {
		return nil, err
	}
	st1, err := d.stats()
	if err != nil {
		return nil, err
	}
	if n := st1.Solves - st0.Solves; n != int64(len(insts)) {
		return nil, fmt.Errorf("daemon ran %d solves for %d distinct circuits", n, len(insts))
	}
	if run.rss, err = peakRSSMB(d.cmd.Process.Pid); err != nil {
		return nil, err
	}
	return run, nil
}

// coldPass sends every instance once, in order, from one closed-loop
// client.
func coldPass(cl *client, insts []instance, bodies [][]byte) ([]*serve.CompileResponse, []float64, time.Duration, error) {
	var buf bytes.Buffer
	resps := make([]*serve.CompileResponse, len(insts))
	lat := make([]float64, len(insts))
	var total time.Duration
	for i, b := range bodies {
		t0 := time.Now()
		status, err := cl.post(b, &buf)
		el := time.Since(t0)
		total += el
		lat[i] = ms(el)
		if err != nil || status != http.StatusOK {
			return resps, lat, total, fmt.Errorf("%s on %s: status %d: %v (%s)", insts[i].Name, insts[i].Spec, status, err, buf.String())
		}
		var resp serve.CompileResponse
		if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
			return resps, lat, total, err
		}
		resps[i] = &resp
	}
	return resps, lat, total, nil
}

// sameExact is the determinism gate: every exact output of a later pass
// must equal the first pass's.
func sameExact(insts []instance, first, later []*serve.CompileResponse, pass int) error {
	for i := range insts {
		a, b := exactOf(first[i]), exactOf(later[i])
		if a != b {
			return fmt.Errorf("determinism: %s on %s: pass %d served %s, pass 0 served %s", insts[i].Name, insts[i].Spec, pass, b, a)
		}
	}
	return nil
}

// countsDiffer counts the replies of a later pass whose served solver
// counters differ from the first pass's. It is reported, not gated (see
// exactOf).
func countsDiffer(first, later []*serve.CompileResponse) int {
	n := 0
	for i := range first {
		p0, c0 := solveCounts(first[i].Solve)
		p1, c1 := solveCounts(later[i].Solve)
		if p0 != p1 || c0 != c1 {
			n++
		}
	}
	return n
}

// traceCold replays one pass in-process: the HTTP round trip goes to one
// fresh server and Server.Compile to another, so both do the cold solve.
func traceCold(ctx context.Context, r *runCtx, insts []instance, bodies [][]byte) error {
	var stores []string
	defer func() {
		for _, s := range stores {
			os.RemoveAll(s)
		}
	}()
	var servers [2]*inProc
	for k := range servers {
		store, err := os.MkdirTemp(r.workdir, "cold-store-")
		if err != nil {
			return err
		}
		stores = append(stores, store)
		if servers[k], err = startInProc(store); err != nil {
			return err
		}
		defer servers[k].close()
		if err := warmEngines(servers[k].cl, insts); err != nil {
			return err
		}
	}
	t := &tracer{}
	a := newLayerAcc()
	ps := pipelines{}
	var buf bytes.Buffer
	st0 := servers[0].srv.Stats()
	for i, in := range insts {
		if err := traceServeOp(ctx, t, a, in, bodies[i], servers[0], servers[1].srv, ps, &buf); err != nil {
			return err
		}
	}
	serveDeltas(a, st0, servers[0].srv.Stats())
	if err := measureOverhead(a, servers[0], bodies); err != nil {
		return err
	}
	return a.finish(r, t, "cold_compile")
}

// serveDeltas records the daemon-side counters of a traced run.
func serveDeltas(a *layerAcc, st0, st1 serve.Stats) {
	a.totals["serve.mem_hits"] = float64(st1.MemHits - st0.MemHits)
	a.totals["serve.disk_hits"] = float64(st1.DiskHits - st0.DiskHits)
	a.totals["serve.solves"] = float64(st1.Solves - st0.Solves)
	a.totals["serve.shed"] = float64(st1.Shed - st0.Shed)
	a.totals["serve.errors"] = float64(st1.Errors - st0.Errors)
}

// overheadRounds is how many warm round trips each side of the tracing
// overhead estimate takes.
const overheadRounds = 300

// measureOverhead times the same warm round trips with and without a span
// around each, and keeps both sets so finish can report the difference of
// their medians. Every body must already be cached on p.
func measureOverhead(a *layerAcc, p *inProc, bodies [][]byte) error {
	var buf bytes.Buffer
	t := &tracer{}
	a.rtUntr, a.rtTrace = nil, nil
	for i := 0; i < overheadRounds; i++ {
		b := bodies[i%len(bodies)]
		t0 := time.Now()
		if _, err := p.cl.post(b, &buf); err != nil {
			return err
		}
		a.rtUntr = append(a.rtUntr, ms(time.Since(t0)))
		t0 = time.Now()
		id := t.begin("serve.roundtrip")
		_, err := p.cl.post(b, &buf)
		t.end(id)
		a.rtTrace = append(a.rtTrace, ms(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	return nil
}

var (
	pivotsRe    = regexp.MustCompile(`(\d+) pivots`)
	conflictsRe = regexp.MustCompile(`(\d+) conflicts;`)
)

// solveCounts reads the pivot and conflict counts from a served solve
// line (core.SolveStats.String).
func solveCounts(line string) (pivots, conflicts int64) {
	if m := pivotsRe.FindStringSubmatch(line); m != nil {
		pivots, _ = strconv.ParseInt(m[1], 10, 64)
	}
	if m := conflictsRe.FindStringSubmatch(line); m != nil {
		conflicts, _ = strconv.ParseInt(m[1], 10, 64)
	}
	return pivots, conflicts
}
