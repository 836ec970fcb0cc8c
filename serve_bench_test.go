package xtalk

// Serving-layer acceptance: a cache-hit compile must be orders of magnitude
// cheaper than the cold heavyhex:27 solve it memoizes, and the benchmark
// keeps the hit path honest over time.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"xtalk/internal/device"
	"xtalk/internal/pipeline"
	"xtalk/internal/qasm"
	"xtalk/internal/serve"
	"xtalk/internal/workloads"
)

// heavyhexQAOASource builds the serving benchmark workload: a QAOA chain on
// the heavyhex:27 device, shipped as OpenQASM like a real client would.
func heavyhexQAOASource(tb testing.TB) string {
	tb.Helper()
	dev, err := device.NewFromSpec("heavyhex:27", 1)
	if err != nil {
		tb.Fatal(err)
	}
	c, _, err := workloads.QAOAChainCircuit(dev.Topo, 6, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return qasm.Dump(c)
}

func newServeBenchServer(tb testing.TB) *serve.Server {
	return newServeBenchServerWithStore(tb, "")
}

// newServeBenchServerWithStore optionally attaches the persistent disk tier
// rooted at dir (empty = memory-only).
func newServeBenchServerWithStore(tb testing.TB, dir string) *serve.Server {
	tb.Helper()
	s, err := serve.New(serve.Config{
		Spec:     "heavyhex:27",
		Seed:     1,
		StoreDir: dir,
		Pipeline: pipeline.Config{
			Budget:         2 * time.Second,
			Partition:      true,
			DecomposeSwaps: true,
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	return s
}

// BenchmarkCompileCached measures the cache-hit path of the compilation
// service: the cold heavyhex:27 solve is paid once during setup, every
// iteration is a content-addressed hit. The reported custom metrics compare
// the two (cold_ms is the solve the cache saves per hit).
func BenchmarkCompileCached(b *testing.B) {
	s := newServeBenchServer(b)
	src := heavyhexQAOASource(b)
	cold, err := s.Compile(context.Background(), serve.CompileRequest{Source: src})
	if err != nil {
		b.Fatal(err)
	}
	if cold.Cached {
		b.Fatal("setup compile was already cached")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := s.Compile(context.Background(), serve.CompileRequest{Source: src})
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("iteration missed the cache")
		}
	}
	b.StopTimer()
	b.ReportMetric(cold.CompileMS, "cold_ms")
	if b.N > 0 && b.Elapsed() > 0 {
		hitMS := float64(b.Elapsed().Milliseconds()) / float64(b.N)
		if hitMS > 0 {
			b.ReportMetric(cold.CompileMS/hitMS, "speedup")
		}
	}
}

// TestCompileCachedSpeedup is the acceptance gate: a cache-hit compile must
// be at least 100x faster than the cold heavyhex:27 solve. The margin is
// huge in practice (a few-µs map lookup vs a multi-ms SMT solve), so
// the threshold is safe even on a loaded 1-core CI container.
func TestCompileCachedSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("cold heavyhex:27 solve in -short mode")
	}
	s := newServeBenchServer(t)
	src := heavyhexQAOASource(t)

	t0 := time.Now()
	cold, err := s.Compile(context.Background(), serve.CompileRequest{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	coldTime := time.Since(t0)
	if cold.Cached {
		t.Fatal("first compile was already cached")
	}

	const hits = 50
	t0 = time.Now()
	for i := 0; i < hits; i++ {
		resp, err := s.Compile(context.Background(), serve.CompileRequest{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Cached || resp.Fingerprint != cold.Fingerprint {
			t.Fatalf("hit %d did not return the cached artifact", i)
		}
	}
	hitTime := time.Since(t0) / hits
	if hitTime == 0 {
		hitTime = time.Nanosecond
	}
	speedup := float64(coldTime) / float64(hitTime)
	t.Logf("cold %v, hit %v, speedup %.0fx", coldTime, hitTime, speedup)
	if speedup < 100 {
		t.Fatalf("cache hit only %.1fx faster than cold compile (%v vs %v), want >= 100x",
			speedup, hitTime, coldTime)
	}
}

// TestDiskWarmHitSpeedup is the persistence acceptance gate: a *restarted*
// daemon over a warm disk store must serve a previously compiled
// fingerprint bit-identically, with zero solver invocations, and at the
// disk path's own cost — at most diskHitOverhead times what the steps a
// disk hit cannot skip (parse, fingerprint, file read + checksum + decode)
// cost when run directly on the same store. The gate is anchored on those
// steps rather than on the cold solve: the heavyhex:27 solve takes a few
// milliseconds, so a cold/disk ratio would measure the solver, not the
// tier. Best-of-several timings keep one scheduler hiccup from deciding.
func TestDiskWarmHitSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("cold heavyhex:27 solve in -short mode")
	}
	const (
		restarts        = 5
		diskHitOverhead = 4
	)
	dir := t.TempDir()
	src := heavyhexQAOASource(t)

	s1 := newServeBenchServerWithStore(t, dir)
	t0 := time.Now()
	cold, err := s1.Compile(context.Background(), serve.CompileRequest{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	coldTime := time.Since(t0)
	if cold.Tier != serve.TierCold {
		t.Fatalf("first compile tier %q, want cold", cold.Tier)
	}
	s1.Close()

	// Restarts: new server state, empty memory tier, warm disk.
	var warmTime time.Duration
	for r := 0; r < restarts; r++ {
		s2 := newServeBenchServerWithStore(t, dir)
		t0 = time.Now()
		warm, err := s2.Compile(context.Background(), serve.CompileRequest{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); r == 0 || d < warmTime {
			warmTime = d
		}
		if warm.Tier != serve.TierDisk || warm.Fingerprint != cold.Fingerprint || warm.QASM != cold.QASM {
			t.Fatalf("restart %d compile tier %q fp match %v, want bit-identical disk hit",
				r, warm.Tier, warm.Fingerprint == cold.Fingerprint)
		}
		if st := s2.Stats(); st.Solves != 0 {
			t.Fatalf("restarted daemon ran %d solves for a stored fingerprint, want 0", st.Solves)
		}
		s2.Close()
	}

	// The disk hit's unavoidable steps, run directly.
	eng, err := pipeline.NewFromSpec("heavyhex:27", 1, 0, pipeline.Config{
		Budget: 2 * time.Second, Partition: true, DecomposeSwaps: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := serve.NewStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var floor time.Duration
	for r := 0; r < 4*restarts; r++ {
		t0 = time.Now()
		circ, err := eng.Materialize(&pipeline.Request{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := st.Get(eng.Fingerprint(circ)); !ok {
			t.Fatal("stored artifact missing from a second store handle")
		}
		if d := time.Since(t0); r == 0 || d < floor {
			floor = d
		}
	}
	t.Logf("cold %v, disk warm hit %v (%.0fx), parse+fingerprint+read %v",
		coldTime, warmTime, float64(coldTime)/float64(warmTime), floor)
	if warmTime > diskHitOverhead*floor {
		t.Fatalf("disk warm hit %v costs %.1fx its parse+fingerprint+read floor %v, want <= %dx",
			warmTime, float64(warmTime)/float64(floor), floor, diskHitOverhead)
	}
}

// BenchmarkServeMemHit measures the full warm-path round trip — HTTP POST,
// body-key lookup in the memory tier, single socket write of the
// pre-encoded reply — through a real net/http server: the cold heavyhex:27
// solve is paid once in setup, then every iteration must be a memory hit
// that re-serves the same pre-encoded bytes.
func BenchmarkServeMemHit(b *testing.B) {
	s := newServeBenchServer(b)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	src := heavyhexQAOASource(b)
	body, err := json.Marshal(serve.CompileRequest{Source: src})
	if err != nil {
		b.Fatal(err)
	}
	client := ts.Client()
	post := func() *http.Response {
		resp, err := client.Post(ts.URL+"/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("HTTP %d", resp.StatusCode)
		}
		return resp
	}

	// Setup: one cold solve, then one warm repeat decoded to prove the
	// iterations below really exercise the memory tier.
	for _, wantCached := range []bool{false, true} {
		resp := post()
		var cr serve.CompileResponse
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if cr.Cached != wantCached {
			b.Fatalf("setup request cached=%v, want %v", cr.Cached, wantCached)
		}
		if wantCached && cr.Tier != serve.TierMem {
			b.Fatalf("warm repeat tier %q, want mem", cr.Tier)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := post()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
	b.StopTimer()
	if st := s.Stats(); st.Solves != 1 {
		b.Fatalf("iterations leaked %d extra solves", st.Solves-1)
	}
}

// TestServeMemHitAllocGate pins the warm path's allocation budget. The
// measured allocs/op cover the whole loopback round trip — load-generator
// client included — so the ceiling is far above the server's own share, but
// low enough that an accidental per-hit re-encode of the response (tens of
// KiB of JSON plus encoder state) blows through it immediately. The ceiling
// is the 86 allocs/op measured with the body-key hit (Go 1.24, linux/amd64)
// plus 5; the decoded hit it replaced measured 96.
func TestServeMemHitAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("cold heavyhex:27 solve in -short mode (and the gate is meaningless under -race)")
	}
	const maxAllocsPerOp = 91
	res := testing.Benchmark(BenchmarkServeMemHit)
	t.Logf("mem-hit round trip: %v/op, %d allocs/op, %d B/op",
		time.Duration(res.NsPerOp()), res.AllocsPerOp(), res.AllocedBytesPerOp())
	if allocs := res.AllocsPerOp(); allocs > maxAllocsPerOp {
		t.Fatalf("warm-path round trip costs %d allocs/op, want <= %d — did a per-hit encode sneak back in?",
			allocs, maxAllocsPerOp)
	}
}
