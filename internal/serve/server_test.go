package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"xtalk/internal/pipeline"
)

const testQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[20];
creg c[2];
h q[5];
cx q[5],q[10];
cx q[11],q[12];
measure q[10] -> c[0];
measure q[12] -> c[1];
`

// testQASMReordered is semantically identical to testQASM: the independent
// 11-12 CNOT is issued before the 5-10 chain.
const testQASMReordered = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[20];
creg c[2];
cx q[11],q[12];
h q[5];
cx q[5],q[10];
measure q[10] -> c[0];
measure q[12] -> c[1];
`

func newTestServer(t *testing.T) *Server {
	t.Helper()
	return newTestServerHook(t, nil)
}

// newTestServerHook is newTestServer with Config.SolveHook set to hook.
func newTestServerHook(t *testing.T, hook func(context.Context) error) *Server {
	t.Helper()
	s, err := New(Config{
		Spec: "poughkeepsie",
		Seed: 1,
		Pipeline: pipeline.Config{
			Budget: 5 * time.Second,
		},
		SolveHook: hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func compileOK(t *testing.T, s *Server, req CompileRequest) *CompileResponse {
	t.Helper()
	resp, err := s.Compile(context.Background(), req)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return resp
}

// TestSameFingerprintBitIdenticalArtifact: a repeated request must hit the
// cache and return the bit-identical artifact; a semantically identical
// reordered submission must land on the same key.
func TestSameFingerprintBitIdenticalArtifact(t *testing.T) {
	s := newTestServer(t)
	cold := compileOK(t, s, CompileRequest{Source: testQASM, Tag: "cold"})
	if cold.Cached {
		t.Fatal("first compile reported a cache hit")
	}
	if cold.QASM == "" || cold.Fingerprint == "" {
		t.Fatalf("incomplete response %+v", cold)
	}
	warm := compileOK(t, s, CompileRequest{Source: testQASM, Tag: "warm"})
	if !warm.Cached {
		t.Fatal("identical request missed the cache")
	}
	if warm.Fingerprint != cold.Fingerprint || warm.QASM != cold.QASM ||
		warm.Cost != cold.Cost || warm.MakespanNS != cold.MakespanNS {
		t.Fatalf("cache hit not bit-identical:\n%+v\nvs\n%+v", warm, cold)
	}
	reordered := compileOK(t, s, CompileRequest{Source: testQASMReordered})
	if !reordered.Cached || reordered.Fingerprint != cold.Fingerprint || reordered.QASM != cold.QASM {
		t.Fatal("semantically identical reordered submission did not share the cache entry")
	}
	if solves := s.solves.Load(); solves != 1 {
		t.Fatalf("3 equivalent requests ran %d solves, want 1", solves)
	}
}

// TestDistinctKeysAcrossDeviceDayConfig: different day, seed, device or
// compile config must address different cache entries.
func TestDistinctKeysAcrossDeviceDayConfig(t *testing.T) {
	s := newTestServer(t)
	base := compileOK(t, s, CompileRequest{Source: testQASM})
	day := 1
	onDay := compileOK(t, s, CompileRequest{Source: testQASM, Day: &day})
	if onDay.Cached || onDay.Fingerprint == base.Fingerprint {
		t.Fatal("different calibration day shared the cache key")
	}
	seed := int64(7)
	onSeed := compileOK(t, s, CompileRequest{Source: testQASM, Seed: &seed})
	if onSeed.Cached || onSeed.Fingerprint == base.Fingerprint {
		t.Fatal("different calibration seed shared the cache key")
	}
	onDev := compileOK(t, s, CompileRequest{Source: testQASM, Device: "johannesburg"})
	if onDev.Cached || onDev.Fingerprint == base.Fingerprint {
		t.Fatal("different device shared the cache key")
	}

	other, err := New(Config{
		Spec:     "poughkeepsie",
		Seed:     1,
		Pipeline: pipeline.Config{Budget: 5 * time.Second, Omega: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	otherResp, err := other.Compile(context.Background(), CompileRequest{Source: testQASM})
	if err != nil {
		t.Fatal(err)
	}
	if otherResp.Fingerprint == base.Fingerprint {
		t.Fatal("different compile config shared the fingerprint")
	}
}

// TestSingleflightCollapsesConcurrentRequests: N concurrent identical
// requests must execute exactly one underlying solve — the acceptance
// criterion of the serving layer (run under -race in CI).
func TestSingleflightCollapsesConcurrentRequests(t *testing.T) {
	const n = 8
	// The leader's solve blocks until the other n-1 requests have joined
	// its flight (or 10s passes), making the collapse deterministic.
	var s *Server
	s = newTestServerHook(t, func(context.Context) error {
		deadline := time.Now().Add(10 * time.Second)
		for s.collapsed.Load() < n-1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		return nil
	})
	var wg sync.WaitGroup
	resps := make([]*CompileResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = s.Compile(context.Background(), CompileRequest{Source: testQASM})
		}(i)
	}
	wg.Wait()
	leaders := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if resps[i].Cached {
			t.Fatalf("request %d hit the cache during a cold collapse", i)
		}
		if !resps[i].Collapsed {
			leaders++
		}
		if resps[i].Fingerprint != resps[0].Fingerprint || resps[i].QASM != resps[0].QASM {
			t.Fatalf("request %d diverged from the leader's artifact", i)
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders for %d concurrent identical requests, want 1", leaders, n)
	}
	if solves := s.solves.Load(); solves != 1 {
		t.Fatalf("%d underlying solves for %d concurrent identical requests, want exactly 1", solves, n)
	}
	if collapsed := s.collapsed.Load(); collapsed != n-1 {
		t.Fatalf("collapsed counter %d, want %d", collapsed, n-1)
	}
}

// TestHTTPEndpoints drives the JSON surface end to end: compile twice
// (second cached), parse-error 400 with line number, stats and healthz.
func TestHTTPEndpoints(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body CompileRequest) (*http.Response, []byte) {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	resp, body := post(CompileRequest{Source: testQASM})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status %d: %s", resp.StatusCode, body)
	}
	var first CompileResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.QASM == "" {
		t.Fatalf("unexpected first response: %+v", first)
	}

	resp, body = post(CompileRequest{Source: testQASM})
	var second CompileResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !second.Cached {
		t.Fatalf("second compile not a cache hit: %d %s", resp.StatusCode, body)
	}

	// Raw (non-JSON) body is treated as source.
	rawResp, err := http.Post(ts.URL+"/compile", "text/plain", strings.NewReader(testQASM))
	if err != nil {
		t.Fatal(err)
	}
	var raw CompileResponse
	if err := json.NewDecoder(rawResp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	rawResp.Body.Close()
	if !raw.Cached || raw.Fingerprint != first.Fingerprint {
		t.Fatalf("raw-body compile did not share the cache entry: %+v", raw)
	}

	// Parse failures: 400 with the failing line.
	bad := "OPENQASM 2.0;\nqreg q[2];\nbogus q[0];\n"
	resp, body = post(CompileRequest{Source: bad})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad source status %d, want 400", resp.StatusCode)
	}
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Line != 3 {
		t.Fatalf("error response %+v, want line 3", e)
	}

	// Stats: counters and the composed text rendering.
	stResp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(stResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	stResp.Body.Close()
	// The two warm repeats are memory-tier hits (the first request missed).
	if st.MemHits < 2 || st.Cache.Misses < 1 || st.Solves != 1 {
		t.Fatalf("stats counters off: %+v", st)
	}
	if st.Cache.Hits < 2 {
		t.Fatalf("warm repeats bypassed the memory tier: %+v", st.Cache)
	}
	if !strings.Contains(st.Text, "cache:") || !strings.Contains(st.Text, "schedule") {
		t.Fatalf("stats text missing cache line or stage table:\n%s", st.Text)
	}

	// Healthz.
	hResp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hResp.Body.Close()
	if hResp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hResp.StatusCode)
	}
}

// TestStatsTextMatchesSnapshot: the text rendering of a /stats reply is
// built from the same snapshot as its JSON fields, so under concurrent
// hits the tiers line still agrees with MemHits and Solves.
func TestStatsTextMatchesSnapshot(t *testing.T) {
	s := newTestServer(t)
	compileOK(t, s, CompileRequest{Source: testQASM})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.Compile(context.Background(), CompileRequest{Source: testQASM})
				}
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()
	for i := 0; i < 200; i++ {
		st := s.Stats()
		line := st.Text[strings.Index(st.Text, "tiers:"):]
		var mem, disk, peer, solves int64
		if _, err := fmt.Sscanf(line, "tiers: %d mem  %d disk  %d peer  %d cold solves", &mem, &disk, &peer, &solves); err != nil {
			t.Fatalf("unparsable tiers line %q: %v", line, err)
		}
		if mem != st.MemHits || solves != st.Solves {
			t.Fatalf("snapshot %d: text says %d mem / %d solves, fields say %d / %d", i, mem, solves, st.MemHits, st.Solves)
		}
	}
}

// TestBadDeviceSpecIs400: an unknown device spec is a client error, not a
// server crash.
func TestBadDeviceSpecIs400(t *testing.T) {
	s := newTestServer(t)
	_, err := s.Compile(context.Background(), CompileRequest{Source: testQASM, Device: "nosuchdevice:99"})
	var bad *badRequestError
	if err == nil || !errors.As(err, &bad) {
		t.Fatalf("want badRequestError, got %v", err)
	}
}

// testQASMDoubleMeasure measures q[10] twice: unschedulable under the
// simultaneous-readout model every engine in the repo shares.
const testQASMDoubleMeasure = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[20];
creg c[2];
h q[5];
cx q[5],q[10];
measure q[10] -> c[0];
measure q[10] -> c[1];
`

// TestDoubleMeasureIs500WithDiagnostic: a double-measured qubit must fail
// the compile with HTTP 500 and a JSON body that carries the scheduler's
// diagnostic — not a hang, not a silently bad schedule, and not a cache
// entry that would replay the failure as a success.
func TestDoubleMeasureIs500WithDiagnostic(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	b, _ := json.Marshal(CompileRequest{Source: testQASMDoubleMeasure})
	resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("double measure returned HTTP %d, want 500", resp.StatusCode)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if !strings.Contains(e.Error, "measured more than once") || !strings.Contains(e.Error, "qubit 10") {
		t.Fatalf("diagnostic body does not explain the double measure: %q", e.Error)
	}

	// The failure must not poison the artifact cache for valid programs.
	okResp, err := http.Post(ts.URL+"/compile", "application/json",
		bytes.NewReader(mustJSON(t, CompileRequest{Source: testQASM})))
	if err != nil {
		t.Fatal(err)
	}
	okResp.Body.Close()
	if okResp.StatusCode != http.StatusOK {
		t.Fatalf("valid compile after rejected one returned HTTP %d", okResp.StatusCode)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
