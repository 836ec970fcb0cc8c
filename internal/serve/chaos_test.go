// Chaos tests: the failure-domain layer exercised under the deterministic
// fault-injection rig. External test package (serve_test) on purpose —
// internal/faultinject imports serve, so these tests drive the server purely
// through its exported surface, exactly as cmd/xtalkd wires it.
package serve_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xtalk/internal/faultinject"
	"xtalk/internal/pipeline"
	"xtalk/internal/serve"
)

const chaosQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[20];
h q[0];
cx q[0],q[1];
cx q[2],q[3];
`

// chaosPipeline is the compile configuration every chaos test runs under —
// one definition so the mirror engine used for ownership prediction
// fingerprints identically to the server's.
func chaosPipeline() pipeline.Config {
	return pipeline.Config{Budget: 2 * time.Second}
}

// ownedSources returns n distinct QASM programs whose fingerprints the ring
// routes to owner. Ownership is predicted with a mirror of the server's ring
// and engine, so tests pick their proxy targets deterministically instead of
// by coin flip.
func ownedSources(t *testing.T, self string, peers []string, owner string, n int) []string {
	t.Helper()
	eng, err := pipeline.NewFromSpec("poughkeepsie", 1, 0, chaosPipeline())
	if err != nil {
		t.Fatal(err)
	}
	ring := serve.NewRing(self, peers)
	var out []string
	for i := 0; len(out) < n && i < 400; i++ {
		src := fmt.Sprintf("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[20];\nh q[%d];\ncx q[%d],q[%d];\ncx q[%d],q[%d];\n",
			i%20, i%19, i%19+1, (i+7)%19, (i+7)%19+1)
		circ, err := eng.Materialize(&pipeline.Request{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(eng.Fingerprint(circ)) == owner {
			out = append(out, src)
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d/%d sources owned by %s", len(out), n, owner)
	}
	return out
}

// TestChaosBlackholedPeerAnswersLocally: with the ring peer fully blackholed
// (connections hang, never answer) and the solver slowed, every request
// still gets an answer — the proxy times out once, the breaker trips, and
// all subsequent peer-owned requests short-circuit straight to the local
// solver without paying the timeout again.
func TestChaosBlackholedPeerAnswersLocally(t *testing.T) {
	const self, peer = "127.0.0.1:1", "127.0.0.1:2"
	inj := faultinject.New(faultinject.Plan{
		Seed:          7,
		PeerBlackhole: 1,
		SolveDelay:    10 * time.Millisecond,
	})
	cfg := serve.Config{
		Spec:            "poughkeepsie",
		Seed:            1,
		Self:            self,
		Peers:           []string{peer},
		PeerTimeout:     100 * time.Millisecond,
		PeerRetries:     -1,
		BreakerFailures: 1,
		BreakerCooldown: time.Minute, // stays open for the whole test
		// The join-time prewarm would also ride (and consume) the injected
		// blackhole; this test budgets faults for the serving path only.
		DisablePrewarm: true,
		Pipeline:       chaosPipeline(),
	}
	inj.Apply(&cfg)
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	sources := ownedSources(t, self, []string{peer}, peer, 3)
	for i, src := range sources {
		resp, err := s.Compile(context.Background(), serve.CompileRequest{Source: src})
		if err != nil {
			t.Fatalf("request %d failed under blackhole: %v", i, err)
		}
		if resp.Tier != serve.TierCold {
			t.Fatalf("request %d tier %q, want cold local fallback", i, resp.Tier)
		}
	}

	st := s.Stats()
	if st.PeerFallbacks != 3 {
		t.Fatalf("peer fallbacks %d, want 3", st.PeerFallbacks)
	}
	// Only the first request paid the blackhole timeout; the rest were
	// short-circuited by the open breaker.
	if st.BreakerShorts != 2 {
		t.Fatalf("breaker short-circuits %d, want 2", st.BreakerShorts)
	}
	br, ok := st.Breakers[peer]
	if !ok || br.State != serve.BreakerOpen || br.Opens != 1 {
		t.Fatalf("breaker state for %s: %+v, want open with 1 trip", peer, br)
	}
	fs := inj.Stats()
	if fs.PeerBlackholes != 1 || fs.SolveDelays != 3 {
		t.Fatalf("injected faults %+v, want 1 blackhole and 3 solve delays", fs)
	}
}

// flipTransport fails every round trip while tripped, else delegates.
type flipTransport struct {
	base http.RoundTripper
	fail atomic.Bool
}

func (f *flipTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if f.fail.Load() {
		return nil, errors.New("flipTransport: injected transport failure")
	}
	return f.base.RoundTrip(r)
}

// TestChaosBreakerRecovers: a peer that fails, trips the breaker, and then
// recovers is probed after the cooldown and taken back into service —
// half-open → closed, with proxying resumed.
func TestChaosBreakerRecovers(t *testing.T) {
	// Real two-node fleet; node 0's transport can be flipped dead.
	listeners := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	flip := &flipTransport{base: serve.NewPeerTransport(0, 0)}
	servers := make([]*serve.Server, 2)
	for i := range servers {
		cfg := serve.Config{
			Spec:     "poughkeepsie",
			Seed:     1,
			Self:     addrs[i],
			Peers:    []string{addrs[1-i]},
			Pipeline: chaosPipeline(),
		}
		if i == 0 {
			cfg.PeerTransport = flip
			cfg.PeerRetries = -1
			cfg.BreakerFailures = 1
			cfg.BreakerCooldown = 30 * time.Millisecond
		}
		s, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = s
		ts := httptest.NewUnstartedServer(s.Handler())
		ts.Listener.Close()
		ts.Listener = listeners[i]
		ts.Start()
		t.Cleanup(ts.Close)
		t.Cleanup(s.Close)
	}

	sources := ownedSources(t, addrs[0], []string{addrs[1]}, addrs[1], 2)

	// Peer down: local fallback, breaker trips.
	flip.fail.Store(true)
	resp, err := servers[0].Compile(context.Background(), serve.CompileRequest{Source: sources[0]})
	if err != nil || resp.Tier != serve.TierCold {
		t.Fatalf("fallback during outage: tier %v err %v, want cold", resp, err)
	}
	if br := servers[0].Stats().Breakers[addrs[1]]; br.State != serve.BreakerOpen {
		t.Fatalf("breaker after outage: %+v, want open", br)
	}

	// Peer recovers; after the cooldown the next request is the half-open
	// probe, succeeds, and re-closes the breaker.
	flip.fail.Store(false)
	time.Sleep(50 * time.Millisecond)
	resp, err = servers[0].Compile(context.Background(), serve.CompileRequest{Source: sources[1]})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Tier != serve.TierPeer {
		t.Fatalf("post-recovery tier %q, want peer (probe proxied)", resp.Tier)
	}
	br := servers[0].Stats().Breakers[addrs[1]]
	if br.State != serve.BreakerClosed || br.Closes != 1 || br.Probes != 1 {
		t.Fatalf("breaker after recovery: %+v, want closed via 1 probe", br)
	}
}

// TestChaosShedWhenSaturated: with one solver slot and no waiting room, a
// second concurrent cold compile is shed with 429 + Retry-After instead of
// queueing, and the first finishes untouched.
func TestChaosShedWhenSaturated(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	s, err := serve.New(serve.Config{
		Spec:          "poughkeepsie",
		Seed:          1,
		MaxConcurrent: 1,
		MaxQueue:      -1, // no waiting room
		Pipeline:      chaosPipeline(),
		SolveHook: func(ctx context.Context) error {
			entered <- struct{}{}
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/compile", "application/json",
			strings.NewReader(fmt.Sprintf(`{"source": %q}`, chaosQASM)))
		if err == nil {
			first <- resp
		}
	}()
	<-entered // the lone solver slot is now held

	second, err := http.Post(ts.URL+"/compile", "application/json",
		strings.NewReader(`{"source": "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[20];\nh q[5];\ncx q[5],q[6];\n"}`))
	if err != nil {
		t.Fatal(err)
	}
	second.Body.Close()
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: HTTP %d, want 429", second.StatusCode)
	}
	if second.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	close(gate)
	resp := <-first
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: HTTP %d, want 200 (shedding must not touch admitted work)", resp.StatusCode)
	}
	if st := s.Stats(); st.Shed != 1 || st.Solves != 1 {
		t.Fatalf("stats shed=%d solves=%d, want 1/1", st.Shed, st.Solves)
	}
}

// TestChaosGracefulDrain: draining finishes the admitted in-flight request
// (zero loss), rejects new work with 503 + Retry-After, flips /readyz to
// not-ready, and leaves no goroutines behind.
func TestChaosGracefulDrain(t *testing.T) {
	baseline := runtime.NumGoroutine()

	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	s, err := serve.New(serve.Config{
		Spec:     "poughkeepsie",
		Seed:     1,
		Pipeline: chaosPipeline(),
		SolveHook: func(ctx context.Context) error {
			entered <- struct{}{}
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	readyz := func() int {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if readyz() != http.StatusOK {
		t.Fatal("server not ready before drain")
	}

	inflight := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/compile", "application/json",
			strings.NewReader(fmt.Sprintf(`{"source": %q}`, chaosQASM)))
		if err == nil {
			inflight <- resp
		}
	}()
	<-entered // request admitted and mid-solve

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	if readyz() != http.StatusServiceUnavailable {
		t.Fatal("/readyz still ready while draining")
	}
	rejected, err := http.Post(ts.URL+"/compile", "application/json",
		strings.NewReader(fmt.Sprintf(`{"source": %q}`, chaosQASM)))
	if err != nil {
		t.Fatal(err)
	}
	rejected.Body.Close()
	if rejected.StatusCode != http.StatusServiceUnavailable || rejected.Header.Get("Retry-After") == "" {
		t.Fatalf("draining rejection: HTTP %d Retry-After %q, want 503 with hint",
			rejected.StatusCode, rejected.Header.Get("Retry-After"))
	}

	// Release the solver: the admitted request must complete successfully —
	// drain loses zero in-flight work.
	close(gate)
	resp := <-inflight
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request lost to drain: HTTP %d", resp.StatusCode)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}

	ts.Close()
	s.Close()
	// No goroutine leaks: everything the request/drain machinery spawned
	// winds down (bounded wait — the HTTP stack needs a beat to exit).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+3 {
		t.Fatalf("goroutine leak after drain: %d running, baseline %d", n, baseline)
	}
}

// TestChaosDeadlineDegradesAndSkipsCache: a caller deadline tighter than the
// configured budget caps the solve (Degraded), the capped artifact is not
// admitted to the caches, and the next unhurried request computes and caches
// the full-budget artifact.
func TestChaosDeadlineDegradesAndSkipsCache(t *testing.T) {
	s, err := serve.New(serve.Config{
		Spec:     "poughkeepsie",
		Seed:     1,
		Pipeline: pipeline.Config{Budget: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	hurried, err := s.Compile(context.Background(), serve.CompileRequest{Source: chaosQASM, DeadlineMS: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if !hurried.Degraded || hurried.Tier != serve.TierCold {
		t.Fatalf("deadline-capped compile: degraded=%v tier=%q, want degraded cold", hurried.Degraded, hurried.Tier)
	}

	// Same fingerprint, no deadline: must recompute (the degraded artifact
	// was kept out of the caches) and come back undegraded.
	relaxed, err := s.Compile(context.Background(), serve.CompileRequest{Source: chaosQASM})
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.Degraded || relaxed.Tier != serve.TierCold {
		t.Fatalf("unhurried recompute: degraded=%v tier=%q, want clean cold solve", relaxed.Degraded, relaxed.Tier)
	}
	if relaxed.Fingerprint != hurried.Fingerprint {
		t.Fatal("deadline must not change the fingerprint")
	}

	// Now it is cached.
	again, err := s.Compile(context.Background(), serve.CompileRequest{Source: chaosQASM})
	if err != nil {
		t.Fatal(err)
	}
	if again.Tier != serve.TierMem {
		t.Fatalf("post-recompute tier %q, want mem", again.Tier)
	}
	if st := s.Stats(); st.Degraded != 1 || st.Solves != 2 {
		t.Fatalf("stats degraded=%d solves=%d, want 1/2", st.Degraded, st.Solves)
	}
}

// TestChaosCorruptedStoreQuarantines: fault-injected disk corruption rides
// the production quarantine path — the checksum catches the flipped byte,
// the entry is quarantined, and the request is answered by a recompile.
func TestChaosCorruptedStoreQuarantines(t *testing.T) {
	dir := t.TempDir()
	s1, err := serve.New(serve.Config{
		Spec:     "poughkeepsie",
		Seed:     1,
		StoreDir: dir,
		Pipeline: chaosPipeline(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s1.Compile(context.Background(), serve.CompileRequest{Source: chaosQASM})
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	inj := faultinject.New(faultinject.Plan{Seed: 1, StoreCorrupt: 1})
	cfg := serve.Config{
		Spec:     "poughkeepsie",
		Seed:     1,
		StoreDir: dir,
		Pipeline: chaosPipeline(),
	}
	inj.Apply(&cfg)
	s2, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	resp, err := s2.Compile(context.Background(), serve.CompileRequest{Source: chaosQASM})
	if err != nil {
		t.Fatalf("corrupted store must not fail the request: %v", err)
	}
	if resp.Tier != serve.TierCold || resp.Fingerprint != cold.Fingerprint || resp.QASM != cold.QASM {
		t.Fatalf("recompile after corruption diverged: tier=%q", resp.Tier)
	}
	st := s2.Stats()
	if st.Store == nil || st.Store.Quarantined != 1 {
		t.Fatalf("corrupted entry not quarantined: %+v", st.Store)
	}
	if fs := inj.Stats(); fs.StoreCorruptions != 1 {
		t.Fatalf("injected corruptions %d, want 1", fs.StoreCorruptions)
	}
}
