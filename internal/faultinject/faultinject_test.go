package faultinject

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"xtalk/internal/serve"
)

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("seed=9, solve.delay=150ms, solve.err=0.25, store.corrupt=0.5, peer.blackhole=1")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{
		Seed:          9,
		SolveDelay:    150 * time.Millisecond,
		SolveErr:      0.25,
		StoreCorrupt:  0.5,
		PeerBlackhole: 1,
	}
	if p != want {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	if p, err := ParsePlan(""); err != nil || p != (Plan{}) {
		t.Fatalf("empty plan must parse to the zero plan: %+v, %v", p, err)
	}
	for _, bad := range []string{
		"bogus=1",          // unknown knob
		"solve.err=1.5",    // probability out of range
		"solve.delay=fast", // unparsable duration
		"seed",             // missing value
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted garbage", bad)
		}
	}
}

// TestDeterminism: two injectors built from the same plan produce the same
// fault sequence — the property the whole rig exists for.
func TestDeterminism(t *testing.T) {
	plan := Plan{Seed: 42, SolveErr: 0.5}
	a, b := New(plan), New(plan)
	ctx := context.Background()
	var divergence bool
	for i := 0; i < 40; i++ {
		ea, eb := a.SolveHook(ctx), b.SolveHook(ctx)
		if (ea == nil) != (eb == nil) {
			divergence = true
		}
		if ea != nil && !errors.Is(ea, ErrSolveFault) {
			t.Fatalf("unexpected solve error: %v", ea)
		}
	}
	if divergence {
		t.Fatal("same seed, different fault sequence")
	}
	sa, sb := a.Stats(), b.Stats()
	if sa != sb || sa.SolveErrors == 0 || sa.SolveErrors == 40 {
		t.Fatalf("stats %+v vs %+v, want identical and non-degenerate", sa, sb)
	}

	// A different seed must (overwhelmingly) give a different sequence.
	c := New(Plan{Seed: 43, SolveErr: 0.5})
	for i := 0; i < 40; i++ {
		c.SolveHook(ctx)
	}
	if c.Stats() == sa {
		t.Log("seed 42 and 43 coincided on 40 draws; suspicious but not fatal")
	}
}

func TestSolveHookDelay(t *testing.T) {
	in := New(Plan{Seed: 1, SolveDelay: 30 * time.Millisecond})
	t0 := time.Now()
	if err := in.SolveHook(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 30*time.Millisecond {
		t.Fatalf("solve delay not applied: %v", d)
	}
	if st := in.Stats(); st.SolveDelays != 1 {
		t.Fatalf("stats %+v, want 1 solve delay", st)
	}
	// A cancelled context cuts the delay short with the context's error.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	in2 := New(Plan{Seed: 1, SolveDelay: time.Minute})
	if err := in2.SolveHook(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled delay returned %v, want deadline exceeded", err)
	}
}

// TestBlackholeHonorsContext: a blackholed transport never answers but
// releases the caller as soon as its context expires — the property the
// server's per-attempt peer timeout depends on.
func TestBlackholeHonorsContext(t *testing.T) {
	in := New(Plan{Seed: 1, PeerBlackhole: 1})
	rt := in.Transport(http.DefaultTransport)
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://203.0.113.1:1/never", nil)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	resp, err := rt.RoundTrip(req)
	if err == nil {
		resp.Body.Close()
		t.Fatal("blackholed round trip returned a response")
	}
	if d := time.Since(t0); d < 25*time.Millisecond || d > 5*time.Second {
		t.Fatalf("blackhole release time %v, want ≈ context deadline", d)
	}
	if st := in.Stats(); st.PeerBlackholes != 1 {
		t.Fatalf("stats %+v, want 1 blackhole", st)
	}
}

// TestApplyOnlyActiveDomains: Apply wires exactly the hooks the plan needs,
// and composes with (rather than replaces) hooks already configured.
func TestApplyOnlyActiveDomains(t *testing.T) {
	var cfg serve.Config
	New(Plan{Seed: 1}).Apply(&cfg)
	if cfg.SolveHook != nil || cfg.PeerTransport != nil || cfg.WrapStore != nil {
		t.Fatal("empty plan must not install any hooks")
	}

	cfg = serve.Config{}
	New(Plan{Seed: 1, SolveErr: 1, PeerErr: 1, StoreErr: 1}).Apply(&cfg)
	if cfg.SolveHook == nil || cfg.PeerTransport == nil || cfg.WrapStore == nil {
		t.Fatal("active plan must install solve, peer, and store hooks")
	}
	if err := cfg.SolveHook(context.Background()); !errors.Is(err, ErrSolveFault) {
		t.Fatalf("solve.err=1 hook returned %v", err)
	}
}

// TestApplyKeepsPeerIdleConns: the default base transport Apply builds
// under the peer faults honors the configured keep-alive pool size.
func TestApplyKeepsPeerIdleConns(t *testing.T) {
	cfg := serve.Config{PeerIdleConns: 7}
	New(Plan{Seed: 1, PeerErr: 1}).Apply(&cfg)
	ft, ok := cfg.PeerTransport.(*faultTransport)
	if !ok {
		t.Fatalf("peer transport %T, want the fault wrapper", cfg.PeerTransport)
	}
	base, ok := ft.base.(*http.Transport)
	if !ok {
		t.Fatalf("base transport %T, want *http.Transport", ft.base)
	}
	if base.MaxIdleConnsPerHost != 7 {
		t.Fatalf("base transport keeps %d idle conns per host, want 7", base.MaxIdleConnsPerHost)
	}
}
