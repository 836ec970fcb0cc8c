// Package faultinject is the deterministic, seeded fault layer behind the
// serving stack's chaos tests and `xtalkload -chaos` / `xtalkd -faults`.
// One Injector, built from a Plan, wraps the three failure domains of a
// fleet daemon:
//
//   - the solver, through serve.Config.SolveHook (latency and error
//     injection — a 10x-slow or flaky SMT backend);
//   - the disk tier, through serve.Config.WrapStore (latency, write errors,
//     and on-disk corruption that must trip the store's checksum quarantine);
//   - the peer transport, through serve.Config.PeerTransport (latency,
//     transport errors, and blackholes — a peer that accepts nothing and
//     answers nothing, only a hung connection).
//
// Faults are drawn from one seeded PRNG under a mutex, so a fixed Plan and
// a fixed sequence of decisions replays identically — chaos tests assert
// exact outcomes, not flake rates. Counters record every injected fault for
// assertions and operator logs.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xtalk/internal/pipeline"
	"xtalk/internal/serve"
)

// Plan is a seeded fault schedule: per-domain latency plus fault
// probabilities in [0, 1]. The zero Plan injects nothing.
type Plan struct {
	// Seed seeds the injector's PRNG (0 is a valid, fixed seed).
	Seed int64

	// SolveDelay stalls every cold solve; SolveErr fails it with that
	// probability (after the delay).
	SolveDelay time.Duration
	SolveErr   float64

	// StoreDelay stalls every disk-tier Get/Put. StoreErr fails Puts (and
	// turns Gets into misses) with that probability. StoreCorrupt flips one
	// byte of the on-disk entry before a Get with that probability — the
	// store's checksum must catch it and quarantine the entry.
	StoreDelay   time.Duration
	StoreErr     float64
	StoreCorrupt float64

	// PeerDelay stalls every peer-proxy round trip. PeerErr fails it with a
	// transport error; PeerBlackhole hangs it until the request context
	// expires (a peer that went dark without closing connections).
	PeerDelay     time.Duration
	PeerErr       float64
	PeerBlackhole float64
}

// ParsePlan parses the -faults flag grammar: a comma-separated list of
// key=value pairs. Keys: seed (int), solve.delay / store.delay / peer.delay
// (Go durations), solve.err / store.err / store.corrupt / peer.err /
// peer.blackhole (probabilities in [0, 1]). Example:
//
//	seed=7,solve.delay=200ms,store.corrupt=0.3,peer.blackhole=1
func ParsePlan(s string) (Plan, error) {
	var p Plan
	s = strings.TrimSpace(s)
	if s == "" {
		return p, nil
	}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return p, fmt.Errorf("faultinject: %q: want key=value", field)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		case "solve.delay":
			p.SolveDelay, err = time.ParseDuration(val)
		case "solve.err":
			p.SolveErr, err = parseProb(val)
		case "store.delay":
			p.StoreDelay, err = time.ParseDuration(val)
		case "store.err":
			p.StoreErr, err = parseProb(val)
		case "store.corrupt":
			p.StoreCorrupt, err = parseProb(val)
		case "peer.delay":
			p.PeerDelay, err = time.ParseDuration(val)
		case "peer.err":
			p.PeerErr, err = parseProb(val)
		case "peer.blackhole":
			p.PeerBlackhole, err = parseProb(val)
		default:
			return p, fmt.Errorf("faultinject: unknown key %q", key)
		}
		if err != nil {
			return p, fmt.Errorf("faultinject: %s: %w", key, err)
		}
	}
	return p, nil
}

func parseProb(val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if f < 0 || f > 1 {
		return 0, fmt.Errorf("probability %g outside [0, 1]", f)
	}
	return f, nil
}

// Stats is a snapshot of the faults an Injector has actually injected.
type Stats struct {
	SolveDelays      int64 `json:"solve_delays"`
	SolveErrors      int64 `json:"solve_errors"`
	StoreErrors      int64 `json:"store_errors"`
	StoreCorruptions int64 `json:"store_corruptions"`
	PeerErrors       int64 `json:"peer_errors"`
	PeerBlackholes   int64 `json:"peer_blackholes"`
}

// String renders the non-zero counters for operator logs.
func (st Stats) String() string {
	parts := map[string]int64{
		"solve.delays": st.SolveDelays, "solve.errors": st.SolveErrors,
		"store.errors": st.StoreErrors, "store.corruptions": st.StoreCorruptions,
		"peer.errors": st.PeerErrors, "peer.blackholes": st.PeerBlackholes,
	}
	keys := make([]string, 0, len(parts))
	for k, v := range parts {
		if v > 0 {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return "no faults injected"
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteString("  ")
		}
		fmt.Fprintf(&sb, "%s=%d", k, parts[k])
	}
	return sb.String()
}

// Injector draws faults from one seeded PRNG and wires them into a
// serve.Config. All methods are safe for concurrent use; determinism holds
// per decision sequence (single-threaded tests replay exactly).
type Injector struct {
	plan Plan

	mu  sync.Mutex
	rng *rand.Rand

	solveDelays, solveErrs   atomic.Int64
	storeErrs, storeCorrupts atomic.Int64
	peerErrs, peerBlackholes atomic.Int64
}

// New builds an Injector over plan.
func New(plan Plan) *Injector {
	return &Injector{plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// Plan returns the schedule the injector was built with.
func (in *Injector) Plan() Plan { return in.plan }

// Stats snapshots the injected-fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		SolveDelays:      in.solveDelays.Load(),
		SolveErrors:      in.solveErrs.Load(),
		StoreErrors:      in.storeErrs.Load(),
		StoreCorruptions: in.storeCorrupts.Load(),
		PeerErrors:       in.peerErrs.Load(),
		PeerBlackholes:   in.peerBlackholes.Load(),
	}
}

// Apply wires the injector's active domains into cfg: SolveHook,
// PeerTransport (wrapping the existing transport, or the default one built
// from cfg.PeerTimeout and cfg.PeerIdleConns) and WrapStore. Domains the plan leaves at zero are
// not touched, so an empty plan leaves cfg unchanged.
func (in *Injector) Apply(cfg *serve.Config) {
	p := in.plan
	if p.SolveDelay > 0 || p.SolveErr > 0 {
		cfg.SolveHook = in.SolveHook
	}
	if p.PeerDelay > 0 || p.PeerErr > 0 || p.PeerBlackhole > 0 {
		base := cfg.PeerTransport
		if base == nil {
			base = serve.NewPeerTransport(cfg.PeerTimeout, cfg.PeerIdleConns)
		}
		cfg.PeerTransport = in.Transport(base)
	}
	if p.StoreDelay > 0 || p.StoreErr > 0 || p.StoreCorrupt > 0 {
		cfg.WrapStore = in.WrapStore
	}
}

// roll draws one uniform [0, 1) variate from the seeded PRNG.
func (in *Injector) roll() float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Float64()
}

// hit reports whether a fault with probability p fires. p >= 1 always
// fires without consuming a variate, so "always on" faults do not perturb
// the draw sequence of the probabilistic ones.
func (in *Injector) hit(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return in.roll() < p
}

// sleep blocks for d, honoring ctx.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ErrSolveFault is the injected solver failure.
var ErrSolveFault = errors.New("faultinject: injected solver fault")

// SolveHook is the serve.Config.SolveHook implementation: stall by
// SolveDelay (honoring ctx — the server passes its lifecycle context, so a
// fault-slowed solve still finishes unless the daemon shuts down), then fail
// with probability SolveErr.
func (in *Injector) SolveHook(ctx context.Context) error {
	if in.plan.SolveDelay > 0 {
		in.solveDelays.Add(1)
		if err := sleep(ctx, in.plan.SolveDelay); err != nil {
			return err
		}
	}
	if in.hit(in.plan.SolveErr) {
		in.solveErrs.Add(1)
		return ErrSolveFault
	}
	return nil
}

// Transport wraps base with the plan's peer faults.
func (in *Injector) Transport(base http.RoundTripper) http.RoundTripper {
	return &faultTransport{in: in, base: base}
}

type faultTransport struct {
	in   *Injector
	base http.RoundTripper
}

func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	in := t.in
	if in.hit(in.plan.PeerBlackhole) {
		// A blackholed peer neither answers nor refuses: the attempt hangs
		// until the caller's per-attempt timeout fires. The request is never
		// forwarded, so the peer sees nothing.
		in.peerBlackholes.Add(1)
		<-req.Context().Done()
		return nil, fmt.Errorf("faultinject: peer blackhole: %w", req.Context().Err())
	}
	if err := sleep(req.Context(), in.plan.PeerDelay); err != nil {
		return nil, err
	}
	if in.hit(in.plan.PeerErr) {
		in.peerErrs.Add(1)
		return nil, errors.New("faultinject: injected peer transport error")
	}
	return t.base.RoundTrip(req)
}

// entryPather is the store seam corruption needs: the real serve.Store
// exposes its live entry files through it. Wrapped stores without it
// (memory-only fakes) simply cannot be corrupted.
type entryPather interface {
	EntryPath(fp string) (string, bool)
}

// WrapStore decorates s with the plan's disk-tier faults; it is the
// serve.Config.WrapStore implementation.
func (in *Injector) WrapStore(s serve.ArtifactStore) serve.ArtifactStore {
	return &faultStore{ArtifactStore: s, in: in}
}

type faultStore struct {
	serve.ArtifactStore
	in *Injector
}

func (f *faultStore) Get(fp string) (*pipeline.CompiledArtifact, bool) {
	in := f.in
	_ = sleep(context.Background(), in.plan.StoreDelay)
	if in.hit(in.plan.StoreCorrupt) {
		// Flip one byte of the real on-disk entry, then let the real Get
		// run: the store's checksum verification must detect the damage and
		// quarantine the entry — the fault exercises the production path,
		// not a simulation of it.
		if ep, ok := f.ArtifactStore.(entryPather); ok {
			if path, ok := ep.EntryPath(fp); ok && corruptFile(path) {
				in.storeCorrupts.Add(1)
			}
		}
	}
	if in.hit(in.plan.StoreErr) {
		in.storeErrs.Add(1)
		return nil, false
	}
	return f.ArtifactStore.Get(fp)
}

func (f *faultStore) Put(fp string, art *pipeline.CompiledArtifact) error {
	in := f.in
	_ = sleep(context.Background(), in.plan.StoreDelay)
	if in.hit(in.plan.StoreErr) {
		in.storeErrs.Add(1)
		return errors.New("faultinject: injected store write error")
	}
	return f.ArtifactStore.Put(fp, art)
}

// corruptFile flips one byte in the middle of the file at path, reporting
// whether it actually damaged anything.
func corruptFile(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		return false
	}
	data[len(data)/2] ^= 0xFF
	return os.WriteFile(path, data, 0o644) == nil
}
