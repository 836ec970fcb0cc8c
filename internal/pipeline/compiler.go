package pipeline

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xtalk/internal/circuit"
	"xtalk/internal/core"
	"xtalk/internal/device"
)

// Compiler is the reusable compilation engine behind Pipeline: one device,
// one noise input, one stage stack, shared by any number of concurrent
// compilations. All of its state is set at construction and never mutated
// afterwards, so every method is safe for unbounded concurrent use — the
// property the serving layer (internal/serve) relies on. Per-request
// statistics (stage timings, solver effort) ride on each Result instead of
// accumulating in the engine; use Pipeline when you want cross-request
// aggregation.
type Compiler struct {
	Dev   *device.Device
	Noise *core.NoiseData

	cfg       Config
	sched     core.Scheduler
	autoSched bool // sched was derived from cfg; WithNoise rebuilds it
	stages    []stage
	// pool bounds concurrent SMT window solves across the whole engine:
	// when a batch compiles many circuits with the partitioned engine, all
	// their windows contend for the same Config.Workers-sized pool.
	pool *core.SolvePool
	// fpEngine and fpNoise are the engine's fixed fingerprint inputs — the
	// device, configuration and scheduler identity, and the noise digest —
	// computed once at construction instead of on every fingerprint.
	fpEngine, fpNoise []byte
}

// NewCompiler builds a compilation engine over dev. See Config for the
// knobs; the zero Config is a compile-only ground-truth-noise XtalkSched
// engine.
func NewCompiler(dev *device.Device, cfg Config) *Compiler {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 3
	}
	nd := cfg.Noise
	if nd == nil {
		nd = GroundTruthNoise(dev, cfg.Threshold)
	}
	c := &Compiler{Dev: dev, Noise: nd, cfg: cfg}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	c.pool = core.NewSolvePool(workers)
	c.sched = cfg.Scheduler
	if c.sched == nil {
		c.sched = c.buildScheduler()
		c.autoSched = true
	}
	c.stages = defaultStages(cfg)
	c.initFingerprint()
	return c
}

// Config returns the configuration the engine was built with (Threshold
// normalized).
func (c *Compiler) Config() Config { return c.cfg }

func (c *Compiler) buildScheduler() core.Scheduler {
	xc := core.DefaultXtalkConfig()
	if c.cfg.Omega > 0 {
		xc.Omega = c.cfg.Omega
	} else if c.cfg.Omega < 0 {
		xc.Omega = 0
	}
	xc.Timeout = c.cfg.Budget
	if !c.cfg.Partition && !c.cfg.Portfolio {
		return core.NewXtalkSched(c.Noise, xc)
	}
	part := core.NewPartitionedXtalkSched(c.Noise, xc, core.PartitionOpts{MaxWindowGates: c.cfg.WindowGates})
	part.Pool = c.pool
	if c.cfg.Portfolio {
		return &core.PortfolioSched{
			Noise: c.Noise,
			Omega: part.Config.Omega,
			Candidates: []core.Scheduler{
				&core.HeuristicXtalkSched{Noise: c.Noise, Omega: part.Config.Omega},
				part,
			},
		}
	}
	return part
}

// omega resolves the crosstalk weight the engine's default scheduler and
// cost reports use (Config.Omega conventions: 0 = paper default, negative =
// true omega 0).
func (c *Compiler) omega() float64 {
	if c.cfg.Omega > 0 {
		return c.cfg.Omega
	}
	if c.cfg.Omega < 0 {
		return 0
	}
	return core.DefaultXtalkConfig().Omega
}

// Scheduler returns the scheduler a request will use: its own override or
// the engine default.
func (c *Compiler) Scheduler(req *Request) core.Scheduler {
	if req.Scheduler != nil {
		return req.Scheduler
	}
	return c.sched
}

// WithNoise returns a new engine identical to c but consuming nd as the
// scheduler input. The default scheduler is rebuilt over nd; an explicitly
// configured library scheduler (XtalkSched, PartitionedXtalkSched,
// HeuristicXtalkSched, or a PortfolioSched of them) is rebuilt with its own
// config; other scheduler types are kept as-is with their construction-time
// noise. The solve pool is shared with c.
func (c *Compiler) WithNoise(nd *core.NoiseData) *Compiler {
	out := &Compiler{
		Dev:       c.Dev,
		Noise:     nd,
		cfg:       c.cfg,
		autoSched: c.autoSched,
		stages:    c.stages,
		pool:      c.pool,
	}
	if c.autoSched {
		out.sched = out.buildScheduler()
	} else {
		out.sched = out.rebuildOnNoise(c.sched)
	}
	out.initFingerprint()
	return out
}

// rebuildOnNoise returns s reconstructed over the engine's noise data when
// its concrete type is one of the library's noise-consuming schedulers (the
// SMT engines, the greedy heuristic, and portfolios of them, rebuilt
// candidate by candidate). Unknown scheduler types are returned unchanged —
// they keep their construction-time noise, as WithNoise documents.
func (c *Compiler) rebuildOnNoise(s core.Scheduler) core.Scheduler {
	switch sc := s.(type) {
	case *core.XtalkSched:
		return core.NewXtalkSched(c.Noise, sc.Config)
	case *core.PartitionedXtalkSched:
		rebuilt := core.NewPartitionedXtalkSched(c.Noise, sc.Config, sc.Opts)
		rebuilt.Pool = sc.Pool
		return rebuilt
	case *core.HeuristicXtalkSched:
		return &core.HeuristicXtalkSched{Noise: c.Noise, Omega: sc.Omega}
	case *core.PortfolioSched:
		cands := make([]core.Scheduler, len(sc.Candidates))
		for i, cand := range sc.Candidates {
			cands[i] = c.rebuildOnNoise(cand)
		}
		return &core.PortfolioSched{Noise: c.Noise, Omega: sc.Omega, Candidates: cands}
	default:
		return s
	}
}

// Compile runs one request through the stage stack. The returned Result
// always carries the request tag; Err records the first failing stage. All
// statistics — per-stage timings and solver effort — are request-local on
// the Result: Compile touches no shared mutable state, so any number of
// Compiles may run concurrently on one engine.
func (c *Compiler) Compile(ctx context.Context, req Request) *Result {
	res := &Result{Tag: req.Tag, Req: req, Circuit: req.Circuit}
	for _, st := range c.stages {
		if err := ctx.Err(); err != nil {
			res.Err = err
			break
		}
		t0 := time.Now()
		err := st.Run(ctx, c, res)
		res.Timings = append(res.Timings, StageTiming{Stage: st.Name(), Elapsed: time.Since(t0), Failed: err != nil})
		if err != nil {
			res.Err = fmt.Errorf("stage %s: %w", st.Name(), err)
			break
		}
	}
	return res
}

// CompileBatch compiles every request concurrently over a bounded worker
// pool (Config.Workers, default GOMAXPROCS) and returns results in request
// order. Item failures are fail-soft: each Result carries its own Err and
// never aborts siblings. Canceling ctx aborts in-flight SMT searches within
// one conflict-check interval and marks all unstarted items with the
// context's error, so CompileBatch returns promptly with partial results.
func (c *Compiler) CompileBatch(ctx context.Context, reqs []Request) []*Result {
	return c.compileBatch(ctx, reqs, nil)
}

// compileBatch is CompileBatch with a per-item completion hook (called from
// worker goroutines; Pipeline uses it to absorb stats as items finish).
func (c *Compiler) compileBatch(ctx context.Context, reqs []Request, onDone func(*Result)) []*Result {
	out := make([]*Result, len(reqs))
	workers := c.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(reqs) {
					return
				}
				if err := ctx.Err(); err != nil {
					// Canceled: drain the remaining queue without compiling
					// so callers get one tagged result per request.
					out[i] = &Result{Tag: reqs[i].Tag, Req: reqs[i], Err: err}
				} else {
					out[i] = c.Compile(ctx, reqs[i])
				}
				if onDone != nil {
					onDone(out[i])
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// Materialize returns the circuit a request submits: the pre-built Circuit,
// or the parsed Source (OpenQASM 2.0 when it contains an OPENQASM
// declaration, the library's gate-list format otherwise). It is the same
// logic the parse stage runs, exposed so callers can fingerprint a request
// before deciding whether to compile it.
func (c *Compiler) Materialize(req *Request) (*circuit.Circuit, error) {
	return materialize(req, c.Dev)
}

// Fingerprint returns the content address of compiling circ on this engine:
// a SHA-256 (hex) over the circuit's canonical encoding, the device
// identity (canonical spec name, calibration seed and day), the
// compile-relevant configuration, and a digest of the scheduler's noise
// input. Two compilations with equal fingerprints produce interchangeable
// artifacts — semantically identical circuits hash identically regardless
// of gate-append order — and any divergence in device, calibration day,
// noise data, scheduler choice or compile knobs changes the hash. Execution
// knobs (Shots, Mitigate, per-request Seed) are deliberately excluded: the
// fingerprint addresses the compile-only artifact. A per-request scheduler
// override is part of the address too — see the Artifact path.
func (c *Compiler) Fingerprint(circ *circuit.Circuit) string {
	return c.fingerprint(circ, nil)
}

func (c *Compiler) fingerprint(circ *circuit.Circuit, reqSched core.Scheduler) string {
	h := sha256.New()
	h.Write(circ.Encode())
	h.Write(c.fpEngine)
	if reqSched != nil {
		fmt.Fprintf(h, "|reqsched=%s", reqSched.Name())
	}
	h.Write(c.fpNoise)
	return hex.EncodeToString(h.Sum(nil))
}

// initFingerprint computes the engine's fixed fingerprint inputs. The
// engine is immutable after construction, so they never go stale.
func (c *Compiler) initFingerprint() {
	var b bytes.Buffer
	fmt.Fprintf(&b, "|dev=%s;seed=%d;day=%d", c.Dev.Name, c.Dev.Seed, c.Dev.Day)
	fmt.Fprintf(&b, "|thr=%g;omega=%g;budget=%d;part=%t;win=%d;port=%t;route=%t;swaps=%t",
		c.cfg.Threshold, c.cfg.Omega, c.cfg.Budget,
		c.cfg.Partition, c.cfg.WindowGates, c.cfg.Portfolio,
		c.cfg.Route, c.cfg.DecomposeSwaps)
	if c.cfg.Scheduler != nil {
		fmt.Fprintf(&b, "|sched=%s", c.cfg.Scheduler.Name())
	}
	c.fpEngine = b.Bytes()
	c.fpNoise = noiseDigest(c.Noise)
}

// noiseDigest hashes a NoiseData deterministically (sorted edge order), so
// engines whose noise input differs — ground truth at another threshold, a
// characterization campaign's estimates, another calibration day — produce
// distinct fingerprints.
func noiseDigest(nd *core.NoiseData) []byte {
	h := sha256.New()
	edges := make([]device.Edge, 0, len(nd.Independent))
	for e := range nd.Independent {
		edges = append(edges, e)
	}
	sortEdges(edges)
	var buf [8]byte
	writeF := func(v float64) {
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, e := range edges {
		fmt.Fprintf(h, "i%d-%d", e.A, e.B)
		writeF(nd.Independent[e])
	}
	conds := make([]device.Edge, 0, len(nd.Conditional))
	for e := range nd.Conditional {
		conds = append(conds, e)
	}
	sortEdges(conds)
	for _, gi := range conds {
		inner := make([]device.Edge, 0, len(nd.Conditional[gi]))
		for e := range nd.Conditional[gi] {
			inner = append(inner, e)
		}
		sortEdges(inner)
		for _, gj := range inner {
			fmt.Fprintf(h, "c%d-%d|%d-%d", gi.A, gi.B, gj.A, gj.B)
			writeF(nd.Conditional[gi][gj])
		}
	}
	for _, v := range nd.Coherence {
		writeF(v)
	}
	return h.Sum(nil)
}

func sortEdges(edges []device.Edge) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].A != edges[j].A {
			return edges[i].A < edges[j].A
		}
		return edges[i].B < edges[j].B
	})
}

// Artifact compiles one request and packages the outcome as an immutable
// CompiledArtifact — the cacheable unit of the serving layer. The request's
// circuit is materialized, canonicalized and fingerprinted first (including
// a per-request Scheduler override, so overridden compiles never alias the
// default scheduler's artifacts), so semantically identical submissions
// yield artifacts with identical fingerprints and identical compiled QASM.
// Execution stages (Shots > 0) still run if configured, but their outcome
// is not part of the artifact; serving configs are compile-only.
func (c *Compiler) Artifact(ctx context.Context, req Request) (*CompiledArtifact, error) {
	return artifactVia(ctx, req, c, c.Compile)
}

// artifactVia is the shared artifact path of Compiler.Artifact and
// Pipeline.Artifact: canonicalize, fingerprint, compile through run, freeze.
// Compiling the canonical form makes the artifact byte-deterministic for
// every member of the fingerprint's equivalence class, not just for the
// first submission order seen.
func artifactVia(ctx context.Context, req Request, c *Compiler, run func(context.Context, Request) *Result) (*CompiledArtifact, error) {
	circ, err := materialize(&req, c.Dev)
	if err != nil {
		return nil, err
	}
	canon := circ.Canonical()
	fp := c.fingerprint(canon, req.Scheduler)
	req.Circuit = canon
	req.Source = ""
	t0 := time.Now()
	res := run(ctx, req)
	if res.Err != nil {
		return nil, res.Err
	}
	return newArtifact(c, res, fp, time.Since(t0)), nil
}

// materialize resolves a request to its circuit IR (see
// Compiler.Materialize).
func materialize(req *Request, dev *device.Device) (*circuit.Circuit, error) {
	if req.Circuit != nil {
		return req.Circuit, checkFits(req.Circuit, dev)
	}
	if req.Source == "" {
		return nil, errNoInput
	}
	c, err := parseSource(req.Source, dev)
	if err != nil {
		return nil, err
	}
	return c, checkFits(c, dev)
}
