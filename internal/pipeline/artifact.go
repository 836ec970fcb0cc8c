package pipeline

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"

	"xtalk/internal/circuit"
	"xtalk/internal/core"
	"xtalk/internal/device"
	"xtalk/internal/qasm"
)

// CompiledArtifact is the immutable product of one compile-only pass: the
// scheduled program and its metrics, fully decoupled from the engine that
// produced it. Artifacts are what the content-addressed compilation cache
// stores and what the serving layer returns; every field is a plain value,
// so a cached artifact can be handed to any number of concurrent readers.
// Treat it as read-only.
type CompiledArtifact struct {
	// Fingerprint is the content address the artifact was compiled under
	// (see Pipeline.Fingerprint).
	Fingerprint string
	// Device, Seed and Day identify the calibration the schedule targets.
	Device string
	Seed   int64
	Day    int
	// Scheduler names the algorithm that produced the schedule.
	Scheduler string
	// NQubits and Gates describe the compiled circuit (after routing and
	// decomposition, before barrier insertion).
	NQubits int
	Gates   int
	// Makespan is the schedule length in ns.
	Makespan float64
	// Cost is the realized scheduling objective (Eq. 17) at the engine's
	// omega; SolverObjective is the SMT solver's reported objective.
	Cost            float64
	SolverObjective float64
	// Solve quantifies the solver effort behind the schedule.
	Solve core.SolveStats
	// QASM is the compiled output program — the scheduled circuit with
	// barriers enforcing the serialization decisions — as OpenQASM 2.0, the
	// format clients execute.
	QASM string
	// CompileTime is the wall-clock cost of the cold compilation that
	// produced the artifact.
	CompileTime time.Duration
}

// Artifact compiles one request and packages the outcome as an immutable
// CompiledArtifact — the cacheable unit of the serving layer. The request's
// circuit is materialized, canonicalized and fingerprinted first (including
// a per-request Scheduler override, so overridden compiles never alias the
// default scheduler's artifacts), and the canonical form is what compiles:
// every member of the fingerprint's equivalence class yields an artifact
// with the same fingerprint and byte-identical compiled QASM, not just the
// first submission order seen. The compile's statistics join the engine's
// totals like any other. Execution stages (Shots > 0) still run if
// configured, but their outcome is not part of the artifact; serving
// configs are compile-only.
func (p *Pipeline) Artifact(ctx context.Context, req Request) (*CompiledArtifact, error) {
	circ, err := materialize(&req, p.Dev)
	if err != nil {
		return nil, err
	}
	canon := circ.Canonical()
	fp := p.fingerprint(canon, req.Scheduler)
	req.Circuit = canon
	req.Source = ""
	t0 := time.Now()
	res := p.Compile(ctx, req)
	if res.Err != nil {
		return nil, res.Err
	}
	return newArtifact(p, res, fp, time.Since(t0)), nil
}

// Materialize returns the circuit a request submits: the pre-built Circuit,
// or the parsed Source (OpenQASM 2.0 when it contains an OPENQASM
// declaration, the library's gate-list format otherwise). It is the same
// logic the parse stage runs, exposed so callers can fingerprint a request
// before deciding whether to compile it.
func (p *Pipeline) Materialize(req *Request) (*circuit.Circuit, error) {
	return materialize(req, p.Dev)
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
func (p *Pipeline) Fingerprint(circ *circuit.Circuit) string {
	return p.fingerprint(circ, nil)
}

func (p *Pipeline) fingerprint(circ *circuit.Circuit, reqSched core.Scheduler) string {
	h := sha256.New()
	h.Write(circ.Encode())
	h.Write(p.fpEngine)
	if reqSched != nil {
		fmt.Fprintf(h, "|reqsched=%s", reqSched.Name())
	}
	h.Write(p.fpNoise)
	return hex.EncodeToString(h.Sum(nil))
}

// initFingerprint computes the engine's fixed fingerprint inputs. Nothing
// they cover changes after construction, so they never go stale.
func (p *Pipeline) initFingerprint() {
	var b bytes.Buffer
	fmt.Fprintf(&b, "|dev=%s;seed=%d;day=%d", p.Dev.Name, p.Dev.Seed, p.Dev.Day)
	fmt.Fprintf(&b, "|thr=%g;omega=%g;budget=%d;part=%t;win=%d;port=%t;route=%t;swaps=%t",
		p.cfg.Threshold, p.cfg.Omega, p.cfg.Budget,
		p.cfg.Partition, p.cfg.WindowGates, p.cfg.Portfolio,
		p.cfg.Route, p.cfg.DecomposeSwaps)
	p.fpEngine = b.Bytes()
	p.fpNoise = noiseDigest(p.Noise)
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

// newArtifact freezes a successful compile Result into an artifact.
func newArtifact(p *Pipeline, res *Result, fp string, elapsed time.Duration) *CompiledArtifact {
	a := &CompiledArtifact{
		Fingerprint: fp,
		Device:      string(p.Dev.Name),
		Seed:        p.Dev.Seed,
		Day:         p.Dev.Day,
		CompileTime: elapsed,
	}
	if res.Circuit != nil {
		a.NQubits = res.Circuit.NQubits
		a.Gates = len(res.Circuit.Gates)
	}
	if s := res.Schedule; s != nil {
		a.Scheduler = s.Scheduler
		a.Makespan = s.Makespan()
		a.Cost = s.Cost(p.Noise, p.omega())
		a.SolverObjective = s.SolverObjective
		a.Solve = s.Stats
	}
	if res.Barriered != nil {
		a.QASM = qasm.Dump(res.Barriered)
	} else if res.Circuit != nil {
		a.QASM = qasm.Dump(res.Circuit)
	}
	return a
}

// SizeBytes estimates the artifact's memory footprint for cache accounting:
// the dominant term is the QASM payload, plus a fixed overhead for the
// struct and its strings.
func (a *CompiledArtifact) SizeBytes() int64 {
	return int64(len(a.QASM)) + int64(len(a.Fingerprint)) +
		int64(len(a.Device)) + int64(len(a.Scheduler)) + 256
}

// materialize resolves a request to its circuit IR (see
// Pipeline.Materialize).
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
