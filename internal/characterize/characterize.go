// Package characterize orchestrates crosstalk characterization campaigns
// over a device (paper Section 5): simultaneous-RB measurements across CNOT
// pairs, with the three cost optimizations —
//
//	Opt 1: measure only pairs separated by 1 hop;
//	Opt 2: pack independent (>= 2 hops apart) pairs into parallel
//	       experiments via randomized first-fit bin packing;
//	Opt 3: restrict daily refresh to the known high-crosstalk pairs.
//
// It reports experiment counts and machine-time estimates (Figure 10) and
// produces the conditional-error estimates the scheduler consumes.
package characterize

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xtalk/internal/core"
	"xtalk/internal/device"
	"xtalk/internal/rb"
)

// Policy selects which pairs a campaign measures and how experiments are
// batched.
type Policy int

// Characterization policies, in the paper's Figure 10 order.
const (
	// AllPairs measures every simultaneous CNOT pair, one at a time.
	AllPairs Policy = iota
	// OneHop measures only 1-hop separated pairs (Opt 1).
	OneHop
	// OneHopBinPacked parallelizes 1-hop pairs >= 2 hops apart (Opt 2).
	OneHopBinPacked
	// HighCrosstalkOnly refreshes only known high-crosstalk pairs, bin
	// packed (Opt 3).
	HighCrosstalkOnly
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case AllPairs:
		return "all-pairs"
	case OneHop:
		return "one-hop"
	case OneHopBinPacked:
		return "one-hop+binpack"
	case HighCrosstalkOnly:
		return "high-crosstalk-only"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy maps a policy's String form back to the Policy (the CLI
// flag parser).
func ParsePolicy(s string) (Policy, error) {
	for _, p := range []Policy{AllPairs, OneHop, OneHopBinPacked, HighCrosstalkOnly} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q (want all-pairs|one-hop|one-hop+binpack|high-crosstalk-only)", s)
}

// Plan is a batched measurement schedule: each batch is a set of pairs whose
// SRB experiments run in parallel on the device.
type Plan struct {
	Policy  Policy
	Batches [][]device.EdgePair
}

// NumExperiments returns the number of device experiment slots (batches).
func (p *Plan) NumExperiments() int { return len(p.Batches) }

// NumPairs returns the total pairs measured.
func (p *Plan) NumPairs() int {
	n := 0
	for _, b := range p.Batches {
		n += len(b)
	}
	return n
}

// MachineTime estimates device compute time for the plan given the RB
// experiment shape. Per batch, SRB runs cfg.TotalExecutions() trials for
// each of the two directions; each trial costs ExecutionTime.
func (p *Plan) MachineTime(cfg rb.Config) time.Duration {
	perBatch := time.Duration(float64(cfg.TotalExecutions()) * 2 * float64(ExecutionTime))
	return time.Duration(p.NumExperiments()) * perBatch
}

// ExecutionTime is the modeled wall-clock cost of one hardware trial
// (circuit load + execution + readout). Chosen so that the all-pairs policy
// on a 20-qubit device costs ~8 hours, matching the paper's Section 4.2
// measurement ("22.6M executions and over 8 hours").
const ExecutionTime = 100 * time.Microsecond

// BuildPlan constructs the measurement plan for a policy on a device.
// highPairs is consulted only by HighCrosstalkOnly (pass the previously
// detected pair set). The bin-packing seed controls first-fit shuffling.
func BuildPlan(dev *device.Device, policy Policy, highPairs []device.EdgePair, seed int64) *Plan {
	topo := dev.Topo
	var pairs []device.EdgePair
	switch policy {
	case AllPairs:
		pairs = topo.SimultaneousPairs()
	case OneHop, OneHopBinPacked:
		pairs = topo.PairsAtDistance(1)
	case HighCrosstalkOnly:
		pairs = append(pairs, highPairs...)
	}
	plan := &Plan{Policy: policy}
	if policy == AllPairs || policy == OneHop {
		for _, p := range pairs {
			plan.Batches = append(plan.Batches, []device.EdgePair{p})
		}
		return plan
	}
	plan.Batches = BinPack(topo, pairs, 2, 50, seed)
	return plan
}

// BinPack partitions gate pairs into a minimal number of parallel batches
// using the paper's randomized first-fit heuristic (Section 5.2, Opt 2): a
// pair is compatible with a batch iff it is at least minHops away from every
// pair already in the batch. The list is shuffled 'restarts' times and the
// best packing kept.
func BinPack(topo *device.Topology, pairs []device.EdgePair, minHops, restarts int, seed int64) [][]device.EdgePair {
	if len(pairs) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	var best [][]device.EdgePair
	for r := 0; r < restarts; r++ {
		order := make([]device.EdgePair, len(pairs))
		copy(order, pairs)
		if r > 0 {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		var bins [][]device.EdgePair
		for _, p := range order {
			placed := false
			for bi := range bins {
				if compatible(topo, bins[bi], p, minHops) {
					bins[bi] = append(bins[bi], p)
					placed = true
					break
				}
			}
			if !placed {
				bins = append(bins, []device.EdgePair{p})
			}
		}
		if best == nil || len(bins) < len(best) {
			best = bins
		}
	}
	return best
}

// compatible reports whether pair p can join the batch: every gate of p must
// be at least minHops from every gate of every resident pair, and no qubit
// may be reused.
func compatible(topo *device.Topology, batch []device.EdgePair, p device.EdgePair, minHops int) bool {
	for _, q := range batch {
		for _, e1 := range []device.Edge{p.First, p.Second} {
			for _, e2 := range []device.Edge{q.First, q.Second} {
				if e1.SharesQubit(e2) {
					return false
				}
				if d := topo.GateDistance(e1, e2); d >= 0 && d < minHops {
					return false
				}
			}
		}
	}
	return true
}

// Measurement is one pair's SRB result.
type Measurement struct {
	Pair device.EdgePair
	// CondFirst is E(First|Second); CondSecond is E(Second|First).
	CondFirst, CondSecond float64
	// IndepFirst / IndepSecond are the standalone RB estimates.
	IndepFirst, IndepSecond float64
}

// Report is the outcome of a characterization campaign.
type Report struct {
	Device       device.SystemName
	Policy       Policy
	Plan         *Plan
	Measurements []Measurement
	// MachineTime is the modeled device time consumed.
	MachineTime time.Duration
}

// MinResolvableError is the RB estimator's resolution floor: independent
// error estimates below it are clamped before threshold comparisons, so a
// noisy near-zero estimate cannot turn an ordinary pair into a false
// positive. (The paper's full-size experiments — 100 sequences x 1024
// trials — resolve rates well below this; scaled-down campaigns do not.)
const MinResolvableError = 0.004

// HighCrosstalkPairs extracts the pairs whose measured conditional error
// exceeds threshold (paper: 3x) times the measured independent error
// (clamped to the estimator's resolution floor).
func (r *Report) HighCrosstalkPairs(threshold float64) []device.EdgePair {
	var out []device.EdgePair
	for _, m := range r.Measurements {
		if m.CondFirst > threshold*clampRes(m.IndepFirst) || m.CondSecond > threshold*clampRes(m.IndepSecond) {
			out = append(out, m.Pair)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

func clampRes(v float64) float64 {
	if v < MinResolvableError {
		return MinResolvableError
	}
	return v
}

// Run executes the campaign: independent RB per involved edge, then SRB per
// planned pair (batches model hardware parallelism: they cost one experiment
// slot each but the measurements are identical to serial execution, since
// >= 2-hop separation guarantees non-interference on these devices).
//
// Each experiment's seed is assigned in plan order, as a serial campaign
// draws them; the experiments then run on GOMAXPROCS workers and the
// report is collected in plan order, so it does not depend on the worker
// count.
func Run(dev *device.Device, policy Policy, highPairs []device.EdgePair, cfg rb.Config) (*Report, error) {
	plan := BuildPlan(dev, policy, highPairs, cfg.Seed)
	rep := &Report{Device: dev.Name, Policy: policy, Plan: plan, MachineTime: plan.MachineTime(cfg)}
	// experiment is one RB run: independent RB of pair.First, or SRB of
	// pair. est holds the CNOT error estimates it returns.
	type experiment struct {
		pair device.EdgePair
		srb  bool
		seed int64
		est  [2]float64
		err  error
	}
	var exps []experiment
	indep := map[device.Edge]int{} // edge -> its independent experiment
	edgeSeed, pairSeed := cfg.Seed, cfg.Seed+1_000_000
	for _, batch := range plan.Batches {
		for _, p := range batch {
			for _, e := range []device.Edge{p.First, p.Second} {
				if _, ok := indep[e]; !ok {
					edgeSeed++
					indep[e] = len(exps)
					exps = append(exps, experiment{pair: device.EdgePair{First: e}, seed: edgeSeed})
				}
			}
			pairSeed++
			exps = append(exps, experiment{pair: p, srb: true, seed: pairSeed})
		}
	}
	parallelFor(len(exps), func(i int) {
		x := &exps[i]
		c := cfg
		c.Seed = x.seed
		if x.srb {
			o1, o2, err := rb.MeasureSimultaneous(dev, x.pair.First, x.pair.Second, c)
			x.est, x.err = [2]float64{o1.CNOTError, o2.CNOTError}, err
		} else {
			out, err := rb.MeasureIndependent(dev, x.pair.First, c)
			x.est, x.err = [2]float64{out.CNOTError}, err
		}
	})
	for _, x := range exps {
		if x.err != nil {
			return nil, x.err
		}
	}
	for _, x := range exps {
		if x.srb {
			rep.Measurements = append(rep.Measurements, Measurement{
				Pair:       x.pair,
				CondFirst:  x.est[0],
				CondSecond: x.est[1],
				IndepFirst: exps[indep[x.pair.First]].est[0], IndepSecond: exps[indep[x.pair.Second]].est[0],
			})
		}
	}
	return rep, nil
}

// parallelFor calls f(0..n-1) on min(GOMAXPROCS, n) goroutines.
func parallelFor(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// NoiseData converts a campaign report into scheduler input: measured
// independent rates (calibration-style) plus measured conditional rates for
// the detected high-crosstalk pairs.
func (r *Report) NoiseData(dev *device.Device, threshold float64) *core.NoiseData {
	nd := &core.NoiseData{
		Independent: map[device.Edge]float64{},
		Conditional: map[device.Edge]map[device.Edge]float64{},
		Coherence:   make([]float64, dev.Topo.NQubits),
	}
	// Independent error rates and coherence come from daily calibration.
	for e, gc := range dev.Cal.Gates {
		nd.Independent[e] = gc.Error
	}
	for q, qc := range dev.Cal.Qubits {
		nd.Coherence[q] = qc.CoherenceLimit()
	}
	add := func(gi, gj device.Edge, cond float64) {
		if nd.Conditional[gi] == nil {
			nd.Conditional[gi] = map[device.Edge]float64{}
		}
		nd.Conditional[gi][gj] = cond
	}
	for _, m := range r.Measurements {
		if m.CondFirst > threshold*clampRes(m.IndepFirst) {
			add(m.Pair.First, m.Pair.Second, m.CondFirst)
		}
		if m.CondSecond > threshold*clampRes(m.IndepSecond) {
			add(m.Pair.Second, m.Pair.First, m.CondSecond)
		}
	}
	return nd
}
