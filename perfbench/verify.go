package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"xtalk/internal/certify"
	"xtalk/internal/circuit"
	"xtalk/internal/core"
	"xtalk/internal/device"
	"xtalk/internal/metrics"
	"xtalk/internal/noise"
	"xtalk/internal/pipeline"
	"xtalk/internal/qasm"
)

// omega and threshold are the paper defaults the daemon runs with; the
// independent checks score schedules at the same values.
const (
	omega     = 0.5
	threshold = 3
)

// execShots is the shot count of every noisy execution behind error_gain.
const execShots = 2048

// devices memoises calibrated device models by (spec, seed, day).
var devices sync.Map

func deviceFor(spec string, seed int64, day int) (*device.Device, error) {
	key := fmt.Sprintf("%s/%d/%d", spec, seed, day)
	if d, ok := devices.Load(key); ok {
		return d.(*device.Device), nil
	}
	d, err := device.NewFromSpecForDay(spec, seed, day)
	if err != nil {
		return nil, err
	}
	devices.Store(key, d)
	return d, nil
}

// servedCheck is the independent verdict on one served artifact.
type servedCheck struct {
	// Structural lists violations other than the cost claim.
	Structural []string
	// CostOK reports that the certifier's recomputed cost of the executed
	// (ASAP-reconstructed) program equals the served cost claim.
	CostOK bool
	// Cost is the certifier's recomputed cost.
	Cost float64
	// Sched is the served program placed for execution.
	Sched *core.Schedule
}

// costTol is the relative tolerance of "equal" costs: the certifier sums
// in exact rationals, the engine in float64.
const costTol = 1e-9

// checkServed parses the served QASM, rebuilds its timing as hardware
// would run it and certifies it against the served cost claim.
func checkServed(qasmSrc, spec string, seed int64, day int, claimed float64) (*servedCheck, error) {
	circ, err := qasm.Parse(qasmSrc)
	if err != nil {
		return nil, fmt.Errorf("served QASM does not parse: %w", err)
	}
	dev, err := deviceFor(spec, seed, day)
	if err != nil {
		return nil, err
	}
	s := certify.ReconstructASAP(circ, dev)
	rep := certify.Check(s, certify.Config{Omega: omega, Threshold: threshold, CheckCost: true, ClaimedCost: claimed})
	// For execution the program is placed as soon as possible (ParSched
	// on the barriered program), as the reconstruction does. Barriers
	// after the first measurement only order readouts, which the hardware
	// model fires in one slot, so they are dropped.
	exec, err := core.ParSched{}.Schedule(withoutReadoutBarriers(circ), dev)
	if err != nil {
		return nil, fmt.Errorf("served program cannot be placed for execution: %w", err)
	}
	out := &servedCheck{Cost: rep.CostFloat, Sched: exec, CostOK: true}
	for _, v := range rep.Violations {
		if v.Kind == certify.CostMismatch {
			out.CostOK = false
			continue
		}
		out.Structural = append(out.Structural, v.String())
	}
	if math.Abs(rep.CostFloat-claimed) > costTol*math.Max(1, math.Abs(claimed)) {
		out.CostOK = false
	}
	return out, nil
}

// parSchedCost is the certifier's cost of the ParSched baseline schedule of
// c: the denominator-side of sched_gain, computed without the engine under
// test.
func parSchedCost(c *circuit.Circuit, dev *device.Device) (float64, *core.Schedule, error) {
	s, err := core.ParSched{}.Schedule(c.DecomposeSwaps(), dev)
	if err != nil {
		return 0, nil, err
	}
	rep := certify.Check(s, certify.Config{Omega: omega, Threshold: threshold})
	if !rep.OK() {
		return 0, nil, fmt.Errorf("ParSched schedule failed certification: %v", rep.Err())
	}
	return rep.CostFloat, s, nil
}

// executedError runs s on the device's noisy simulator, applies readout
// mitigation and returns the total variation distance from ideal, the
// noiseless distribution of the source circuit from noise.IdealProbabilities.
func executedError(s *core.Schedule, ideal metrics.Distribution, idealQubits []int, seed int64) (float64, error) {
	raw, err := noise.NewExecutor(s.Dev).Run(s, noise.Options{Shots: execShots, Seed: seed})
	if err != nil {
		return 0, err
	}
	dist, err := pipeline.Mitigated(s.Dev, raw)
	if err != nil {
		return 0, err
	}
	return tvd(byQubit(ideal, idealQubits), byQubit(dist, raw.MeasuredQubits)), nil
}

// tvd is the total variation distance between two distributions, summed
// in key order and rounded to 1e-12. Readout mitigation accumulates over
// map iteration order, so the same execution can come back a few ulps
// apart; rounding far above that and far below any real change keeps the
// error numbers bit-identical from run to run.
func tvd(p, q metrics.Distribution) float64 {
	keys := make(map[string]bool, len(p)+len(q))
	for k := range p {
		keys[k] = true
	}
	for k := range q {
		keys[k] = true
	}
	s := 0.0
	for _, k := range sortedKeys(keys) {
		s += math.Abs(p[k] - q[k])
	}
	return math.Round(s/2*1e12) / 1e12
}

// byQubit re-keys a distribution whose bits follow measured's order so
// that bits follow ascending qubit index: the served program may measure
// its qubits in another order than the source circuit.
func byQubit(d metrics.Distribution, measured []int) metrics.Distribution {
	order := make([]int, len(measured))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return measured[order[a]] < measured[order[b]] })
	out := make(metrics.Distribution, len(d))
	var sb strings.Builder
	for k, v := range d {
		sb.Reset()
		for _, i := range order {
			sb.WriteByte(k[i])
		}
		out[sb.String()] += v
	}
	return out
}

// errorRatio is one circuit's ParSched / crosstalk-aware error ratio, with
// both errors floored at 1e-4 as in the paper's Figure 5 harness.
func errorRatio(errPar, errX float64) float64 {
	return math.Max(errPar, 1e-4) / math.Max(errX, 1e-4)
}

// withoutReadoutBarriers copies c without the barriers that follow its
// first measurement.
func withoutReadoutBarriers(c *circuit.Circuit) *circuit.Circuit {
	out := circuit.New(c.NQubits)
	measured := false
	for _, g := range c.Gates {
		measured = measured || g.Kind == circuit.KindMeasure
		if measured && g.Kind == circuit.KindBarrier {
			continue
		}
		out.Add(g.Kind, g.Qubits, g.Params...)
	}
	return out
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
