package main

import (
	"fmt"
	"hash/fnv"

	"xtalk/internal/noise"
	"xtalk/internal/serve"
)

// quality is the off-the-clock verdict on a list of served artifacts.
type quality struct {
	ok        []bool // succeeded and passed every independent check
	schedGain float64
	errorGain float64
}

// assessServed checks every served artifact independently of the engine
// that produced it: the served QASM is parsed, its hardware timing rebuilt
// and certified, and its recomputed cost compared with the served claim.
// It also scores the artifacts against the ParSched baseline: by certified
// cost (sched_gain) and, for circuits small enough to simulate, by executed
// error after readout mitigation (error_gain).
func assessServed(r *runCtx, insts []instance, resps []*serve.CompileResponse) (*quality, error) {
	q := &quality{ok: make([]bool, len(insts))}
	var sr, er []float64
	mismatches := 0
	for i, in := range insts {
		resp := resps[i]
		chk, err := checkServed(resp.QASM, in.Spec, resp.Seed, resp.Day, resp.Cost)
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", in.Name, in.Spec, err)
		}
		if len(chk.Structural) > 0 {
			r.fail("%s on %s day %d: served program failed certification: %v", in.Name, in.Spec, in.Day, chk.Structural)
		}
		if !chk.CostOK {
			mismatches++
		}
		q.ok[i] = len(chk.Structural) == 0 && chk.CostOK && !resp.Degraded
		dev, err := deviceFor(in.Spec, calSeed, in.Day)
		if err != nil {
			return nil, err
		}
		parCost, parSched, err := parSchedCost(in.Circ, dev)
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", in.Name, in.Spec, err)
		}
		sr = append(sr, parCost/chk.Cost)
		if !in.Ideal {
			continue
		}
		ideal, idealQ := noise.IdealProbabilities(in.Circ)
		// Simulator seeds follow the instance, not the run seed or the list
		// order: the daemon workloads' quality numbers are properties of
		// the served artifacts and repeat exactly from run to run.
		simSeed := instanceSeed(in)
		errX, err := executedError(chk.Sched, ideal, idealQ, simSeed)
		if err != nil {
			return nil, err
		}
		errPar, err := executedError(parSched, ideal, idealQ, simSeed+1)
		if err != nil {
			return nil, err
		}
		er = append(er, errorRatio(errPar, errX))
	}
	q.schedGain, q.errorGain = geomean(sr), geomean(er)
	r.diag["cost_claim_mismatches"] = mismatches
	r.diag["artifacts_checked"] = len(insts)
	return q, nil
}

// instanceSeed hashes an instance's identity into a simulator seed.
func instanceSeed(in instance) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%d", in.Name, in.Spec, in.Day)
	return int64(h.Sum64() >> 2)
}

// charCheck reports char_recall and char_device_s for a daemon workload.
// The daemon schedules against the calibration's crosstalk pairs; this
// runs, off the clock, the characterization that would supply them on the
// paper's devices (day 0 one-hop+binpack, then a day-1 refresh), the same
// campaigns paper_loop runs, and scores it against ground truth.
func charCheck(r *runCtx) error {
	var tally campaign
	high, _, err := dayZero(&tally)
	if err != nil {
		return err
	}
	for i, name := range paperSystems {
		dev, err := deviceFor(string(name), calSeed, 1)
		if err != nil {
			return err
		}
		if _, err := refresh(dev, high[i], i, 1, &tally); err != nil {
			return err
		}
	}
	r.put("char_recall", tally.recall(), "share")
	r.put("char_device_s", tally.deviceTime.Seconds(), "model_s")
	return nil
}
