// Command xtalkchar runs a crosstalk characterization campaign on a
// simulated device and prints the measurement plan, machine-time estimate,
// measured conditional error rates, and detected high-crosstalk pairs, and
// reports the size of the noise data a scheduler would consume (the
// campaign's estimates as pipeline.Config.Noise).
//
// Usage:
//
//	xtalkchar -device poughkeepsie -policy one-hop+binpack
//	xtalkchar -device grid:4x5 -policy one-hop
package main

import (
	"flag"
	"fmt"
	"os"

	"xtalk/internal/characterize"
	"xtalk/internal/device"
	"xtalk/internal/rb"
)

func main() {
	var (
		devSpec   = flag.String("device", "", "device spec: "+device.SpecGrammar)
		system    = flag.String("system", "poughkeepsie", "deprecated alias for -device")
		policy    = flag.String("policy", "one-hop+binpack", "all-pairs|one-hop|one-hop+binpack|high-crosstalk-only")
		seed      = flag.Int64("seed", 1, "device + experiment seed")
		day       = flag.Int("day", 0, "calibration day (drift model)")
		threshold = flag.Float64("threshold", 3, "high-crosstalk detection ratio")
	)
	flag.Parse()
	spec := *devSpec
	if spec == "" {
		spec = *system
	}
	if err := run(spec, *policy, *seed, *day, *threshold); err != nil {
		fmt.Fprintln(os.Stderr, "xtalkchar:", err)
		os.Exit(1)
	}
}

func run(spec, policyName string, seed int64, day int, threshold float64) error {
	dev, err := device.NewFromSpecForDay(spec, seed, day)
	if err != nil {
		return err
	}
	policy, err := characterize.ParsePolicy(policyName)
	if err != nil {
		return err
	}
	var highPairs []device.EdgePair
	if policy == characterize.HighCrosstalkOnly {
		// Seed the daily refresh from ground truth (in practice: from the
		// last full campaign).
		highPairs = dev.Cal.HighCrosstalkPairs(threshold)
	}
	cfg := rb.DefaultConfig()
	cfg.Seed = seed
	rep, err := characterize.Run(dev, policy, highPairs, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%s, day %d, policy %s\n", dev.Topo.Name, day, policy)
	fmt.Printf("experiments: %d batches covering %d pairs; modeled machine time %s\n",
		rep.Plan.NumExperiments(), rep.Plan.NumPairs(), rep.MachineTime.Round(1e9))
	fmt.Println("\npair                conditional(first|second)  independent  ratio")
	for _, m := range rep.Measurements {
		r := m.CondFirst / m.IndepFirst
		if r2 := m.CondSecond / m.IndepSecond; r2 > r {
			r = r2
		}
		fmt.Printf("%-18s  %.4f / %.4f             %.4f/%.4f  %.1fx\n",
			m.Pair, m.CondFirst, m.CondSecond, m.IndepFirst, m.IndepSecond, r)
	}
	fmt.Println("\ndetected high-crosstalk pairs (threshold", threshold, "x):")
	for _, pr := range rep.HighCrosstalkPairs(threshold) {
		fmt.Println("  ", pr)
	}
	nd := rep.NoiseData(dev, threshold)
	nCond := 0
	for _, m := range nd.Conditional {
		nCond += len(m)
	}
	fmt.Printf("\nscheduler noise data installed: %d independent rates, %d conditional entries\n",
		len(nd.Independent), nCond)
	return nil
}
