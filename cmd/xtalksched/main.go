// Command xtalksched schedules a circuit (textual gate-list or OpenQASM 2.0)
// onto a simulated device with SerialSched, ParSched and XtalkSched through
// the staged compilation pipeline, prints the three timelines, and reports
// the modeled error costs. The device is any spec the device package
// accepts: a preset or a generated topology.
//
// Usage:
//
//	xtalksched -in circuit.txt -device poughkeepsie -omega 0.5
//	xtalksched -device grid:5x8 -workload qaoa          # built-in workload
//	xtalksched -device heavyhex:27 -workload supremacy:80
//
// Input format (one gate per line):
//
//	h q0
//	cx q0,q1
//	swap q5,q10
//	measure q0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"xtalk/internal/circuit"
	"xtalk/internal/core"
	"xtalk/internal/device"
	"xtalk/internal/pipeline"
	"xtalk/internal/qasm"
	"xtalk/internal/serve"
	"xtalk/internal/workloads"
)

func main() {
	var (
		in        = flag.String("in", "", "input circuit file (default: stdin unless -workload is set)")
		devSpec   = flag.String("device", "", "device spec: "+device.SpecGrammar)
		system    = flag.String("system", "poughkeepsie", "deprecated alias for -device")
		seed      = flag.Int64("seed", 1, "device seed")
		omega     = flag.Float64("omega", 0.5, "crosstalk weight factor")
		budget    = flag.Duration("budget", 0, "anytime SMT budget per schedule (0 = run to optimality)")
		stats     = flag.Bool("stats", false, "print per-stage pipeline statistics")
		partition = flag.Bool("partition", false, "use the conflict-partitioned scheduling engine (split the circuit into components and windows, one small SMT instance each)")
		window    = flag.Int("window", 0, "max two-qubit gates per window SMT instance (implies -partition; 0 = default cap)")
		portfolio = flag.Bool("portfolio", false, "race the SMT engine against the greedy heuristic under -budget and keep the best schedule")
		workload  = flag.String("workload", "", "generate a built-in circuit instead of reading input: qaoa[:K]|supremacy[:GATES]|swap[:A,B]")
		serveURL  = flag.String("serve", "", "compile via a running xtalkd daemon at this base URL (e.g. http://localhost:8077) instead of locally")
	)
	flag.Parse()
	spec := *devSpec
	if spec == "" {
		spec = *system
	}
	opts := runOpts{
		omega:     *omega,
		budget:    *budget,
		stats:     *stats,
		partition: *partition || *window > 0,
		window:    *window,
		portfolio: *portfolio,
	}
	var err error
	if *serveURL != "" {
		// The daemon compiles under its own configuration; warn when local
		// scheduling flags were set so they are not silently dropped.
		ignored := map[string]bool{"omega": true, "budget": true, "partition": true, "window": true, "portfolio": true}
		var dropped []string
		flag.Visit(func(f *flag.Flag) {
			if ignored[f.Name] {
				dropped = append(dropped, "-"+f.Name)
			}
		})
		if len(dropped) > 0 {
			fmt.Fprintf(os.Stderr, "xtalksched: %s ignored in -serve mode (the daemon's flags decide the compile config)\n",
				strings.Join(dropped, " "))
		}
		err = runRemote(*serveURL, *in, spec, *workload, *seed, opts)
	} else {
		err = run(*in, spec, *workload, *seed, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xtalksched:", err)
		os.Exit(1)
	}
}

// runOpts bundles the scheduling knobs of the CLI.
type runOpts struct {
	omega     float64
	budget    time.Duration
	stats     bool
	partition bool
	window    int
	portfolio bool
}

// buildWorkload generates a built-in benchmark circuit sized to the device.
func buildWorkload(dev *device.Device, workload string, seed int64) (*circuit.Circuit, error) {
	kind, arg, _ := strings.Cut(workload, ":")
	topo := dev.Topo
	switch kind {
	case "qaoa":
		k := 4
		if arg != "" {
			v, err := strconv.Atoi(arg)
			if err != nil {
				return nil, fmt.Errorf("bad qaoa chain length %q", arg)
			}
			k = v
		}
		c, qubits, err := workloads.QAOAChainCircuit(topo, k, seed)
		if err != nil {
			return nil, err
		}
		fmt.Printf("QAOA on %s, chain %v\n\n", topo.Name, qubits)
		return c, nil
	case "supremacy":
		gates := 4 * topo.NQubits
		if arg != "" {
			v, err := strconv.Atoi(arg)
			if err != nil {
				return nil, fmt.Errorf("bad supremacy gate count %q", arg)
			}
			gates = v
		}
		fmt.Printf("supremacy-style random circuit on %s, %d gates\n\n", topo.Name, gates)
		return workloads.SupremacyCircuit(topo, topo.NQubits, gates, seed)
	case "swap":
		a, b := -1, -1
		if arg != "" {
			as, bs, ok := strings.Cut(arg, ",")
			if !ok {
				return nil, fmt.Errorf("swap wants A,B qubits, got %q", arg)
			}
			var err error
			if a, err = strconv.Atoi(as); err != nil {
				return nil, fmt.Errorf("bad swap qubit %q", as)
			}
			if b, err = strconv.Atoi(bs); err != nil {
				return nil, fmt.Errorf("bad swap qubit %q", bs)
			}
			if a < 0 || b < 0 || a >= topo.NQubits || b >= topo.NQubits || a == b {
				return nil, fmt.Errorf("swap qubits %d,%d out of range for %d-qubit device", a, b, topo.NQubits)
			}
		} else {
			// Default: the most distant qubit pair on the device.
			best := -1
			for p := 0; p < topo.NQubits; p++ {
				for q := p + 1; q < topo.NQubits; q++ {
					if d := topo.Distance(p, q); d > best {
						best, a, b = d, p, q
					}
				}
			}
		}
		fmt.Printf("SWAP benchmark on %s, qubits %d -> %d\n\n", topo.Name, a, b)
		return workloads.SwapCircuit(topo, a, b)
	default:
		return nil, fmt.Errorf("unknown workload %q (want qaoa|supremacy|swap)", workload)
	}
}

// runRemote is the -serve client mode: it ships the circuit to a running
// xtalkd daemon, letting the service's content-addressed cache deduplicate
// the solve, and prints the returned artifact.
func runRemote(baseURL, in, spec, workload string, seed int64, opts runOpts) error {
	var source string
	if workload != "" {
		// Workload circuits are generated locally against the same device
		// spec the daemon will compile for, then shipped as OpenQASM.
		dev, err := device.NewFromSpec(spec, seed)
		if err != nil {
			return err
		}
		c, err := buildWorkload(dev, workload, seed)
		if err != nil {
			return err
		}
		source = qasm.Dump(c)
	} else {
		var src []byte
		var err error
		if in == "" {
			src, err = io.ReadAll(os.Stdin)
		} else {
			src, err = os.ReadFile(in)
		}
		if err != nil {
			return err
		}
		source = string(src)
	}
	req := serve.CompileRequest{Source: source, Device: spec, Seed: &seed}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	baseURL = strings.TrimSuffix(baseURL, "/")
	resp, err := http.Post(baseURL+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e serve.ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			if e.Line > 0 {
				return fmt.Errorf("daemon: %s (input line %d)", e.Error, e.Line)
			}
			return fmt.Errorf("daemon: %s", e.Error)
		}
		return fmt.Errorf("daemon: HTTP %d", resp.StatusCode)
	}
	var cr serve.CompileResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return err
	}
	status := "cold compile"
	switch {
	case cr.Tier == serve.TierMem:
		status = "cache hit (memory)"
	case cr.Tier == serve.TierDisk:
		status = "cache hit (disk)"
	case cr.Tier == serve.TierPeer:
		status = "served by peer"
		if cr.PeerTier != "" {
			status = fmt.Sprintf("served by peer (%s)", cr.PeerTier)
		}
	case cr.Cached:
		status = "cache hit"
	case cr.Collapsed:
		status = "collapsed onto in-flight compile"
	}
	fmt.Printf("%s [%s] on %s (seed %d, day %d): %s\n",
		cr.Scheduler, cr.Fingerprint[:12], cr.Device, cr.Seed, cr.Day, status)
	fmt.Printf("modeled cost: %.4f; makespan: %.0f ns; compile time: %.1f ms\n",
		cr.Cost, cr.MakespanNS, cr.CompileMS)
	if cr.Solve != "" {
		fmt.Printf("solver effort: %s\n", cr.Solve)
	}
	fmt.Println("\ncompiled circuit (OpenQASM, barriers enforce the schedule):")
	fmt.Println(cr.QASM)
	if opts.stats {
		st, err := http.Get(baseURL + "/stats")
		if err != nil {
			return err
		}
		defer st.Body.Close()
		var stats serve.Stats
		if err := json.NewDecoder(st.Body).Decode(&stats); err != nil {
			return err
		}
		fmt.Println("daemon statistics:")
		fmt.Print(stats.Text)
	}
	return nil
}

func run(in, spec, workload string, seed int64, opts runOpts) error {
	dev, err := device.NewFromSpec(spec, seed)
	if err != nil {
		return err
	}
	nd := pipeline.GroundTruthNoise(dev, 3)
	pomega := opts.omega
	if pomega == 0 {
		pomega = -1 // pipeline convention: negative selects the true omega=0 ablation
	}
	// Let the pipeline build the scheduler: Partition/Portfolio then share
	// its Workers-sized solve pool, so window solves run concurrently.
	p := pipeline.New(dev, pipeline.Config{
		Noise:          nd,
		Omega:          pomega,
		Budget:         opts.budget,
		Partition:      opts.partition,
		WindowGates:    opts.window,
		Portfolio:      opts.portfolio,
		DecomposeSwaps: true,
	})
	var reqs []pipeline.Request
	if workload != "" {
		c, err := buildWorkload(dev, workload, seed)
		if err != nil {
			return err
		}
		reqs = []pipeline.Request{
			{Tag: "serial", Circuit: c, Scheduler: core.SerialSched{}},
			{Tag: "par", Circuit: c, Scheduler: core.ParSched{}},
			{Tag: "xtalk", Circuit: c},
		}
	} else {
		var src []byte
		if in == "" {
			src, err = io.ReadAll(os.Stdin)
		} else {
			src, err = os.ReadFile(in)
		}
		if err != nil {
			return err
		}
		reqs = []pipeline.Request{
			{Tag: "serial", Source: string(src), Scheduler: core.SerialSched{}},
			{Tag: "par", Source: string(src), Scheduler: core.ParSched{}},
			{Tag: "xtalk", Source: string(src)},
		}
	}
	results := p.Batch(context.Background(), reqs)
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", r.Tag, r.Err)
		}
		fmt.Println(r.Schedule.Render())
		fmt.Printf("modeled cost (omega=%.2g): %.4f; crosstalk overlaps: %d; est. success: %.3f\n",
			opts.omega, r.Schedule.Cost(nd, opts.omega), r.Schedule.CrosstalkOverlapCount(nd), r.Schedule.SuccessEstimate(nd))
		if st := r.Schedule.Stats; st.Windows > 0 {
			// Solver effort: window counts, the SAT core's
			// decision/conflict counters, and the theory-tier split
			// (difference-logic vs exact-simplex work).
			fmt.Printf("solver effort: %s (schedule stage: %v)\n", st, r.StageElapsed("schedule").Round(time.Millisecond))
		}
		fmt.Println()
	}
	fmt.Println("XtalkSched output circuit with barriers:")
	fmt.Println(results[2].Barriered)
	if opts.stats {
		fmt.Println("pipeline stage statistics:")
		fmt.Print(p.StatsString())
	}
	return nil
}
