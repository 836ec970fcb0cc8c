package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"xtalk/internal/core"
	"xtalk/internal/device"
	"xtalk/internal/pipeline"
	"xtalk/internal/workloads"
)

// DeviceScaleRow is one device's measurements in the device-size sweep.
type DeviceScaleRow struct {
	Spec   string
	Qubits int
	Edges  int
	// XtalkPairs is the number of ground-truth high-crosstalk pairs the
	// synthetic calibration exhibits at the detection threshold.
	XtalkPairs int
	// QAOAChain is the physical chain the QAOA workload ran on.
	QAOAChain []int
	// SuccessPar / SuccessXtalk are the modeled success estimates of the
	// QAOA circuit under ParSched and XtalkSched.
	SuccessPar, SuccessXtalk float64
	// OverlapsPar / OverlapsXtalk count scheduled high-crosstalk overlaps.
	OverlapsPar, OverlapsXtalk int
	// SupremacyGates is the size of the random circuit used for the
	// compile-time measurement.
	SupremacyGates int
	// CompileTime is the monolithic XtalkSched schedule-stage wall clock on
	// the supremacy circuit (anytime-budgeted).
	CompileTime time.Duration
	// CompilePart is the conflict-partitioned engine's schedule-stage wall
	// clock on the same circuit under the same budget.
	CompilePart time.Duration
	// PartWindows / PartComponents describe the partition the engine found.
	PartWindows, PartComponents int
	// CostMono / CostPart compare the realized Eq. 17 cost of the two
	// engines' schedules (the decomposition's quality price, if any).
	CostMono, CostPart float64
}

// DeviceScaleResult is the device-size scalability sweep: the same workload
// pair (a 4-qubit QAOA chain and a device-filling supremacy circuit)
// compiled across topologies from a handful of qubits up to Hummingbird
// scale. It extends the paper's fixed-20-qubit evaluation along the axis the
// ROADMAP asks for: does the toolchain hold up as devices grow?
type DeviceScaleResult struct {
	Rows []DeviceScaleRow
}

// String renders the sweep table.
func (r *DeviceScaleResult) String() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Spec,
			fmt.Sprintf("%d", row.Qubits),
			fmt.Sprintf("%d", row.Edges),
			fmt.Sprintf("%d", row.XtalkPairs),
			f3(row.SuccessPar), f3(row.SuccessXtalk),
			fmt.Sprintf("%d/%d", row.OverlapsXtalk, row.OverlapsPar),
			fmt.Sprintf("%d", row.SupremacyGates),
			row.CompileTime.Round(time.Millisecond).String(),
			row.CompilePart.Round(time.Millisecond).String(),
			fmt.Sprintf("%d/%d", row.PartWindows, row.PartComponents),
			f3(row.CostMono), f3(row.CostPart),
		})
	}
	var sb strings.Builder
	sb.WriteString("Device scale — QAOA modeled success and supremacy compile time across topologies\n")
	sb.WriteString("(compileM = monolithic SMT, compileP = conflict-partitioned engine, same anytime budget)\n")
	sb.WriteString(table(
		[]string{"device", "qubits", "edges", "xtalk pairs", "succPar", "succXtalk", "overlaps X/P", "gates",
			"compileM", "compileP", "win/comp", "costM", "costP"},
		rows))
	return sb.String()
}

// DeviceScaleSpecs is the default sweep: paths, rings and grids around the
// paper's scale, one preset as the anchor, and heavy-hex lattices up to the
// 65-qubit Hummingbird class.
var DeviceScaleSpecs = []string{
	"linear:12", "ring:16", "grid:4x5", "poughkeepsie", "heavyhex:27", "grid:5x8", "heavyhex:65",
}

// DeviceScale compiles the same workloads across devices of growing size
// (specs defaults to DeviceScaleSpecs): a fixed 4-qubit QAOA chain scored
// with the modeled success estimate under ParSched vs XtalkSched, and a
// supremacy-style circuit of 3 gates per qubit timed through the pipeline's
// schedule stage with the standard anytime budget. Compile-only: no noisy
// simulation, so the sweep stays tractable at 65 qubits.
func DeviceScale(ctx context.Context, opts Options, specs ...string) (*DeviceScaleResult, error) {
	if len(specs) == 0 {
		specs = DeviceScaleSpecs
	}
	res := &DeviceScaleResult{}
	for _, spec := range specs {
		dev, err := device.NewFromSpec(spec, opts.Seed)
		if err != nil {
			return nil, err
		}
		nd := pipeline.GroundTruthNoise(dev, opts.Threshold)
		p := pipeline.New(dev, pipeline.Config{Noise: nd})
		row := DeviceScaleRow{
			Spec:       spec,
			Qubits:     dev.Topo.NQubits,
			Edges:      len(dev.Topo.Edges),
			XtalkPairs: len(dev.Cal.HighCrosstalkPairs(opts.Threshold)),
		}
		// QAOA on a crosstalk-prone 4-qubit chain (the generalization of the
		// paper's Figure 8 regions): modeled success, Par vs Xtalk.
		chain, err := workloads.CrosstalkProneChain(dev, opts.Threshold)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec, err)
		}
		qc, err := workloads.QAOACircuit(dev.Topo, chain, opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec, err)
		}
		row.QAOAChain = chain
		qaoa, err := batchChecked(ctx, p, []pipeline.Request{
			{Tag: spec + " qaoa par", Circuit: qc, Scheduler: core.ParSched{}},
			{Tag: spec + " qaoa xtalk", Circuit: qc, Scheduler: core.NewXtalkSched(nd, xtalkConfig(0.5))},
		})
		if err != nil {
			return nil, err
		}
		row.SuccessPar = qaoa[0].Schedule.SuccessEstimate(nd)
		row.SuccessXtalk = qaoa[1].Schedule.SuccessEstimate(nd)
		row.OverlapsPar = qaoa[0].Schedule.CrosstalkOverlapCount(nd)
		row.OverlapsXtalk = qaoa[1].Schedule.CrosstalkOverlapCount(nd)
		// Supremacy circuit filling the device: compile-time scaling.
		row.SupremacyGates = 3 * dev.Topo.NQubits
		sc, err := workloads.SupremacyCircuit(dev.Topo, dev.Topo.NQubits, row.SupremacyGates, opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec, err)
		}
		cfg := xtalkConfig(0.5)
		cfg.CompactErrorEncoding = true
		r := p.Compile(ctx, pipeline.Request{
			Tag: spec + " supremacy", Circuit: sc,
			Scheduler: core.NewXtalkSched(nd, cfg),
		})
		if r.Err != nil {
			return nil, fmt.Errorf("%s: %w", r.Tag, r.Err)
		}
		row.CompileTime = r.StageElapsed("schedule")
		row.CostMono = r.Schedule.Cost(nd, 0.5)
		// The same circuit through the conflict-partitioned engine under the
		// same budget: the decomposition's compile-time win (and its quality
		// price) per device size.
		rp := p.Compile(ctx, pipeline.Request{
			Tag: spec + " supremacy partitioned", Circuit: sc,
			Scheduler: core.NewPartitionedXtalkSched(nd, cfg, core.PartitionOpts{}),
		})
		if rp.Err != nil {
			return nil, fmt.Errorf("%s: %w", rp.Tag, rp.Err)
		}
		row.CompilePart = rp.StageElapsed("schedule")
		row.PartWindows = rp.Schedule.Stats.Windows
		row.PartComponents = rp.Schedule.Stats.Components
		row.CostPart = rp.Schedule.Cost(nd, 0.5)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
