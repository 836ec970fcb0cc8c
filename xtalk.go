// Package xtalk is the public facade of the crosstalk-mitigation library, a
// Go reproduction of "Software Mitigation of Crosstalk on Noisy
// Intermediate-Scale Quantum Computers" (Murali et al., ASPLOS 2020).
//
// The typical flow mirrors the paper's toolchain (Figure 2):
//
//	dev, _ := xtalk.NewDevice(xtalk.Poughkeepsie, 1)        // hardware model
//	rep, _ := xtalk.Characterize(dev, xtalk.CharOneHopBinPacked) // SRB campaign
//	nd := rep.NoiseData(dev, 3)                              // scheduler input
//	c := xtalk.NewCircuit(20)                                // build program IR
//	c.H(0); c.CNOT(0, 1); c.MeasureAll()
//	sched, _ := xtalk.NewXtalkScheduler(nd, 0.5).Schedule(c, dev)
//	res, _ := xtalk.Execute(dev, sched, 8192, 1)             // noisy execution
//
// The staged pipeline (internal/pipeline) is the production path: it runs
// the same flow as a stage stack with concurrent batch
// compilation, context cancellation and per-stage statistics:
//
//	p := xtalk.NewPipeline(dev, xtalk.PipelineConfig{Shots: 8192, Mitigate: true})
//	results := p.Batch(ctx, []xtalk.CompileRequest{{Circuit: c1}, {Circuit: c2}})
//
// Deeper control lives in the internal packages; this facade re-exports the
// pieces a downstream user needs for the end-to-end pipeline.
package xtalk

import (
	"xtalk/internal/characterize"
	"xtalk/internal/circuit"
	"xtalk/internal/core"
	"xtalk/internal/device"
	"xtalk/internal/metrics"
	"xtalk/internal/noise"
	"xtalk/internal/pipeline"
	"xtalk/internal/qasm"
	"xtalk/internal/rb"
	"xtalk/internal/serve"
	"xtalk/internal/transpile"
)

// Re-exported core types.
type (
	// Device is a simulated quantum system — an IBMQ preset or a generated
	// topology — with calibration data and ground-truth crosstalk.
	Device = device.Device
	// SystemName identifies a modeled device: a preset name or the
	// canonical spec of a generated topology.
	SystemName = device.SystemName
	// DeviceSpec is the textual device syntax (preset names and topology
	// generators such as "grid:5x8" or "heavyhex:27"); see device.Spec.
	DeviceSpec = device.Spec
	// Edge is an undirected CNOT coupling.
	Edge = device.Edge
	// EdgePair is an unordered pair of couplings (a simultaneous-CNOT
	// combination).
	EdgePair = device.EdgePair
	// Topology is a device coupling graph.
	Topology = device.Topology
	// Circuit is the gate-list program IR.
	Circuit = circuit.Circuit
	// Gate is one instruction of a Circuit.
	Gate = circuit.Gate
	// Schedule assigns start times to a circuit's gates.
	Schedule = core.Schedule
	// Scheduler maps circuits to schedules.
	Scheduler = core.Scheduler
	// NoiseData is the characterization input the schedulers consume.
	NoiseData = core.NoiseData
	// XtalkConfig tunes the SMT scheduler.
	XtalkConfig = core.XtalkConfig
	// Result is a noisy-execution outcome histogram.
	Result = noise.Result
	// Distribution is a probability distribution over outcome bitstrings.
	Distribution = metrics.Distribution
	// CharacterizationReport is the outcome of an SRB campaign.
	CharacterizationReport = characterize.Report
	// CharacterizationPolicy selects the measurement plan (Section 5).
	CharacterizationPolicy = characterize.Policy
	// RBConfig shapes randomized-benchmarking experiments.
	RBConfig = rb.Config
	// Pipeline is the staged compilation pipeline (Parse → Route → Schedule
	// → InsertBarriers → Execute → Mitigate): the one goroutine-safe
	// compilation engine, with concurrent batch support, per-request
	// statistics on each Result and per-stage totals across requests.
	Pipeline = pipeline.Pipeline
	// PipelineConfig shapes a Pipeline.
	PipelineConfig = pipeline.Config
	// CompileRequest is one work item submitted to a Pipeline.
	CompileRequest = pipeline.Request
	// CompileResult is a Pipeline's per-item outcome.
	CompileResult = pipeline.Result
	// CompiledArtifact is the immutable, cacheable product of one compile,
	// content-addressed by Pipeline.Fingerprint.
	CompiledArtifact = pipeline.CompiledArtifact
	// CompileServer is the compilation service: a content-addressed
	// artifact cache with singleflight collapse in front of per-device
	// pipelines (what cmd/xtalkd serves over HTTP).
	CompileServer = serve.Server
	// CompileServerConfig shapes a CompileServer.
	CompileServerConfig = serve.Config
)

// The three modeled IBMQ systems.
const (
	Poughkeepsie = device.Poughkeepsie
	Johannesburg = device.Johannesburg
	Boeblingen   = device.Boeblingen
)

// Characterization policies (Figure 10 order).
const (
	CharAllPairs          = characterize.AllPairs
	CharOneHop            = characterize.OneHop
	CharOneHopBinPacked   = characterize.OneHopBinPacked
	CharHighCrosstalkOnly = characterize.HighCrosstalkOnly
)

// NewDevice synthesizes a simulated device (see internal/device for the
// calibration distributions, which follow the paper's measurements).
func NewDevice(name SystemName, seed int64) (*Device, error) { return device.New(name, seed) }

// NewDeviceForDay synthesizes the device's calibration on a later day
// (error rates drift, the crosstalk pair set stays stable — Figure 4).
func NewDeviceForDay(name SystemName, seed int64, day int) (*Device, error) {
	return device.NewForDay(name, seed, day)
}

// NewDeviceFromSpec synthesizes a device from a device spec: a preset name
// or a topology generator ("linear:N", "ring:N", "grid:RxC", "heavyhex:Q",
// "random:N,DEG,SEED"). Generated topologies receive synthetic calibration
// scaled to their size, including a seeded ground-truth crosstalk pair set.
func NewDeviceFromSpec(spec string, seed int64) (*Device, error) {
	return device.NewFromSpec(spec, seed)
}

// NewDeviceFromSpecForDay is NewDeviceFromSpec on a later calibration day.
func NewDeviceFromSpecForDay(spec string, seed int64, day int) (*Device, error) {
	return device.NewFromSpecForDay(spec, seed, day)
}

// ParseTopology parses a device spec into its coupling topology without
// synthesizing calibration data.
func ParseTopology(spec string) (*Topology, error) { return device.ParseSpec(spec) }

// NewPipelineFromSpec builds a staged compilation pipeline over the device
// described by a device spec (see NewDeviceFromSpec).
func NewPipelineFromSpec(spec string, seed int64, day int, cfg PipelineConfig) (*Pipeline, error) {
	return pipeline.NewFromSpec(spec, seed, day, cfg)
}

// NewCircuit returns an empty circuit over n qubits.
func NewCircuit(n int) *Circuit { return circuit.New(n) }

// ParseCircuit parses the textual gate-list format (see
// internal/circuit.ParseText).
func ParseCircuit(src string, defaultQubits int) (*Circuit, error) {
	return circuit.ParseText(src, defaultQubits)
}

// ParseQASM parses an OpenQASM 2.0 program (the qelib1 subset described in
// internal/qasm).
func ParseQASM(src string) (*Circuit, error) { return qasm.Parse(src) }

// DumpQASM renders a circuit as OpenQASM 2.0.
func DumpQASM(c *Circuit) string { return qasm.Dump(c) }

// Route lowers a logical circuit onto the device topology, inserting
// meet-in-the-middle SWAP chains for non-adjacent CNOTs.
func Route(c *Circuit, topo *Topology) (*Circuit, error) {
	out, _, err := transpile.Route(c, topo)
	return out, err
}

// SerialScheduler serializes every instruction (Table 1).
func SerialScheduler() Scheduler { return core.SerialSched{} }

// ParScheduler is the IBM-default maximum-parallelism scheduler (Table 1).
func ParScheduler() Scheduler { return core.ParSched{} }

// NewXtalkScheduler builds the paper's SMT scheduler over characterization
// data with crosstalk weight omega (Eq. 17).
func NewXtalkScheduler(nd *NoiseData, omega float64) Scheduler {
	cfg := core.DefaultXtalkConfig()
	cfg.Omega = omega
	return core.NewXtalkSched(nd, cfg)
}

// NewXtalkSchedulerWithConfig exposes the full configuration surface.
func NewXtalkSchedulerWithConfig(nd *NoiseData, cfg XtalkConfig) Scheduler {
	return core.NewXtalkSched(nd, cfg)
}

// NewPartitionedScheduler builds the conflict-partitioned scheduling
// engine: the circuit's crosstalk conflict graph (shared-qubit dependencies
// plus pruned CanOlp pairs) is split into independent components and
// bounded time windows, each window is solved as its own small SMT
// instance, and the per-window schedules are stitched back together with
// barrier-respecting offsets. windowGates caps the two-qubit gates per
// window (0 = default). On circuits whose conflict graph is a single
// component fitting one window it produces schedules cost-identical to the
// monolithic scheduler.
func NewPartitionedScheduler(nd *NoiseData, cfg XtalkConfig, windowGates int) Scheduler {
	return core.NewPartitionedXtalkSched(nd, cfg, core.PartitionOpts{MaxWindowGates: windowGates})
}

// NewPortfolioScheduler races the partitioned SMT engine against the greedy
// crosstalk-aware heuristic under cfg.Timeout as the shared anytime budget
// and returns the lower-cost schedule (anytime: on cancellation or budget
// expiry the best incumbent across the portfolio wins).
func NewPortfolioScheduler(nd *NoiseData, cfg XtalkConfig, windowGates int) Scheduler {
	return core.NewPortfolioSched(nd, cfg, core.PartitionOpts{MaxWindowGates: windowGates})
}

// NewPipeline builds a staged compilation pipeline over the device. See
// PipelineConfig for the knobs; the zero config is a compile-only
// ground-truth-noise XtalkSched pipeline.
func NewPipeline(dev *Device, cfg PipelineConfig) *Pipeline { return pipeline.New(dev, cfg) }

// NewCompileServer builds the compilation service: a content-addressed
// artifact cache (keyed by Pipeline.Fingerprint) with singleflight collapse
// of concurrent identical requests and a bounded admission queue, fronting
// per-device compilation pipelines. cmd/xtalkd exposes it over HTTP.
func NewCompileServer(cfg CompileServerConfig) (*CompileServer, error) { return serve.New(cfg) }

// GroundTruthNoiseData extracts perfect characterization data from the
// device (useful for testing; real flows use Characterize). Results are
// memoized per (system, seed, day, threshold) for the life of the process
// and shared: treat them as read-only. A Pipeline built without
// PipelineConfig.Noise extracts its own copy and does not use the memo.
func GroundTruthNoiseData(dev *Device, threshold float64) *NoiseData {
	return pipeline.GroundTruthNoise(dev, threshold)
}

// DefaultRBConfig is a fast RB experiment shape (scaled-down from the
// paper's 100 sequences x 1024 trials, unbiased).
func DefaultRBConfig() RBConfig { return rb.DefaultConfig() }

// Characterize runs an SRB crosstalk-characterization campaign under the
// given policy with the default RB configuration.
func Characterize(dev *Device, policy CharacterizationPolicy) (*CharacterizationReport, error) {
	return CharacterizeWithConfig(dev, policy, nil, rb.DefaultConfig())
}

// CharacterizeWithConfig gives full control: highPairs seeds the
// HighCrosstalkOnly policy (from a previous full campaign) and cfg shapes
// the RB experiments.
func CharacterizeWithConfig(dev *Device, policy CharacterizationPolicy, highPairs []EdgePair, cfg RBConfig) (*CharacterizationReport, error) {
	return characterize.Run(dev, policy, highPairs, cfg)
}

// TuneOmega selects a crosstalk weight factor for a specific application
// circuit by scheduling it at each candidate omega and scoring with the
// analytic success model (an extension automating the paper's Section 9.3
// sensitivity study). Pass nil candidates for the default sweep.
func TuneOmega(c *Circuit, dev *Device, nd *NoiseData, candidates []float64) (float64, *Schedule, error) {
	return core.TuneOmega(c, dev, nd, candidates)
}

// InsertBarriers converts a schedule into an executable circuit whose
// barriers enforce the schedule's serialization decisions (Section 6's
// post-processing step).
func InsertBarriers(s *Schedule) *Circuit { return core.InsertBarriers(s) }

// Execute runs a schedule on the device's ground-truth noise model for the
// given number of shots.
func Execute(dev *Device, s *Schedule, shots int, seed int64) (*Result, error) {
	return noise.NewExecutor(dev).Run(s, noise.Options{Shots: shots, Seed: seed})
}

// ExecuteMitigated runs a schedule and returns the readout-mitigated outcome
// distribution (the paper applies readout mitigation to all results).
func ExecuteMitigated(dev *Device, s *Schedule, shots int, seed int64) (Distribution, error) {
	res, err := Execute(dev, s, shots, seed)
	if err != nil {
		return nil, err
	}
	return pipeline.Mitigated(dev, res)
}

// IdealDistribution computes the noise-free outcome distribution of a
// circuit.
func IdealDistribution(c *Circuit) Distribution {
	p, _ := noise.IdealProbabilities(c)
	return p
}

// CrossEntropy, BellStateError and SuccessProbability re-export the paper's
// evaluation metrics.
func CrossEntropy(ideal, measured Distribution) float64 {
	return metrics.CrossEntropy(ideal, measured)
}

// BellStateError scores a two-qubit distribution against the ideal Bell
// outcome statistics (the SWAP-circuit metric).
func BellStateError(measured Distribution) float64 { return metrics.BellStateError(measured) }

// SuccessProbability returns the probability mass on the expected bitstring.
func SuccessProbability(measured Distribution, want string) float64 {
	return metrics.SuccessProbability(measured, want)
}
