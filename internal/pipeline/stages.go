package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"xtalk/internal/circuit"
	"xtalk/internal/core"
	"xtalk/internal/device"
	"xtalk/internal/metrics"
	"xtalk/internal/noise"
	"xtalk/internal/qasm"
	"xtalk/internal/transpile"
)

// stage is one step of a compilation pipeline. Stages read and extend the
// Result in place; returning an error fails the item (fail-soft within a
// batch). Stages must not mutate the Pipeline — it is shared by all
// concurrent compilations.
type stage interface {
	Name() string
	Run(ctx context.Context, p *Pipeline, res *Result) error
}

// errNoInput is the empty-request failure shared by the parse stage and
// Pipeline.Materialize.
var errNoInput = errors.New("request has neither Circuit nor Source")

// parseSource parses textual program input: OpenQASM 2.0 when it contains
// an OPENQASM declaration, the library's gate-list format otherwise.
func parseSource(src string, dev *device.Device) (*circuit.Circuit, error) {
	if strings.Contains(src, "OPENQASM") {
		return qasm.Parse(src)
	}
	return circuit.ParseText(src, dev.Topo.NQubits)
}

// parseStage materializes the circuit IR: it passes a pre-built
// Request.Circuit through untouched, otherwise parses Request.Source as
// OpenQASM 2.0 (when it contains an OPENQASM declaration) or the library's
// textual gate-list format.
type parseStage struct{}

// Name implements stage.
func (parseStage) Name() string { return "parse" }

// Run implements stage.
func (parseStage) Run(_ context.Context, p *Pipeline, res *Result) error {
	circ, err := materialize(&res.Req, p.Dev)
	if circ != nil {
		res.Circuit = circ
	}
	return err
}

// checkFits guards every downstream stage (schedulers and the executor
// index per-qubit calibration arrays) against circuits wider than the
// device.
func checkFits(c *circuit.Circuit, dev *device.Device) error {
	if c.NQubits > dev.Topo.NQubits {
		return fmt.Errorf("circuit needs %d qubits, device has %d", c.NQubits, dev.Topo.NQubits)
	}
	return nil
}

// routeStage lowers the circuit onto the device topology, inserting
// meet-in-the-middle SWAP chains for non-adjacent CNOTs.
type routeStage struct{}

// Name implements stage.
func (routeStage) Name() string { return "route" }

// Run implements stage.
func (routeStage) Run(_ context.Context, p *Pipeline, res *Result) error {
	routed, _, err := transpile.Route(res.Circuit, p.Dev.Topo)
	if err != nil {
		return err
	}
	res.Circuit = routed
	return nil
}

// decomposeStage rewrites SWAP gates into three back-to-back CNOTs, the
// hardware-compliant form the schedulers expect.
type decomposeStage struct{}

// Name implements stage.
func (decomposeStage) Name() string { return "decompose" }

// Run implements stage.
func (decomposeStage) Run(_ context.Context, _ *Pipeline, res *Result) error {
	res.Circuit = res.Circuit.DecomposeSwaps()
	return nil
}

// scheduleStage assigns start times with the scheduler Pipeline.Scheduler
// picks for the request, threading cancellation into the SMT search, then
// validates the result and certifies it independently.
type scheduleStage struct{}

// Name implements stage.
func (scheduleStage) Name() string { return "schedule" }

// Run implements stage.
func (scheduleStage) Run(ctx context.Context, p *Pipeline, res *Result) error {
	s, err := core.ScheduleWithContext(ctx, p.Scheduler(&res.Req), res.Circuit, p.Dev)
	if err != nil {
		return err
	}
	if err := s.Validate(); err != nil {
		return fmt.Errorf("invalid schedule: %w", err)
	}
	if rep := p.certifyCheck(s); !rep.OK() {
		return fmt.Errorf("schedule rejected by certifier: %w", rep.Err())
	}
	res.Schedule = s
	res.Solve = s.Stats
	return nil
}

// barrierStage converts the schedule into an executable circuit whose
// barriers enforce the serialization decisions (Section 6's post-pass).
type barrierStage struct{}

// Name implements stage.
func (barrierStage) Name() string { return "barriers" }

// Run implements stage.
func (barrierStage) Run(_ context.Context, _ *Pipeline, res *Result) error {
	res.Barriered = core.InsertBarriers(res.Schedule)
	return nil
}

// executeStage runs the schedule on the device's ground-truth noise model
// and records the raw histogram plus its empirical distribution.
type executeStage struct{}

// Name implements stage.
func (executeStage) Name() string { return "execute" }

// Run implements stage.
func (executeStage) Run(ctx context.Context, p *Pipeline, res *Result) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	shots := res.Req.Shots
	if shots <= 0 {
		shots = p.cfg.Shots
	}
	raw, err := noise.NewExecutor(p.Dev).Run(res.Schedule, noise.Options{
		Shots:            shots,
		Seed:             res.Req.Seed,
		DisableCrosstalk: res.Req.DisableCrosstalk,
	})
	if err != nil {
		return err
	}
	res.Raw = raw
	res.Dist = metrics.Distribution(raw.Probabilities())
	return nil
}

// mitigateStage replaces the empirical distribution with its readout-error
// mitigated counterpart (the paper applies readout mitigation to every
// reported result).
type mitigateStage struct{}

// Name implements stage.
func (mitigateStage) Name() string { return "mitigate" }

// Run implements stage.
func (mitigateStage) Run(_ context.Context, p *Pipeline, res *Result) error {
	dist, err := Mitigated(p.Dev, res.Raw)
	if err != nil {
		return err
	}
	res.Dist = dist
	return nil
}

// Mitigated applies readout-error mitigation to a raw execution result
// using the device's per-qubit readout error rates. This is the one shared
// implementation of the flow previously copy-pasted across the facade and
// the experiment harness.
func Mitigated(dev *device.Device, raw *noise.Result) (metrics.Distribution, error) {
	dist := metrics.Distribution(raw.Probabilities())
	flips := make([]float64, len(raw.MeasuredQubits))
	for i, q := range raw.MeasuredQubits {
		flips[i] = dev.Cal.Qubits[q].ReadoutError
	}
	return metrics.MitigateReadout(dist, flips)
}
