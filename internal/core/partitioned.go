package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"xtalk/internal/circuit"
	"xtalk/internal/device"
	"xtalk/internal/smt"
)

// SolvePool bounds concurrent SMT window solves. One pool can be shared
// across many schedulers, so batch compilation overlaps windows from
// different circuits under a single global concurrency bound
// (pipeline.Batch wires its worker count through here).
type SolvePool struct {
	sem chan struct{}

	// warm is a free list of solver workspaces, recycled across window
	// solves so each new SMT instance starts with a hot tableau arena
	// instead of a cold heap. The sem bound keeps the list no larger than
	// the worker count. A handle is checked out for the duration of one
	// solve and returned afterwards: two concurrent solves never share one.
	mu   sync.Mutex
	warm []*smt.WarmStart
}

// getWarm checks a solver workspace out of the pool (allocating on first
// use). The caller must return it with putWarm when its solve finishes.
func (p *SolvePool) getWarm() *smt.WarmStart {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.warm); n > 0 {
		ws := p.warm[n-1]
		p.warm = p.warm[:n-1]
		return ws
	}
	return smt.NewWarmStart()
}

func (p *SolvePool) putWarm(ws *smt.WarmStart) {
	p.mu.Lock()
	p.warm = append(p.warm, ws)
	p.mu.Unlock()
}

// NewSolvePool returns a pool admitting at most workers concurrent solves
// (minimum 1).
func NewSolvePool(workers int) *SolvePool {
	if workers < 1 {
		workers = 1
	}
	return &SolvePool{sem: make(chan struct{}, workers)}
}

// Acquire blocks until a solve slot is free or ctx is done. It is exported
// so admission queues outside the scheduler (the serving layer bounds
// concurrent compilations with the same pool that bounds window solves) can
// share one global concurrency budget.
func (p *SolvePool) Acquire(ctx context.Context) error {
	select {
	case p.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot taken by Acquire.
func (p *SolvePool) Release() { <-p.sem }

// PartitionOpts configures the conflict-partitioned engine.
type PartitionOpts struct {
	// MaxWindowGates caps the two-qubit gates per window SMT instance
	// (<= 0 selects DefaultMaxWindowGates).
	MaxWindowGates int
}

// PartitionedXtalkSched is the decomposed scheduling engine: it splits the
// circuit's crosstalk conflict graph into independent components and
// bounded time windows (PartitionCircuit), solves every window as its own
// small SMT instance — concurrently when a SolvePool is attached — and
// stitches the per-window schedules back together with barrier-respecting
// offsets. On circuits where decomposition finds nothing to split it runs
// the monolithic XtalkSched encoding, producing cost-identical schedules.
//
// Anytime semantics mirror the monolithic path: Config.Timeout is a shared
// wall-clock budget across all windows; a window whose budget expires (or
// whose context is canceled) before its first incumbent is completed by the
// greedy heuristic, so a valid schedule is still returned as long as any
// window produced an SMT result. Without a Timeout the engine is fully
// deterministic regardless of pool size.
type PartitionedXtalkSched struct {
	Noise  *NoiseData
	Config XtalkConfig
	Opts   PartitionOpts
	// Pool, when non-nil, bounds concurrent window solves; nil solves
	// windows sequentially in partition order (identical results).
	Pool *SolvePool
}

// NewPartitionedXtalkSched builds the partitioned engine over the given
// characterization data. cfg is normalized exactly like NewXtalkSched.
func NewPartitionedXtalkSched(nd *NoiseData, cfg XtalkConfig, opts PartitionOpts) *PartitionedXtalkSched {
	if cfg.PowersetCap <= 0 {
		cfg.PowersetCap = 6
	}
	if cfg.TieBreak == 0 {
		cfg.TieBreak = 0x1p-30
	}
	if opts.MaxWindowGates <= 0 {
		opts.MaxWindowGates = DefaultMaxWindowGates
	}
	return &PartitionedXtalkSched{Noise: nd, Config: cfg, Opts: opts}
}

// Name implements Scheduler.
func (p *PartitionedXtalkSched) Name() string {
	return fmt.Sprintf("PartitionedXtalkSched(w=%.2g,win=%d)", p.Config.Omega, p.Opts.MaxWindowGates)
}

// Schedule implements Scheduler.
func (p *PartitionedXtalkSched) Schedule(c *circuit.Circuit, dev *device.Device) (*Schedule, error) {
	return p.ScheduleContext(context.Background(), c, dev)
}

// winOutcome is one window's solve result.
type winOutcome struct {
	makespan float64 // window-local makespan (max finish over member gates)
	smt      bool    // solved (or anytime-incumbent) by SMT, not the heuristic
	stats    winStats
	err      error // fatal error (encoding bug), not budget/cancellation
}

// ScheduleContext implements ContextScheduler: partition, solve every
// window, stitch. Canceling ctx aborts in-flight window searches within one
// conflict-check interval; windows already solved keep their SMT results and
// the remainder is completed heuristically, so the best incumbent schedule
// is returned. If cancellation lands before any window produced an SMT
// result, the context's error is returned (monolithic parity: the caller
// asked us to stop working).
func (p *PartitionedXtalkSched) ScheduleContext(ctx context.Context, c *circuit.Circuit, dev *device.Device) (*Schedule, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := ValidateMeasures(c); err != nil {
		return nil, err
	}
	part := PartitionCircuit(c, p.Noise, p.Opts.MaxWindowGates)
	mono := &XtalkSched{Noise: p.Noise, Config: p.Config}
	if part.Monolithic() {
		s, err := mono.ScheduleContext(ctx, c, dev)
		if err != nil {
			return nil, err
		}
		// Keep the monolithic path's fallback marker but claim the schedule
		// for this engine.
		if s.Stats.Fallbacks > 0 {
			s.Scheduler = p.Name() + "+fallback"
		} else {
			s.Scheduler = p.Name()
		}
		s.Stats.Components = part.Components
		return s, nil
	}

	sched := newSchedule(c, dev, p.Name())
	var deadline time.Time
	if p.Config.Timeout > 0 {
		deadline = time.Now().Add(p.Config.Timeout)
	}

	// greedy completes one window with the crosstalk-aware list scheduler in
	// window-local time (the window is dependency-closed, so fresh per-qubit
	// availability is sound).
	greedy := func(w *Window) winOutcome {
		m := placeGreedy(sched, w.Gates, make([]float64, c.NQubits), p.Noise, p.Config.Omega)
		return winOutcome{makespan: m}
	}
	solve := func(w *Window, ws *smt.WarmStart) winOutcome {
		if !deadline.IsZero() && time.Until(deadline) <= 0 {
			// Shared budget already spent: don't even start a search.
			return greedy(w)
		}
		st, err := mono.solveGates(ctx, c, sched, w.Gates, deadline, ws)
		if err != nil {
			// Monolithic-path parity: cancellation and expired anytime
			// budgets degrade to the heuristic, but a genuine solver
			// failure under an unbounded configuration must surface, not be
			// papered over with a silently degraded schedule.
			anytime := p.Config.Timeout > 0 || p.Config.MaxConflicts > 0
			canceled := errors.Is(err, smt.ErrCanceled) || ctx.Err() != nil
			if errors.Is(err, errSchedUnsat) || (!anytime && !canceled) {
				return winOutcome{err: fmt.Errorf("window (component %d, %d gates): %w", w.Component, len(w.Gates), err)}
			}
			// Budget exhausted or canceled before the first incumbent:
			// complete the window heuristically so the overall schedule
			// stays whole. Search effort spent is still accounted.
			out := greedy(w)
			out.stats = st
			return out
		}
		mk := 0.0
		for _, id := range w.Gates {
			if f := sched.Finish(id); f > mk {
				mk = f
			}
		}
		return winOutcome{makespan: mk, smt: true, stats: st}
	}

	outs := make([]winOutcome, len(part.Windows))
	if p.Pool != nil && len(part.Windows) > 1 {
		// Windows are mutually independent (they are solved in local time
		// and stitched afterwards), so they all run concurrently under the
		// pool's bound; each writes a disjoint slice of sched.Start.
		var wg sync.WaitGroup
		for i := range part.Windows {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := p.Pool.Acquire(ctx); err != nil {
					// Canceled while queued for a slot.
					outs[i] = greedy(&part.Windows[i])
					return
				}
				defer p.Pool.Release()
				// Each in-flight solve gets a private warm workspace;
				// recycling through the pool keeps at most worker-count
				// arenas alive while windows reuse each other's tableaus.
				ws := p.Pool.getWarm()
				defer p.Pool.putWarm(ws)
				outs[i] = solve(&part.Windows[i], ws)
			}(i)
		}
		wg.Wait()
	} else {
		// Sequential windows share one workspace: every solve after the
		// first starts on the previous window's warmed arena.
		ws := smt.NewWarmStart()
		for i := range part.Windows {
			outs[i] = solve(&part.Windows[i], ws)
		}
	}

	stats := SolveStats{Components: part.Components, Windows: len(part.Windows)}
	smtSolved := 0
	for _, out := range outs {
		if out.err != nil {
			return nil, fmt.Errorf("partitioned xtalksched: %w", out.err)
		}
		if out.smt {
			smtSolved++
		} else {
			stats.Fallbacks++
		}
		stats.Decisions += out.stats.decisions
		stats.Conflicts += out.stats.conflicts
		stats.addTier(out.stats.tier)
		sched.SolverObjective += out.stats.objective
	}
	if err := ctx.Err(); err != nil && smtSolved == 0 {
		return nil, err
	}

	// Stitch: the windows of one component are serialized in partition
	// order — window k starts at the finish of window k-1, the offset a
	// circuit-level barrier can enforce (InsertBarriers materializes it).
	// Components overlay at t=0: they share no qubits and no high-crosstalk
	// pairs, so neither dependencies nor the cost model couple them.
	compOffset := make([]float64, part.Components)
	makespan := 0.0
	for i, w := range part.Windows {
		off := compOffset[w.Component]
		if off > 0 {
			for _, id := range w.Gates {
				sched.Start[id] += off
			}
		}
		compOffset[w.Component] = off + outs[i].makespan
		if compOffset[w.Component] > makespan {
			makespan = compOffset[w.Component]
		}
	}
	// Align components to the common readout slot: every measure fires at
	// the global makespan, so a component finishing early would leave its
	// measured qubits idling — pure decoherence loss. A uniform right-shift
	// of a whole component preserves its internal structure (and therefore
	// every in-component overlap decision), is cost-neutral for unmeasured
	// qubits, and minimizes the pre-readout idle of measured ones; the
	// monolithic encoding finds the same alignment through its lifetime
	// terms.
	if len(part.Measures) > 0 {
		for _, w := range part.Windows {
			shift := makespan - compOffset[w.Component]
			if shift <= 0 {
				continue
			}
			for _, id := range w.Gates {
				sched.Start[id] += shift
			}
		}
	}
	placeMeasures(sched, makespan)
	if stats.Fallbacks > 0 {
		sched.Scheduler = p.Name() + "+fallback"
	}
	sched.Stats = stats
	return sched, nil
}

// enforce interface conformance
var (
	_ ContextScheduler = (*PartitionedXtalkSched)(nil)
	_ ContextScheduler = (*XtalkSched)(nil)
)
