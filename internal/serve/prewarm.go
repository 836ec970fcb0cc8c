package serve

import (
	"time"

	"xtalk/internal/pipeline"
)

// Prewarm — the join/epoch-flip warm-up engine. A daemon that just joined
// the ring (or whose calibration epoch just flipped) owns fingerprints its
// tiers have never seen; without prewarm every one of them is a first-hit
// proxy miss or, worse, a cold solve. The prewarm engine closes that gap in
// the background: it asks each ring peer for its transferable fingerprint
// index (GET /artifacts/index), keeps the ones this node owns and does not
// already hold, and pulls them over the bulk transfer endpoint in
// bulkBatchSize batches, verifying every frame (self-checking codec +
// fingerprint re-match) before admitting it to the memory and disk tiers.
//
// Prewarm never competes with serving:
//
//   - It runs on one background goroutine per trigger, with at most one run
//     in flight (a trigger during a run schedules exactly one follow-up).
//   - It only *observes* peer breakers (Breaker.Snapshot): an open breaker
//     skips the peer, but prewarm's own failures never trip a breaker —
//     warm-up traffic must not degrade the serving path's routing.
//   - Every peer call is bounded by PeerTimeout under the server lifecycle
//     context, so Close always releases it promptly.

// PrewarmStats is a snapshot of the prewarm engine's counters, surfaced in
// /stats so operators can watch a joining node fill.
type PrewarmStats struct {
	// Runs counts completed prewarm passes; Active reports one in flight.
	Runs   int64 `json:"runs"`
	Active bool  `json:"active"`
	// Admitted counts verified artifacts admitted to the local tiers;
	// Skipped counts frames the sender lacked or that failed verification;
	// PeerErrors counts index/batch calls that failed outright;
	// BreakerSkips counts peers left alone because their breaker was open.
	Admitted     int64 `json:"admitted"`
	Skipped      int64 `json:"skipped"`
	PeerErrors   int64 `json:"peer_errors"`
	BreakerSkips int64 `json:"breaker_skips"`
	// LastReason is what triggered the most recent run (join, epoch-flip);
	// LastMS its wall-clock cost.
	LastReason string  `json:"last_reason,omitempty"`
	LastMS     float64 `json:"last_ms,omitempty"`
}

// triggerPrewarm starts a background prewarm pass. If one is already
// running the request coalesces into a single pending follow-up, so a
// burst of epoch flips costs one extra pass, not one per flip.
func (s *Server) triggerPrewarm(reason string) {
	if s.ring == nil || s.cfg.DisablePrewarm {
		return
	}
	s.prewarmMu.Lock()
	if s.prewarmActive {
		s.prewarmPending = reason
		s.prewarmMu.Unlock()
		return
	}
	s.prewarmActive = true
	s.prewarmMu.Unlock()
	go s.prewarmLoop(reason)
}

// prewarmLoop runs prewarm passes until no follow-up is pending.
func (s *Server) prewarmLoop(reason string) {
	for {
		s.prewarmRun(reason)
		s.prewarmMu.Lock()
		if s.prewarmPending == "" {
			s.prewarmActive = false
			s.prewarmMu.Unlock()
			return
		}
		reason, s.prewarmPending = s.prewarmPending, ""
		s.prewarmMu.Unlock()
	}
}

// prewarmRun executes one pass over every ring peer.
func (s *Server) prewarmRun(reason string) {
	start := time.Now()
	// Everything a local tier holds needs no pulling.
	held := map[string]struct{}{}
	for _, fp := range s.transferKeys() {
		held[fp] = struct{}{}
	}
	now := time.Now()
	for _, peer := range s.ring.Nodes() {
		if peer == s.ring.Self() {
			continue
		}
		if s.ctx.Err() != nil {
			break
		}
		if br := s.breaker(peer).Snapshot(now); br.State == BreakerOpen {
			s.prewarmBreakerSkips.Add(1)
			continue
		}
		index, err := s.fetchPeerIndex(s.ctx, peer)
		if err != nil {
			s.prewarmPeerErrors.Add(1)
			continue
		}
		var want []string
		for _, fp := range index {
			if !s.ring.Owns(fp) {
				continue
			}
			if _, ok := held[fp]; ok {
				continue
			}
			want = append(want, fp)
		}
		for len(want) > 0 && s.ctx.Err() == nil {
			batch := want
			if len(batch) > bulkBatchSize {
				batch = batch[:bulkBatchSize]
			}
			want = want[len(batch):]
			admitted, skipped, err := s.fetchPeerArtifacts(s.ctx, peer, batch, func(fp string, art *pipeline.CompiledArtifact) {
				s.publish(fp, art)
				held[fp] = struct{}{}
			})
			s.prewarmAdmitted.Add(int64(admitted))
			s.prewarmSkipped.Add(int64(skipped))
			if err != nil {
				s.prewarmPeerErrors.Add(1)
				break
			}
		}
	}
	s.prewarmMu.Lock()
	s.prewarmLastReason = reason
	s.prewarmLastMS = float64(time.Since(start)) / float64(time.Millisecond)
	s.prewarmMu.Unlock()
	s.prewarmRuns.Add(1)
}

// PrewarmStats snapshots the prewarm engine's counters.
func (s *Server) PrewarmStats() PrewarmStats {
	s.prewarmMu.Lock()
	reason, lastMS, active := s.prewarmLastReason, s.prewarmLastMS, s.prewarmActive
	s.prewarmMu.Unlock()
	return PrewarmStats{
		Runs:         s.prewarmRuns.Load(),
		Active:       active,
		Admitted:     s.prewarmAdmitted.Load(),
		Skipped:      s.prewarmSkipped.Load(),
		PeerErrors:   s.prewarmPeerErrors.Load(),
		BreakerSkips: s.prewarmBreakerSkips.Load(),
		LastReason:   reason,
		LastMS:       lastMS,
	}
}
