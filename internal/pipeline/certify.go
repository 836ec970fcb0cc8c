package pipeline

import (
	"xtalk/internal/certify"
	"xtalk/internal/core"
	"xtalk/internal/device"
)

// certifyCheck runs the independent certifier against every freshly
// produced schedule, in tests and binaries alike: precedence, exclusivity,
// readout alignment, device-model durations and the objective cost are
// re-derived from the raw device model, and any violation fails the
// compile, so nothing the schedule stage rejects is ever served or cached.
// Certification verifies an artifact and never changes one, so it leaves
// fingerprints and artifact bytes alone. The claimed cost is the same
// evaluation the artifact records (Schedule.Cost at the engine's noise and
// omega), so a pass here certifies the numbers the serving layer hands out.
//
// The certifier re-derives the crosstalk pair relation from the raw device
// calibration whenever the engine schedules against ground truth (recorded
// once at construction); only when the engine consumed measured
// characterization data is that data handed over, since
// scoring against a model the hardware never exhibited would flag every
// schedule. Alignment (Eq. 11-13) is not enforced here: the greedy engine
// and budget-expired partition windows legitimately produce unaligned
// overlaps.
func (p *Pipeline) certifyCheck(s *core.Schedule) *certify.Report {
	cfg := certify.Config{
		Omega:       p.omega(),
		Threshold:   p.cfg.Threshold,
		CheckCost:   true,
		ClaimedCost: s.Cost(p.Noise, p.omega()),
	}
	if !p.groundTruth {
		cfg.Noise = certifyNoiseModel(p.Noise)
	}
	return certify.Check(s, cfg)
}

// certifyNoiseModel converts the engine's characterization data into the
// certifier's noise model. The conversion lives here — not in
// internal/certify — so the certifier never imports engine types beyond the
// Schedule container.
func certifyNoiseModel(nd *core.NoiseData) *certify.NoiseModel {
	nm := &certify.NoiseModel{
		Independent: make(map[device.Edge]float64, len(nd.Independent)),
		Conditional: make(map[device.Edge]map[device.Edge]float64, len(nd.Conditional)),
		Coherence:   append([]float64(nil), nd.Coherence...),
	}
	for e, v := range nd.Independent {
		nm.Independent[e] = v
	}
	for gi, m := range nd.Conditional {
		inner := make(map[device.Edge]float64, len(m))
		for gj, v := range m {
			inner[gj] = v
		}
		nm.Conditional[gi] = inner
	}
	return nm
}
