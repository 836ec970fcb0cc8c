package pipeline

import (
	"sync"

	"xtalk/internal/core"
	"xtalk/internal/device"
)

// noiseKey identifies one device calibration + detection threshold: the
// synthesized calibration is fully determined by (system, seed, day).
type noiseKey struct {
	name      device.SystemName
	seed      int64
	day       int
	threshold float64
}

var noiseCache sync.Map // noiseKey -> *core.NoiseData

// GroundTruthNoise extracts the device's ground-truth NoiseData at the
// given high-crosstalk threshold, memoized per (system, seed, day,
// threshold): drivers that build many engines and schedulers against the
// same calibration pay for the extraction once. The memo is never evicted,
// so it is for callers with a bounded set of calibrations; New does not
// use it. The returned NoiseData is shared across callers and must be
// treated as read-only.
func GroundTruthNoise(dev *device.Device, threshold float64) *core.NoiseData {
	k := noiseKey{name: dev.Name, seed: dev.Seed, day: dev.Day, threshold: threshold}
	if v, ok := noiseCache.Load(k); ok {
		return v.(*core.NoiseData)
	}
	v, _ := noiseCache.LoadOrStore(k, core.NoiseDataFromDevice(dev, threshold))
	return v.(*core.NoiseData)
}

// memoizedGroundTruth returns the GroundTruthNoise memo entry for dev at
// threshold, or nil when none was filed; it never files one.
func memoizedGroundTruth(dev *device.Device, threshold float64) *core.NoiseData {
	v, ok := noiseCache.Load(noiseKey{name: dev.Name, seed: dev.Seed, day: dev.Day, threshold: threshold})
	if !ok {
		return nil
	}
	return v.(*core.NoiseData)
}
