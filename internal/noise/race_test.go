//go:build race

package noise

// raceEnabled reports a -race build: the detector makes sync.Pool drop
// pooled values at random, so allocation counts are not meaningful.
const raceEnabled = true
