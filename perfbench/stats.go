package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the percentile ladder tail_ms is picked from: whole
// percentiles up to 99, then 99.9 and 99.99. A ladder (rather than "the
// 11th-largest sample") keeps the reported percentile in place when the
// sample count moves a little.
var tailLadder = func() []float64 {
	var l []float64
	for p := 50; p <= 99; p++ {
		l = append(l, float64(p))
	}
	return append(l, 99.9, 99.99)
}()

// minBeyond is the number of samples that must lie strictly beyond a
// percentile before it may be reported as the tail.
const minBeyond = 10

// percentile returns the p-th percentile (0..100) of sorted by the
// nearest-rank method: the smallest sample with at least p% of the samples
// at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := nearestRank(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tail picks the highest ladder percentile with at least minBeyond samples
// strictly above its nearest-rank position, and returns that percentile,
// its value and the number of samples beyond it. With too few samples for
// even the median, it returns the median with whatever lies beyond.
func tail(samples []float64) (p, value float64, beyond int) {
	sorted := sortedCopy(samples)
	n := len(sorted)
	p = tailLadder[0]
	for _, q := range tailLadder {
		if n-nearestRank(q, n) >= minBeyond {
			p = q
		}
	}
	return p, percentile(sorted, p), n - nearestRank(p, n)
}

// nearestRank is the 1-based rank of the p-th percentile of n samples. The
// small slack keeps p*n that is whole in exact arithmetic (99.9% of 48000)
// from rounding up a rank in floating point.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the nearest-rank median of xs.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// geomean returns the geometric mean of strictly positive values (0 when
// xs is empty or holds a non-positive value).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// intendedLatency is an open-loop sample: the time from when the request
// was due to be sent to when its reply completed. Timing from the due time
// rather than the actual send charges a stall to every request it delays,
// which is what a user arriving on schedule experiences.
func intendedLatency(due, done time.Time) time.Duration { return done.Sub(due) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
