package main

import (
	"math"
	"testing"
	"time"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		wantP      float64
		wantBeyond int
	}{
		{5, 50, 2},        // too few for any ladder step: the median
		{20, 50, 10},      // p50 leaves exactly 10 beyond
		{100, 90, 10},     // p91 would leave 9
		{199, 94, 11},     // p95 would leave 9
		{200, 95, 10},     // p96 would leave 8
		{1000, 99, 10},    // p99.9 would leave 1
		{48000, 99.9, 48}, // p99.99 would leave 4
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // unsorted on purpose
		}
		p, v, beyond := tail(xs)
		if p != tc.wantP || beyond != tc.wantBeyond {
			t.Errorf("n=%d: got p%v with %d beyond, want p%v with %d", tc.n, p, beyond, tc.wantP, tc.wantBeyond)
		}
		if want := float64(tc.n - beyond); v != want {
			t.Errorf("n=%d: value %v, want %v (the sample with %d above it)", tc.n, v, want, beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {25, 1}, {50, 2}, {51, 3}, {100, 4}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if median([]float64{5, 1, 3}) != 3 {
		t.Error("median of 5,1,3 is not 3")
	}
}

func TestIntendedLatencyChargesTheStall(t *testing.T) {
	// Sends due every 1ms; the first reply stalls 10ms, so the second
	// request, due at 1ms, could only go out at 10ms. Timed from its due
	// time it took 9.5ms, not the 0.5ms its own round trip took.
	t0 := time.Unix(0, 0)
	due := t0.Add(time.Millisecond)
	sent := t0.Add(10 * time.Millisecond)
	done := sent.Add(500 * time.Microsecond)
	if got := intendedLatency(due, done); got != 9500*time.Microsecond {
		t.Fatalf("intended latency %v, want 9.5ms", got)
	}
}

func TestSelfTimesSubtractChildCoverage(t *testing.T) {
	at := func(us int) time.Time { return time.Unix(0, int64(us)*1000) }
	spans := []span{
		{Name: "op", Start: at(0), End: at(100), Parent: -1},
		{Name: "serve.roundtrip", Start: at(10), End: at(40), Parent: 0},
		{Name: "core.schedule", Start: at(40), End: at(90), Parent: 0},
		{Name: "qasm.parse", Start: at(50), End: at(60), Parent: 2},
		{Name: "qasm.parse", Start: at(55), End: at(70), Parent: 2}, // overlaps its sibling
		{Name: "op", Start: at(200), End: at(210), Parent: -1},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"op":              30 * time.Microsecond, // 100-30-50 + 10
		"serve.roundtrip": 30 * time.Microsecond,
		"core.schedule":   30 * time.Microsecond, // 50 minus the union [50,70]
		"qasm.parse":      25 * time.Microsecond,
	}
	for name, d := range self {
		if d != want[name] {
			t.Errorf("%s self time %v, want %v", name, d, want[name])
		}
	}
}

func TestSelfTimesSumToOpWallTime(t *testing.T) {
	tr := &tracer{}
	root := tr.begin("op")
	tr.do("core.schedule", func() { tr.do("qasm.parse", func() { time.Sleep(time.Millisecond) }) })
	tr.end(root)
	var sum time.Duration
	for _, d := range selfTimes(tr.spans) {
		sum += d
	}
	if total := rootTotal(tr.spans); sum != total {
		t.Fatalf("self times sum to %v, op wall time is %v", sum, total)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(1,4,16) = %v, want 4", g)
	}
	if g := geomean([]float64{2, 0.5}); math.Abs(g-1) > 1e-12 {
		t.Errorf("geomean(2,0.5) = %v, want 1", g)
	}
	if geomean(nil) != 0 || geomean([]float64{1, -1}) != 0 {
		t.Error("geomean of empty or non-positive input is not 0")
	}
}

func TestErrorRatioFloorsBothErrors(t *testing.T) {
	if r := errorRatio(0.2, 0); r != 0.2/1e-4 {
		t.Errorf("ratio with zero crosstalk-aware error = %v", r)
	}
	if r := errorRatio(0, 0); r != 1 {
		t.Errorf("ratio of two zero errors = %v, want 1", r)
	}
}
