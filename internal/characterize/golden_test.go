package characterize

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"xtalk/internal/device"
	"xtalk/internal/rb"
)

// dayZeroGolden holds the exact float64 bits of every day-0 measurement
// the paper_loop benchmark's campaign produces on the three paper devices.
// The simulation kernels may get faster; these bits may not move.
const dayZeroGolden = "testdata/day0_measurements.golden"

// dayZeroLines runs the day-0 one-hop+binpack campaign on each paper device
// with the paper_loop RB shape and renders every measurement as one line of
// float64 bit patterns, in report order.
func dayZeroLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for i, name := range []device.SystemName{device.Poughkeepsie, device.Johannesburg, device.Boeblingen} {
		dev, err := device.NewForDay(name, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg := rb.Config{Lengths: []int{1, 2, 4, 8, 16}, Sequences: 6, Shots: 64, Seed: 1000 + 10*int64(i)}
		rep, err := Run(dev, OneHopBinPacked, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range rep.Measurements {
			lines = append(lines, fmt.Sprintf("%s %s %016x %016x %016x %016x", name, m.Pair,
				math.Float64bits(m.CondFirst), math.Float64bits(m.CondSecond),
				math.Float64bits(m.IndepFirst), math.Float64bits(m.IndepSecond)))
		}
	}
	return lines
}

// TestDayZeroMeasurementsGolden is the bit-identity oracle of the RB
// trajectory kernels and of the campaign's seed assignment: the report must
// match the recorded bits whatever the worker count.
func TestDayZeroMeasurementsGolden(t *testing.T) {
	raw, err := os.ReadFile(dayZeroGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		got := dayZeroLines(t)
		runtime.GOMAXPROCS(prev)
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS=%d: %d measurements, golden has %d", procs, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("GOMAXPROCS=%d: measurement %d\n got %s\nwant %s", procs, k, got[k], want[k])
			}
		}
	}
}
