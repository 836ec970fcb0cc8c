package noise

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"xtalk/internal/core"
	"xtalk/internal/device"
	"xtalk/internal/workloads"
)

// executionGolden holds the outcome histograms of the paper's SWAP circuits
// under ParSched and the exact bits of their ideal distributions. The
// executor may get faster; these numbers may not move.
const executionGolden = "testdata/paper_swap_histograms.golden"

// sortedPairs renders a map as "key=value" items in key order.
func sortedPairs[V any](m map[string]V, format func(V) string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	items := make([]string, len(keys))
	for i, k := range keys {
		items[i] = k + "=" + format(m[k])
	}
	return strings.Join(items, " ")
}

// paperSwapLines executes every paper SWAP circuit on its device under
// ParSched at 2048 shots for seeds 1 and 2, and renders each histogram and
// each ideal distribution as one line.
func paperSwapLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, name := range []device.SystemName{device.Poughkeepsie, device.Johannesburg, device.Boeblingen} {
		dev, err := device.NewForDay(name, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range workloads.SwapBenchmarkPairs[name] {
			c, err := workloads.SwapCircuit(dev.Topo, p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			s, err := core.ParSched{}.Schedule(c, dev)
			if err != nil {
				t.Fatal(err)
			}
			ideal, measured := IdealProbabilities(c)
			lines = append(lines, fmt.Sprintf("%s swap%d-%d ideal %v %s", name, p[0], p[1], measured,
				sortedPairs(ideal, func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) })))
			for _, seed := range []int64{1, 2} {
				res, err := NewExecutor(dev).Run(s, Options{Shots: 2048, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				lines = append(lines, fmt.Sprintf("%s swap%d-%d seed%d %v %s", name, p[0], p[1], seed, res.MeasuredQubits,
					sortedPairs(res.Counts, func(v int) string { return fmt.Sprint(v) })))
			}
		}
	}
	return lines
}

// TestPaperSwapHistogramsGolden is the bit-identity oracle of the executor:
// the same RNG stream through the same float expressions gives the same
// histograms.
func TestPaperSwapHistogramsGolden(t *testing.T) {
	raw, err := os.ReadFile(executionGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := paperSwapLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d lines, golden has %d", len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("line %d\n got %s\nwant %s", k, got[k], want[k])
		}
	}
}
