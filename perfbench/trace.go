package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// span is one timed call into a layer. Parent is the index of the
// enclosing span in the tracer (-1 for an op's root span); all spans of
// one op share Op.
type span struct {
	Name       string
	Start, End time.Time
	Parent     int
	Op         int
}

// tracer keeps spans in memory; they are summarised when the run ends.
// It is used from one goroutine at a time.
type tracer struct {
	spans []span
	open  []int // stack of open span indexes
	op    int
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Now(), Parent: parent, Op: t.op})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	t.spans[id].End = time.Now()
	t.open = t.open[:len(t.open)-1]
}

// do runs f inside a span.
func (t *tracer) do(name string, f func()) {
	id := t.begin(name)
	f()
	t.end(id)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval its direct children cover. The
// "op" root spans' self time is the residual no layer span accounts for.
// Summed over all names, self times equal the summed root durations.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][][2]time.Time)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Time{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += s.End.Sub(s.Start) - covered(s.Start, s.End, children[i])
	}
	return out
}

// covered returns how much of [lo, hi] the union of intervals covers.
func covered(lo, hi time.Time, ivs [][2]time.Time) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0].Before(ivs[j][0]) })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a.Before(cur) {
			a = cur
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			total += b.Sub(a)
			cur = b
		}
	}
	return total
}

// rootTotal sums the durations of the op root spans.
func rootTotal(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Parent < 0 {
			d += s.End.Sub(s.Start)
		}
	}
	return d
}

// goRuntime returns GC cycles and allocated bytes so far in this process.
func goRuntime() (uint32, uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.NumGC, m.TotalAlloc
}

// writeSpans writes a traced run's spans to the work directory.
func writeSpans(r *runCtx, name string, spans []span) error {
	type rec struct {
		Name    string  `json:"name"`
		StartUS float64 `json:"start_us"`
		EndUS   float64 `json:"end_us"`
		Parent  int     `json:"parent"`
		Op      int     `json:"op"`
	}
	if len(spans) == 0 {
		return nil
	}
	t0 := spans[0].Start
	out := make([]rec, len(spans))
	for i, s := range spans {
		out[i] = rec{s.Name, float64(s.Start.Sub(t0).Nanoseconds()) / 1e3, float64(s.End.Sub(t0).Nanoseconds()) / 1e3, s.Parent, s.Op}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	path := filepath.Join(r.workdir, fmt.Sprintf("trace-%s-seed%d.json", name, r.seed))
	r.diag["trace_file"] = path
	return os.WriteFile(path, b, 0o644)
}
