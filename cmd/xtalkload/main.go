// Command xtalkload is the smoke and chaos client for xtalkd: it builds a
// zoo of workload circuits (SWAP / QAOA / Hidden Shift, sized to each
// target device), replays a fixed Zipf-repeated trace of them against a
// running daemon from concurrent clients, and reports how many requests
// succeeded and how the failures split by class (4xx / 5xx / transport).
//
// Usage:
//
//	xtalkload -addr 127.0.0.1:8077 -devices heavyhex:27 -n 10 -jobs 4 -c 2 -out load.json
//	xtalkload -addr 127.0.0.1:8077 -n 40 -chaos -require-avail 1.0
//
// -chaos turns the client into an availability prober for fault-injected
// fleets: retryable failures (429/503/5xx/transport) are retried with
// backoff honoring Retry-After, and -require-avail N fails the run (exit 1)
// when the fraction of trace items that eventually succeeded falls below N.
//
// Serving latency and throughput are measured by perfbench
// (python3 perfbench/run.py --workload warm_serve), not here.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xtalk/internal/device"
	"xtalk/internal/qasm"
	"xtalk/internal/serve"
	"xtalk/internal/workloads"
)

// The trace is fixed so every run replays the same requests: calibration
// seed 1 (which also seeds the Zipf draw), day 0, a swap/qaoa/hs mix.
const (
	traceSeed    = 1
	traceZipf    = 1.2
	chaosRetries = 8
	reqTimeout   = 2 * time.Minute
)

var traceKinds = []string{"swap", "qaoa", "hs"}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8077", "daemon address (host:port)")
		devices  = flag.String("devices", "poughkeepsie", "comma-separated device specs to spread the trace over")
		jobs     = flag.Int("jobs", 24, "distinct trace jobs (circuit x device) in the zoo")
		conc     = flag.Int("c", 8, "concurrent clients")
		n        = flag.Int("n", 50, "total requests")
		out      = flag.String("out", "-", "result JSON path (- for stdout)")
		chaos    = flag.Bool("chaos", false, "availability-probe mode: retry retryable failures (429/503/5xx/transport) with backoff, honoring Retry-After")
		reqAvail = flag.Float64("require-avail", 0, "minimum availability (eventually-succeeded fraction); below it the run exits 1")
	)
	flag.Parse()
	if err := run(*addr, *devices, *jobs, *conc, *n, *out, *chaos, *reqAvail); err != nil {
		fmt.Fprintln(os.Stderr, "xtalkload:", err)
		os.Exit(1)
	}
}

// buildZoo generates count pre-marshaled compile requests round-robined
// over devices and workload kinds, each pinned to an explicit seed and day
// so the daemon's default epoch cannot skew the trace.
func buildZoo(devSpecs []string, count int) ([][]byte, error) {
	devs := make([]*device.Device, len(devSpecs))
	for i, spec := range devSpecs {
		d, err := device.NewFromSpecForDay(spec, traceSeed, 0)
		if err != nil {
			return nil, fmt.Errorf("device %q: %w", spec, err)
		}
		devs[i] = d
	}
	zoo := make([][]byte, 0, count)
	for i := 0; len(zoo) < count; i++ {
		topo := devs[i%len(devs)].Topo
		kind := traceKinds[(i/len(devs))%len(traceKinds)]
		src, err := jobSource(kind, topo, i)
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", kind, devSpecs[i%len(devs)], err)
		}
		seed, day := int64(traceSeed), 0
		body, err := json.Marshal(serve.CompileRequest{
			Source: src, Device: devSpecs[i%len(devs)], Seed: &seed, Day: &day,
		})
		if err != nil {
			return nil, err
		}
		zoo = append(zoo, body)
	}
	return zoo, nil
}

// jobSource is the QASM of variant i of a workload kind on topo; the
// variant index keeps fingerprints distinct.
func jobSource(kind string, topo *device.Topology, i int) (string, error) {
	switch kind {
	case "swap":
		c, err := workloads.SwapCircuit(topo, 0, 1+(i/2)%(topo.NQubits-1))
		if err != nil {
			return "", err
		}
		return qasm.Dump(c), nil
	case "qaoa":
		c, _, err := workloads.QAOAChainCircuit(topo, 4, traceSeed+int64(i))
		if err != nil {
			return "", err
		}
		return qasm.Dump(c), nil
	default: // "hs"
		chain, err := workloads.Chain(topo, 4)
		if err != nil {
			return "", err
		}
		c, _, err := workloads.HiddenShiftCircuit(topo, chain, uint(i%16), i%2 == 1)
		if err != nil {
			return "", err
		}
		return qasm.Dump(c), nil
	}
}

// Report is the result document.
type Report struct {
	Addr    string `json:"addr"`
	Devices string `json:"devices"`
	Jobs    int    `json:"jobs"`
	Clients int    `json:"clients"`
	// Requests counts trace items that produced a successful response.
	Requests int `json:"requests"`
	// Errors is the total error occurrences across all attempts, split by
	// class below: client-side rejections (4xx, includes shed 429s),
	// server-side failures (5xx, includes draining 503s), and transport
	// errors (connect/timeout/reset — the daemon never answered).
	Errors          int64 `json:"errors"`
	Errors4xx       int64 `json:"errors_4xx"`
	Errors5xx       int64 `json:"errors_5xx"`
	ErrorsTransport int64 `json:"errors_transport"`
	// Failed counts trace items that never succeeded (after retries in
	// -chaos mode); Availability is the fraction that did — the chaos gate.
	Failed       int64   `json:"failed"`
	Availability float64 `json:"availability"`
	Chaos        bool    `json:"chaos,omitempty"`
	Retries      int64   `json:"retries,omitempty"`
}

func run(addr, devCSV string, jobs, conc, n int, out string, chaos bool, requireAvail float64) error {
	devSpecs := splitCSV(devCSV)
	if len(devSpecs) == 0 || jobs < 1 || conc < 1 || n < 1 {
		return fmt.Errorf("need at least one device and -jobs, -c, -n >= 1")
	}
	zoo, err := buildZoo(devSpecs, jobs)
	if err != nil {
		return err
	}
	base := "http://" + strings.TrimPrefix(addr, "http://")
	client := &http.Client{Timeout: reqTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: conc}}

	// The Zipf stream is drawn up front under one RNG so the trace is
	// deterministic regardless of worker interleaving.
	zipf := rand.NewZipf(rand.New(rand.NewSource(traceSeed)), traceZipf, 1, uint64(len(zoo)-1))
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- int(zipf.Uint64())
	}
	close(next)

	var (
		ok, errs4xx, errs5xx, errsConn, retried atomic.Int64
		wg                                      sync.WaitGroup
	)
	attempts := 1
	if chaos {
		attempts += chaosRetries
	}
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				var err error
				for a := 0; a < attempts; a++ {
					if a > 0 {
						retried.Add(1)
					}
					if err = submit(client, base, zoo[idx]); err == nil {
						break
					}
					var he *httpError
					switch {
					case errors.As(err, &he) && he.status >= 400 && he.status < 500:
						errs4xx.Add(1)
					case errors.As(err, &he):
						errs5xx.Add(1)
					default:
						errsConn.Add(1)
					}
					if !chaos || !retryable(err) {
						break
					}
					time.Sleep(retryDelay(err, a))
				}
				if err == nil {
					ok.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	rep := Report{
		Addr: addr, Devices: devCSV, Jobs: len(zoo), Clients: conc,
		Requests:  int(ok.Load()),
		Errors4xx: errs4xx.Load(), Errors5xx: errs5xx.Load(), ErrorsTransport: errsConn.Load(),
		Failed: int64(n) - ok.Load(), Chaos: chaos, Retries: retried.Load(),
	}
	rep.Errors = rep.Errors4xx + rep.Errors5xx + rep.ErrorsTransport
	rep.Availability = float64(rep.Requests) / float64(n)
	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(doc)
	} else if err = os.WriteFile(out, doc, 0o644); err == nil {
		fmt.Printf("xtalkload: %d/%d requests ok (availability %.3f, %d retries), %d errors (%d 4xx / %d 5xx / %d transport) -> %s\n",
			rep.Requests, n, rep.Availability, rep.Retries,
			rep.Errors, rep.Errors4xx, rep.Errors5xx, rep.ErrorsTransport, out)
	}
	if err != nil {
		return err
	}
	if rep.Availability < requireAvail {
		return fmt.Errorf("availability %.3f below required %.3f (%d/%d items failed)",
			rep.Availability, requireAvail, rep.Failed, n)
	}
	return nil
}

// httpError is a non-200 daemon answer, preserved with its status and
// Retry-After hint for classification and chaos-mode backoff.
type httpError struct {
	status     int
	retryAfter time.Duration
	body       string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// retryable reports whether a chaos-mode retry can help: shed (429),
// draining/unavailable (503), other 5xx and transport errors can clear;
// remaining 4xx are deterministic rejections.
func retryable(err error) bool {
	var he *httpError
	if errors.As(err, &he) {
		return he.status == http.StatusTooManyRequests || he.status >= 500
	}
	return true // transport error
}

// retryDelay picks the wait before retry attempt+1: the server's Retry-After
// when present, else 50ms doubling per attempt, capped at 1s.
func retryDelay(err error, attempt int) time.Duration {
	var he *httpError
	if errors.As(err, &he) && he.retryAfter > 0 {
		return he.retryAfter
	}
	return min(50*time.Millisecond<<attempt, time.Second)
}

func splitCSV(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// submit posts one compile request and drains a 200 reply; any other
// status becomes an httpError carrying the status and Retry-After hint.
func submit(client *http.Client, base string, body []byte) error {
	resp, err := client.Post(base+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		he := &httpError{status: resp.StatusCode, body: string(bytes.TrimSpace(msg))}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			he.retryAfter = time.Duration(secs) * time.Second
		}
		return he
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}
