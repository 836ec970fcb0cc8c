// Command xtalkd is the crosstalk-aware compilation daemon: the staged
// pipeline served over HTTP with a content-addressed schedule cache in
// front of it. Identical submissions — same circuit up to reordering of
// independent gates, same device/seed/day, same compile knobs — are
// deduplicated: the first pays the SMT solve, the rest are cache hits, and
// concurrent identical requests collapse onto a single in-flight solve.
//
// With -store the cache gains a persistent disk tier: artifacts spill to
// checksummed files, and a restarted daemon serves previously compiled
// fingerprints without invoking the solver. With -peers several daemons
// form a fleet: fingerprints are routed over a consistent-hash ring and
// non-owners proxy to the owner (falling back to local compute if the
// owner is unreachable).
//
// Usage:
//
//	xtalkd -addr :8077 -device heavyhex:27 -partition -budget 2s
//	xtalkd -addr :8077 -store /var/lib/xtalkd -store-mb 512
//	xtalkd -addr :8077 -self hostA:8077 -peers hostB:8077,hostC:8077 -store /var/lib/xtalkd
//
// Failure domains are first-class: peer proxying runs behind per-peer
// circuit breakers with bounded retries, client deadlines (deadline_ms)
// propagate into the solver budget, a bounded admission queue sheds load
// with 429/503 + Retry-After instead of queueing unboundedly, and SIGTERM
// triggers a graceful drain (stop admitting, finish in-flight, flush the
// store). -faults installs the deterministic fault-injection rig
// (internal/faultinject) for chaos testing.
//
// API (see internal/serve):
//
//	POST /compile   {"source": "<OpenQASM or gate-list>", "device": "...", "day": N}
//	                (a non-JSON body is treated as the raw source)
//	GET  /epoch     current calibration epoch {device, seed, day}
//	POST /epoch     flip the epoch, e.g. {"day": 2} on calibration rollover
//	GET  /stats     cache + tier + pipeline + breaker statistics
//	GET  /healthz   liveness (stays green through a drain)
//	GET  /readyz    readiness (503 once draining starts)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"xtalk/internal/device"
	"xtalk/internal/faultinject"
	"xtalk/internal/pipeline"
	"xtalk/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8077", "listen address")
		devSpec   = flag.String("device", "heavyhex:27", "default device spec: "+device.SpecGrammar)
		seed      = flag.Int64("seed", 1, "default device seed")
		day       = flag.Int("day", 0, "default calibration day")
		omega     = flag.Float64("omega", 0.5, "crosstalk weight factor")
		budget    = flag.Duration("budget", 2*time.Second, "anytime SMT budget per schedule (0 = run to optimality)")
		partition = flag.Bool("partition", true, "use the conflict-partitioned scheduling engine")
		window    = flag.Int("window", 0, "max two-qubit gates per window SMT instance (0 = default cap)")
		portfolio = flag.Bool("portfolio", false, "race the SMT engine against the greedy heuristic under -budget")
		route     = flag.Bool("route", false, "route circuits onto the device topology before scheduling")
		decompose = flag.Bool("decompose", true, "decompose SWAP gates into CNOTs before scheduling")
		cacheMB   = flag.Int64("cache-mb", 64, "memory tier size bound in MiB: artifacts plus their encoded replies")
		cacheKB   = flag.Int64("cache-kb", 0, "memory tier bound in KiB (overrides -cache-mb; testing/bench knob)")
		store     = flag.String("store", "", "persistent artifact store directory (empty = memory-only)")
		storeMB   = flag.Int64("store-mb", 512, "disk store size bound in MiB")
		self      = flag.String("self", "", "this daemon's advertised host:port ring identity (required with -peers)")
		peers     = flag.String("peers", "", "comma-separated peer daemon host:port list (enables consistent-hash routing)")
		maxBodyMB = flag.Int64("max-body-mb", 16, "max /compile request body size in MiB")
		readTO    = flag.Duration("read-timeout", time.Minute, "HTTP read timeout")
		writeTO   = flag.Duration("write-timeout", 10*time.Minute, "HTTP write timeout (bounds one cold compile + response)")
		idleTO    = flag.Duration("idle-timeout", 2*time.Minute, "HTTP idle connection timeout")
		queue     = flag.Int("queue", 0, "max concurrent cold compilations (0 = GOMAXPROCS)")
		shedQueue = flag.Int("shed-queue", 0, "max cold compilations waiting behind the -queue slots before load is shed with 429 (0 = 4x -queue, negative = no waiting room)")
		workers   = flag.Int("workers", 0, "SMT solve pool width per device pipeline (0 = GOMAXPROCS)")
		doCertify = flag.Bool("certify", false, "run the independent schedule certifier on every compile (violations fail the request)")
		peerTO    = flag.Duration("peer-timeout", serve.DefaultPeerTimeout, "per-attempt peer proxy timeout (dial/headers/body)")
		peerRetry = flag.Int("peer-retries", 1, "extra peer proxy attempts after a retryable failure, with jittered backoff (0 = none)")
		brkFails  = flag.Int("breaker-failures", serve.DefaultBreakerFailures, "consecutive peer failures before the circuit breaker trips open")
		brkCool   = flag.Duration("breaker-cooldown", serve.DefaultBreakerCooldown, "breaker open interval before the first half-open probe (doubles while the peer stays down)")
		drainTO   = flag.Duration("drain-timeout", 30*time.Second, "graceful drain bound on SIGTERM: max wait for in-flight requests before forcing shutdown")
		faults    = flag.String("faults", "", "deterministic fault-injection plan, e.g. seed=7,solve.delay=200ms,peer.blackhole=1 (see internal/faultinject)")
		idleConns = flag.Int("peer-idle-conns", serve.DefaultPeerIdleConns, "kept-alive connections per ring peer in the proxy/transfer transport")
		noPrewarm = flag.Bool("no-prewarm", false, "disable the join/epoch-flip artifact prewarm engine")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060; empty = off)")
		quiet     = flag.Bool("quiet", false, "suppress the per-request access log (benchmark runs: formatting 6k lines/s costs real throughput)")
	)
	flag.Parse()
	cacheBytes := *cacheMB << 20
	if *cacheKB > 0 {
		cacheBytes = *cacheKB << 10
	}
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	// CLI convention: -peer-retries 0 means none; the Config convention
	// reserves 0 for the default and negative for none.
	cfgRetries := *peerRetry
	if cfgRetries <= 0 {
		cfgRetries = -1
	}
	cfg := serve.Config{
		Spec: *devSpec,
		Seed: *seed,
		Day:  *day,
		Pipeline: pipeline.Config{
			Omega:          cliOmega(*omega),
			Budget:         *budget,
			Partition:      *partition,
			WindowGates:    *window,
			Portfolio:      *portfolio,
			Route:          *route,
			DecomposeSwaps: *decompose,
			Workers:        *workers,
			Certify:        *doCertify,
		},
		CacheBytes:      cacheBytes,
		StoreDir:        *store,
		StoreBytes:      *storeMB << 20,
		Self:            *self,
		Peers:           peerList,
		MaxBodyBytes:    *maxBodyMB << 20,
		MaxConcurrent:   *queue,
		MaxQueue:        *shedQueue,
		PeerTimeout:     *peerTO,
		PeerRetries:     cfgRetries,
		BreakerFailures: *brkFails,
		BreakerCooldown: *brkCool,
		PeerIdleConns:   *idleConns,
		DisablePrewarm:  *noPrewarm,
	}
	var injector *faultinject.Injector
	if *faults != "" {
		plan, err := faultinject.ParsePlan(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xtalkd:", err)
			os.Exit(1)
		}
		injector = faultinject.New(plan)
		injector.Apply(&cfg)
		log.Printf("xtalkd: fault injection armed: %s", *faults)
	}
	if *pprofAddr != "" {
		// net/http/pprof registers its handlers on http.DefaultServeMux at
		// import time; the serving mux is separate, so profiling stays off
		// the public listener and can bind localhost-only.
		go func() {
			log.Printf("xtalkd: pprof on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("xtalkd: pprof listener: %v", err)
			}
		}()
	}
	if err := run(*addr, httpTimeouts{read: *readTO, write: *writeTO, idle: *idleTO, drain: *drainTO}, cfg, injector, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "xtalkd:", err)
		os.Exit(1)
	}
}

// cliOmega maps the CLI convention (0 means omega 0) onto the pipeline
// convention (0 means paper default, negative means true 0).
func cliOmega(omega float64) float64 {
	if omega == 0 {
		return -1
	}
	return omega
}

// httpTimeouts carries the http.Server deadlines: a daemon exposed to a
// fleet must not let a stalled or trickling client pin a connection (and
// its goroutine) forever. drain bounds the SIGTERM graceful drain.
type httpTimeouts struct {
	read, write, idle, drain time.Duration
}

func run(addr string, to httpTimeouts, cfg serve.Config, injector *faultinject.Injector, quiet bool) error {
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	handler := s.Handler()
	if !quiet {
		handler = logRequests(handler)
	}
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       to.read,
		WriteTimeout:      to.write,
		IdleTimeout:       to.idle,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("xtalkd: serving %s (seed %d, day %d) on %s", cfg.Spec, cfg.Seed, cfg.Day, addr)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	// Graceful drain, in order: stop admitting (/readyz flips to 503, new
	// compiles shed), let every in-flight request finish and the store sync,
	// then close the listener, and only then cancel the lifecycle context —
	// a solve that was admitted before the signal always completes.
	log.Printf("xtalkd: draining (bound %v)", to.drain)
	s.BeginDrain()
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), to.drain)
	defer cancelDrain()
	if err := s.Drain(drainCtx); err != nil {
		log.Printf("xtalkd: drain incomplete: %v", err)
	} else {
		log.Printf("xtalkd: drain complete: zero in-flight requests, store flushed")
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	s.Close()
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if injector != nil {
		log.Printf("xtalkd: injected faults: %s", injector.Stats())
	}
	log.Printf("xtalkd: bye")
	return nil
}

// logRequests is a one-line access log: the daemon's only observability
// besides /stats, kept deliberately tiny.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		if r.URL.Path != "/healthz" {
			log.Printf("%s %s %v", r.Method, r.URL.Path, time.Since(t0).Round(time.Microsecond))
		}
	})
}
