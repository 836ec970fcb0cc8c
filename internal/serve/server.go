package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xtalk/internal/circuit"
	"xtalk/internal/core"
	"xtalk/internal/pipeline"
	"xtalk/internal/qasm"
)

// Config shapes a compilation server.
type Config struct {
	// Spec, Seed and Day select the default device (any device.ParseSpec
	// string); requests may override all three per call. Together they form
	// the server's initial calibration epoch (see Epoch / AdvanceEpoch).
	Spec string
	Seed int64
	Day  int
	// Pipeline carries the compile knobs (omega, budget, partitioning,
	// routing...). Execution fields are ignored: the service is
	// compile-only, so Shots/Mitigate are forced off and Noise is left to
	// the per-device ground truth.
	Pipeline pipeline.Config
	// CacheBytes bounds the memory tier — artifacts, their encoded replies
	// and request aliases together (DefaultCacheBytes when 0).
	CacheBytes int64
	// StoreDir, when non-empty, enables the persistent disk tier below the
	// memory cache: artifacts spill to one checksummed file each, so a
	// restarted daemon serves warm hits without re-solving. StoreBytes
	// bounds it (DefaultStoreBytes when 0).
	StoreDir   string
	StoreBytes int64
	// Self and Peers enable multi-node mode: Self is this daemon's
	// advertised host:port ring identity, Peers the other members.
	// Fingerprints are routed over a consistent-hash ring; a daemon that
	// does not own a fingerprint proxies /compile to the owner (with a
	// local-compute fallback on peer failure). Self is required when Peers
	// is non-empty.
	Self  string
	Peers []string
	// MaxBodyBytes caps /compile request bodies (DefaultMaxBodyBytes
	// when 0); oversized bodies get a clean 413.
	MaxBodyBytes int64
	// MaxConcurrent bounds concurrently running cold compilations — the
	// admission queue width. Requests beyond it queue on the shared
	// core.SolvePool. Default GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue bounds cold compilations *waiting* behind the MaxConcurrent
	// running ones. Beyond it the server sheds load: the request is
	// rejected immediately with a Retry-After hint (HTTP 429) instead of
	// queueing unboundedly. 0 selects 4x MaxConcurrent; negative means no
	// waiting room at all.
	MaxQueue int
	// PeerTimeout bounds one proxy attempt to a ring peer, including
	// response headers (DefaultPeerTimeout when 0). A hung peer costs at
	// most this long per attempt before the breaker and local fallback
	// take over.
	PeerTimeout time.Duration
	// PeerRetries is the number of additional proxy attempts after the
	// first fails retryably (transport error or peer 5xx), each preceded
	// by exponential backoff with full jitter. 0 selects the default (1);
	// negative disables retries.
	PeerRetries int
	// BreakerFailures and BreakerCooldown shape the per-peer circuit
	// breakers: after BreakerFailures consecutive proxy failures a peer is
	// tripped open and short-circuited to local fallback until a probe
	// succeeds; probes start after BreakerCooldown, doubling while the
	// peer stays down. Zero values select the package defaults.
	BreakerFailures int
	BreakerCooldown time.Duration
	// PeerIdleConns sizes the peer transport's per-host keep-alive pool
	// (DefaultPeerIdleConns when 0). Proxied hits are sub-millisecond once
	// warm, so connection churn — not bandwidth — is the peer path's tax;
	// the pool should cover the expected concurrent proxy fan-in per peer.
	PeerIdleConns int
	// PeerTransport overrides the peer-proxy HTTP transport. Fault
	// injection (internal/faultinject) wraps NewPeerTransport here; nil
	// selects NewPeerTransport(PeerTimeout, PeerIdleConns).
	PeerTransport http.RoundTripper
	// DisablePrewarm turns off the join/epoch-flip prewarm engine (tests
	// and single-purpose tooling; production fleets want it on).
	DisablePrewarm bool
	// SolveHook, when non-nil, runs at the start of every underlying cold
	// compile, after admission but before the solver. A returned error
	// fails the compile. Fault injection uses it to slow down or fail the
	// solver deterministically.
	SolveHook func(ctx context.Context) error
	// WrapStore, when non-nil, decorates the disk tier built from
	// StoreDir before the server uses it (fault injection wraps latency,
	// errors and corruption around the real store).
	WrapStore func(ArtifactStore) ArtifactStore
}

// DefaultPeerTimeout bounds one peer-proxy attempt when the configuration
// does not: generous enough for an owner's cold solve under the default
// budget, small enough that a hung peer cannot pin a request for long.
const DefaultPeerTimeout = 15 * time.Second

// peerDialTimeout bounds the TCP connect to a peer. A dead host fails in
// one round trip; only a blackholed one needs the full timeout.
const peerDialTimeout = 2 * time.Second

// DefaultPeerIdleConns sizes the peer transport's per-host keep-alive pool
// when the configuration does not. Warm proxied hits finish in well under a
// millisecond, so every new dial on the peer path costs more than the
// request it carries; the pool covers a heavily concurrent proxy fan-in so
// steady-state peer traffic reuses connections instead of churning them.
const DefaultPeerIdleConns = 64

// NewPeerTransport returns the default peer-proxy transport: bounded dial,
// TLS handshake and response-header waits, so a hung or dead peer is
// detected at the transport layer instead of pinning the request until the
// server's write timeout, and a per-host keep-alive pool of idleConns.
// headerTimeout <= 0 selects DefaultPeerTimeout, idleConns <= 0
// DefaultPeerIdleConns.
func NewPeerTransport(headerTimeout time.Duration, idleConns int) http.RoundTripper {
	if headerTimeout <= 0 {
		headerTimeout = DefaultPeerTimeout
	}
	if idleConns <= 0 {
		idleConns = DefaultPeerIdleConns
	}
	return &http.Transport{
		DialContext:           (&net.Dialer{Timeout: peerDialTimeout, KeepAlive: 30 * time.Second}).DialContext,
		TLSHandshakeTimeout:   peerDialTimeout,
		ResponseHeaderTimeout: headerTimeout,
		MaxIdleConns:          4 * idleConns,
		MaxIdleConnsPerHost:   idleConns,
		IdleConnTimeout:       90 * time.Second,
	}
}

// DefaultMaxBodyBytes caps /compile request bodies when the configuration
// does not (16 MiB — far beyond any device-sized circuit).
const DefaultMaxBodyBytes = 16 << 20

// peerHeader marks a proxied /compile request with the sender's ring
// identity. Its presence suppresses re-proxying, so a membership
// disagreement between daemons degrades to a local compute instead of a
// forwarding loop.
const peerHeader = "X-Xtalk-Peer"

// Hit-tier labels, from fastest to slowest: the in-memory LRU, the on-disk
// store, a peer daemon's cache (or solve), and a local cold solve.
const (
	TierMem  = "mem"
	TierDisk = "disk"
	TierPeer = "peer"
	TierCold = "cold"
)

// CompileRequest is the /compile JSON body. Source holds the program
// (OpenQASM 2.0 or the library's gate-list format); the optional device
// fields override the server's default device for this request.
type CompileRequest struct {
	Source string `json:"source"`
	Tag    string `json:"tag,omitempty"`
	Device string `json:"device,omitempty"`
	Seed   *int64 `json:"seed,omitempty"`
	Day    *int   `json:"day,omitempty"`
	// DeadlineMS is the caller's patience in milliseconds. The server
	// propagates it everywhere work happens on the request's behalf: proxy
	// attempts are bounded by it, queue waits count against it, and a cold
	// compile's anytime solver budget is capped to the time remaining — a
	// request never computes past its caller's deadline. A solve capped
	// below the configured budget is flagged Degraded in the response and
	// kept out of the caches. 0 means no caller deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// CompileResponse is the /compile JSON reply: the artifact plus cache
// provenance. Tier names the layer that served the artifact (mem, disk,
// peer, cold); Cached reports a local cache hit (mem or disk); Collapsed
// reports that the request joined an identical in-flight compilation
// instead of solving; PeerTier, on proxied requests, is the tier the owning
// daemon served from.
type CompileResponse struct {
	Fingerprint string `json:"fingerprint"`
	Cached      bool   `json:"cached"`
	Tier        string `json:"tier"`
	PeerTier    string `json:"peer_tier,omitempty"`
	Collapsed   bool   `json:"collapsed,omitempty"`
	// Degraded reports that the artifact was produced under a solver
	// budget capped below the configured one by the caller's deadline
	// (anytime incumbent or heuristic fallback): valid and certified, but
	// possibly above the optimal cost. Degraded artifacts are served, not
	// cached.
	Degraded        bool    `json:"degraded,omitempty"`
	Tag             string  `json:"tag,omitempty"`
	Device          string  `json:"device"`
	Seed            int64   `json:"seed"`
	Day             int     `json:"day"`
	Scheduler       string  `json:"scheduler"`
	NQubits         int     `json:"nqubits"`
	Gates           int     `json:"gates"`
	MakespanNS      float64 `json:"makespan_ns"`
	Cost            float64 `json:"cost"`
	SolverObjective float64 `json:"solver_objective"`
	// CompileMS is the wall-clock cost of the cold compile that produced
	// the artifact (also on cache hits: the cost the cache saved).
	CompileMS float64 `json:"compile_ms"`
	Solve     string  `json:"solve,omitempty"`
	QASM      string  `json:"qasm"`

	// encoded, when set, is the untagged response's exact JSON wire form
	// (trailing newline included), length its Content-Length header value
	// and tagAt the offset where a non-empty Tag's field goes: the HTTP
	// layer writes it with a Content-Length instead of re-marshalling.
	// Responses, bytes and header values served out of the memory tier are
	// shared between requests and must be treated as immutable by
	// everything downstream of compile.
	encoded []byte
	length  []string
	tagAt   int
}

// EpochRequest is the POST /epoch JSON body: any subset of the triple;
// omitted fields keep their current value. The canonical rollover is
// {"day": N+1} once a day's calibration lands.
type EpochRequest struct {
	Device *string `json:"device,omitempty"`
	Seed   *int64  `json:"seed,omitempty"`
	Day    *int    `json:"day,omitempty"`
}

// EpochResponse is the /epoch JSON reply.
type EpochResponse struct {
	Epoch   Epoch `json:"epoch"`
	Flipped bool  `json:"flipped"`
}

// ErrorResponse is the JSON error body. Line carries the 1-based source
// line for parse failures, so clients get actionable 400s.
type ErrorResponse struct {
	Error string `json:"error"`
	Line  int    `json:"line,omitempty"`
}

// Stats is the /stats JSON reply.
type Stats struct {
	UptimeS  float64 `json:"uptime_s"`
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	Inflight int64   `json:"inflight"`
	// MaxConcurrent is the admission-queue width: Inflight at MaxConcurrent
	// means the solver queue is saturated and further cold compiles wait.
	// MaxQueue is the bounded waiting room behind it; Shed counts requests
	// rejected (429 + Retry-After) because the room was full or their
	// deadline expired while queued.
	MaxConcurrent int   `json:"max_concurrent"`
	MaxQueue      int   `json:"max_queue"`
	Shed          int64 `json:"shed"`
	// Draining reports that the server has stopped admitting compiles
	// (graceful shutdown in progress); Degraded counts compiles whose
	// solver budget was capped by a caller deadline.
	Draining  bool  `json:"draining"`
	Degraded  int64 `json:"degraded"`
	Collapsed int64 `json:"collapsed"`
	Solves    int64 `json:"solves"`
	// Hit-tier split: memory LRU, disk store, served-by-peer, plus peer
	// fallbacks (owner unreachable, computed locally) and proxied-in
	// requests (this daemon answered as the ring owner for a peer).
	MemHits       int64 `json:"mem_hits"`
	DiskHits      int64 `json:"disk_hits"`
	PeerHits      int64 `json:"peer_hits"`
	PeerFallbacks int64 `json:"peer_fallbacks"`
	// PeerRetries counts extra proxy attempts after a retryable failure;
	// BreakerShorts counts requests that skipped the proxy entirely
	// because the owner's breaker was open. Breakers is the per-peer
	// breaker state (nil in single-node mode).
	PeerRetries   int64                   `json:"peer_retries"`
	BreakerShorts int64                   `json:"breaker_short_circuits"`
	Breakers      map[string]BreakerStats `json:"breakers,omitempty"`
	ProxiedIn     int64                   `json:"proxied_in"`
	StoreErrors   int64                   `json:"store_errors,omitempty"`
	// PeerConns is the per-peer connection-reuse split for proxy traffic:
	// Dialed counts round trips that paid a fresh TCP connect, Reused those
	// served off the keep-alive pool. A healthy warm fleet is ~all reuse.
	PeerConns map[string]PeerConnStats `json:"peer_conns,omitempty"`
	// Prewarm is the join/epoch-flip warm-up engine (nil in single-node
	// mode).
	Prewarm *PrewarmStats `json:"prewarm,omitempty"`
	// Epoch is the current calibration epoch; EpochFlips counts rollovers
	// since start.
	Epoch      Epoch `json:"epoch"`
	EpochFlips int64 `json:"epoch_flips"`
	// Ring lists the consistent-hash membership (nil in single-node mode);
	// Self is this daemon's ring identity.
	Self string   `json:"self,omitempty"`
	Ring []string `json:"ring,omitempty"`
	// Cache describes the memory tier; Store the disk tier (nil when the
	// daemon runs memory-only).
	Cache   CacheStats  `json:"cache"`
	Store   *StoreStats `json:"store,omitempty"`
	Devices []string    `json:"devices"`
	// Text is the human-readable rendering (pipeline stage table + tier and
	// cache counters) of this same snapshot.
	Text string `json:"text"`
}

// Server is the compilation service: a two-tier content-addressed artifact
// cache (memory LRU of artifacts and replies over a persistent disk store)
// in front of per-device compilation pipelines, with consistent-hash
// routing across peer daemons, singleflight collapse of concurrent
// identical requests and a SolvePool-backed admission queue for cold
// compiles. All methods are safe for concurrent use.
type Server struct {
	cfg     Config
	mem     *memTier
	store   ArtifactStore // nil when Config.StoreDir is empty
	ring    *Ring         // nil in single-node mode
	client  *http.Client
	flight  flightGroup
	admit   *core.SolvePool
	started time.Time

	// peerConns tracks the per-peer dialed-vs-reused connection split for
	// proxy round trips (lazily created per peer).
	peerConnMu sync.Mutex
	peerConns  map[string]*peerConnCounters

	// Prewarm engine state: at most one run in flight, a trigger during a
	// run coalesces into one pending follow-up.
	prewarmMu           sync.Mutex
	prewarmActive       bool
	prewarmPending      string
	prewarmLastReason   string
	prewarmLastMS       float64
	prewarmRuns         atomic.Int64
	prewarmAdmitted     atomic.Int64
	prewarmSkipped      atomic.Int64
	prewarmPeerErrors   atomic.Int64
	prewarmBreakerSkips atomic.Int64

	// breakers holds one circuit breaker per ring peer (lazily created).
	breakerMu sync.Mutex
	breakers  map[string]*Breaker

	// jitterMu guards jitter's unseeded source (proxy retry backoff).
	jitterMu sync.Mutex
	jitter   *rand.Rand

	// draining is the graceful-shutdown latch: once set, new compiles are
	// rejected with 503 + Retry-After while in-flight ones finish. active
	// counts /compile requests currently inside serve (any tier).
	draining atomic.Bool
	active   atomic.Int64

	// lifecycle context: cold compiles run under it (not under individual
	// request contexts) so a disconnecting leader cannot poison the
	// followers collapsed onto its flight. Close cancels it.
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	cur       Epoch                         // current calibration epoch (canonical device name)
	engines   map[string]*pipeline.Pipeline // keyed by spec|seed|day
	engineLRU []string                      // engine keys, least recently used first
	defKey    string                        // current-epoch device key, never evicted

	requests      atomic.Int64
	errors        atomic.Int64
	inflight      atomic.Int64 // cold compiles currently running or queued
	collapsed     atomic.Int64 // requests that joined an in-flight compile
	solves        atomic.Int64 // underlying cold compiles actually executed
	memHits       atomic.Int64
	diskHits      atomic.Int64
	peerHits      atomic.Int64 // requests served by proxying to the ring owner
	peerFallbacks atomic.Int64 // proxy failures that fell back to local compute
	peerRetries   atomic.Int64 // extra proxy attempts after retryable failures
	breakerShorts atomic.Int64 // proxies skipped because the owner's breaker was open
	proxiedIn     atomic.Int64 // requests this daemon answered for a peer
	storeErrors   atomic.Int64 // disk-tier write failures (artifact still served)
	shed          atomic.Int64 // requests rejected by admission control
	degraded      atomic.Int64 // compiles whose budget a caller deadline capped
	epochFlips    atomic.Int64
}

// PeerConnStats is the /stats rendering of one peer's connection-reuse
// split on the proxy path.
type PeerConnStats struct {
	Dialed int64 `json:"dialed"`
	Reused int64 `json:"reused"`
}

type peerConnCounters struct {
	dialed atomic.Int64
	reused atomic.Int64
}

// connCounters returns (lazily creating) the connection counters for one
// ring peer.
func (s *Server) connCounters(peer string) *peerConnCounters {
	s.peerConnMu.Lock()
	defer s.peerConnMu.Unlock()
	c, ok := s.peerConns[peer]
	if !ok {
		c = &peerConnCounters{}
		s.peerConns[peer] = c
	}
	return c
}

// New builds a Server and its default-device pipeline (so a misconfigured
// device spec fails at startup, not on the first request).
func New(cfg Config) (*Server, error) {
	if cfg.Spec == "" {
		return nil, errors.New("serve: Config.Spec is required")
	}
	if len(cfg.Peers) > 0 && cfg.Self == "" {
		return nil, errors.New("serve: Config.Self is required in multi-node mode (peers set)")
	}
	cfg.Pipeline = sanitize(cfg.Pipeline)
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.MaxQueue == 0:
		cfg.MaxQueue = 4 * cfg.MaxConcurrent
	case cfg.MaxQueue < 0:
		cfg.MaxQueue = 0
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = DefaultPeerTimeout
	}
	switch {
	case cfg.PeerRetries == 0:
		cfg.PeerRetries = 1
	case cfg.PeerRetries < 0:
		cfg.PeerRetries = 0
	}
	transport := cfg.PeerTransport
	if transport == nil {
		transport = NewPeerTransport(cfg.PeerTimeout, cfg.PeerIdleConns)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		mem:       newMemTier(cfg.CacheBytes),
		client:    &http.Client{Transport: transport},
		admit:     core.NewSolvePool(cfg.MaxConcurrent),
		started:   time.Now(),
		ctx:       ctx,
		cancel:    cancel,
		engines:   map[string]*pipeline.Pipeline{},
		breakers:  map[string]*Breaker{},
		peerConns: map[string]*peerConnCounters{},
		jitter:    rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	s.defKey = engineKey(cfg.Spec, cfg.Seed, cfg.Day)
	eng, err := s.engine(cfg.Spec, cfg.Seed, cfg.Day)
	if err != nil {
		cancel()
		return nil, err
	}
	// The epoch records the canonical device name, so disk-tier epoch
	// directories and /stats agree regardless of which spec alias the
	// configuration used.
	s.cur = Epoch{Device: string(eng.Dev.Name), Seed: cfg.Seed, Day: cfg.Day}
	if cfg.StoreDir != "" {
		store, err := NewStore(cfg.StoreDir, cfg.StoreBytes)
		if err != nil {
			cancel()
			return nil, err
		}
		var tier ArtifactStore = store
		if cfg.WrapStore != nil {
			tier = cfg.WrapStore(tier)
		}
		if err := tier.SetEpoch(s.cur); err != nil {
			cancel()
			return nil, err
		}
		s.store = tier
	}
	if len(cfg.Peers) > 0 {
		s.ring = NewRing(cfg.Self, cfg.Peers)
		// A joining node owns fingerprints it has never seen: pull them from
		// peers' tiers in the background before traffic asks for them.
		s.triggerPrewarm("join")
	}
	return s, nil
}

// maxEngines bounds the per-device pipeline map: requests may name
// arbitrary device/seed/day triples, and each engine pins a device model
// plus its ground-truth noise data, so the map must not grow with
// untrusted input. Least-recently-used engines (and their aggregated
// stats) are dropped beyond the bound; the current-epoch device is pinned.
const maxEngines = 32

func engineKey(spec string, seed int64, day int) string {
	return fmt.Sprintf("%s|%d|%d", spec, seed, day)
}

// sanitize strips execution and noise-injection fields: served compilers
// are compile-only and content-addressed over per-device ground truth.
func sanitize(cfg pipeline.Config) pipeline.Config {
	cfg.Shots = 0
	cfg.Mitigate = false
	cfg.Noise = nil
	return cfg
}

// Close stops the server: in-flight cold compiles are canceled through the
// lifecycle context (anytime schedulers return their incumbent and the
// artifact is still produced; run-to-optimality solves fail with the
// cancellation error).
func (s *Server) Close() { s.cancel() }

// CurrentEpoch returns the calibration epoch requests default to.
func (s *Server) CurrentEpoch() Epoch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// AdvanceEpoch flips the server's default calibration epoch — the
// day-rollover path. The new epoch's engine is built (and validated) up
// front, the disk tier's epoch pointer follows, and old-epoch entries stay
// servable but age out of the disk tier lazily. Nothing is recompiled
// eagerly: refills happen admit-on-miss, collapsed by the singleflight, so
// a rollover never stampedes the solver.
func (s *Server) AdvanceEpoch(e Epoch) (Epoch, bool, error) {
	cur := s.CurrentEpoch()
	if e.Device == "" {
		e.Device = cur.Device
	}
	eng, err := s.engine(e.Device, e.Seed, e.Day)
	if err != nil {
		return cur, false, &badRequestError{err}
	}
	e.Device = string(eng.Dev.Name)
	s.mu.Lock()
	if s.cur == e {
		s.mu.Unlock()
		return e, false, nil
	}
	s.cur = e
	s.defKey = engineKey(e.Device, e.Seed, e.Day)
	s.mu.Unlock()
	s.epochFlips.Add(1)
	if s.store != nil {
		if err := s.store.SetEpoch(e); err != nil {
			return e, true, err
		}
	}
	// The flip changes which resolved identities requests default to; the
	// owned slices of the new working set may already exist on peers'
	// tiers, so refill them in the background rather than admit-on-miss.
	s.triggerPrewarm("epoch-flip")
	return e, true, nil
}

// engine returns (building on demand) the pipeline for one device triple.
// Construction happens outside the lock — building a large device
// synthesizes calibration and extracts ground-truth noise, and that must
// not stall unrelated requests. A racing duplicate build is harmless: the
// first pipeline inserted wins and the loser is discarded.
func (s *Server) engine(spec string, seed int64, day int) (*pipeline.Pipeline, error) {
	key := engineKey(spec, seed, day)
	s.mu.Lock()
	if p, ok := s.engines[key]; ok {
		s.touchEngine(key)
		s.mu.Unlock()
		return p, nil
	}
	s.mu.Unlock()

	p, err := pipeline.NewFromSpec(spec, seed, day, s.cfg.Pipeline)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.engines[key]; ok {
		s.touchEngine(key)
		return existing, nil
	}
	s.engines[key] = p
	s.engineLRU = append(s.engineLRU, key)
	for len(s.engines) > maxEngines {
		evicted := false
		for i, k := range s.engineLRU {
			if k == s.defKey {
				continue
			}
			delete(s.engines, k)
			s.engineLRU = append(s.engineLRU[:i], s.engineLRU[i+1:]...)
			evicted = true
			break
		}
		if !evicted {
			break
		}
	}
	return p, nil
}

// touchEngine moves key to the most-recently-used end. Caller holds s.mu.
func (s *Server) touchEngine(key string) {
	for i, k := range s.engineLRU {
		if k == key {
			s.engineLRU = append(append(s.engineLRU[:i], s.engineLRU[i+1:]...), key)
			return
		}
	}
}

// Compile resolves one request through memory cache → disk store → peer
// ring → singleflight → admission → cold compile. It is the
// transport-independent core of the /compile handler.
func (s *Server) Compile(ctx context.Context, req CompileRequest) (*CompileResponse, error) {
	return s.serve(false, func() (*CompileResponse, error) {
		return s.compile(ctx, req, s.CurrentEpoch(), aliasKey{}, false)
	})
}

// serve runs one /compile request under the admission accounting: it is
// counted as active, as a request and — when forwarded by a peer — as
// proxied in, and it is shed while draining. A failed run counts as an
// error.
func (s *Server) serve(forwarded bool, run func() (*CompileResponse, error)) (*CompileResponse, error) {
	// The active count is taken before the draining check: a request that
	// passes the check is visible to Drain's in-flight accounting, so the
	// drain can never lose a request admitted concurrently with it.
	s.active.Add(1)
	defer s.active.Add(-1)
	s.requests.Add(1)
	if forwarded {
		s.proxiedIn.Add(1)
	}
	if s.draining.Load() {
		s.shed.Add(1)
		return nil, &shedError{status: http.StatusServiceUnavailable, retryAfter: time.Second,
			msg: "draining: not admitting new compiles"}
	}
	resp, err := run()
	if err != nil {
		s.errors.Add(1)
	}
	return resp, err
}

// deadlineOf resolves the request's effective deadline: the earlier of the
// transport context's deadline and the client-declared deadline_ms budget.
func deadlineOf(ctx context.Context, req CompileRequest) (time.Time, bool) {
	dl, ok := ctx.Deadline()
	if req.DeadlineMS > 0 {
		d := time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
		if !ok || d.Before(dl) {
			dl, ok = d, true
		}
	}
	return dl, ok
}

// compile resolves req with its omitted device, seed and day taken from
// def. body is the request's body key when the HTTP layer has already
// looked it up (an untagged /compile body without a deadline): it is the
// alias this request registers. Otherwise the resolved identity's memoKey
// is looked up and registered. forwarded requests (proxied by a peer) must
// not re-proxy, whatever this daemon thinks the ring looks like.
func (s *Server) compile(ctx context.Context, req CompileRequest, def Epoch, body aliasKey, forwarded bool) (*CompileResponse, error) {
	spec, seed, day := def.Device, def.Seed, def.Day
	if req.Device != "" {
		spec = req.Device
	}
	if req.Seed != nil {
		seed = *req.Seed
	}
	if req.Day != nil {
		day = *req.Day
	}
	dl, hasDL := deadlineOf(ctx, req)

	// Warm fast path: the request's resolved identity is an alias of a
	// memory-tier entry, so a hit skips parse, canonicalize, hash and
	// marshal — the request becomes one lock-brief lookup plus one Write.
	key := body
	if key == (aliasKey{}) && req.Source != "" {
		key = memoKey(spec, seed, day, req.Source)
		if fp, art, reply := s.mem.get("", key); fp != "" {
			if hasDL && time.Until(dl) <= 0 {
				return nil, errDeadlineExhausted
			}
			return s.memHit(req, fp, key, art, reply), nil
		}
	}

	eng, err := s.engine(spec, seed, day)
	if err != nil {
		return nil, &badRequestError{err}
	}
	if strings.TrimSpace(req.Source) == "" {
		return nil, &badRequestError{errors.New("empty source")}
	}
	circ, err := eng.Materialize(&pipeline.Request{Source: req.Source})
	if err != nil {
		return nil, &badRequestError{err}
	}
	if hasDL && time.Until(dl) <= 0 {
		return nil, errDeadlineExhausted
	}
	// Fingerprint canonicalizes internally; the cold path canonicalizes
	// again inside Artifact, but the hot path pays for exactly one pass.
	fp := eng.Fingerprint(circ)
	if _, art, reply := s.mem.get(fp, aliasKey{}); art != nil || reply != nil {
		// A new spelling of a known circuit: it is an alias from now on.
		s.mem.put(fp, key, nil, nil)
		return s.memHit(req, fp, key, art, reply), nil
	}
	if s.store != nil {
		if art, ok := s.store.Get(fp); ok {
			s.diskHits.Add(1)
			// Promote into the memory tier: repeated hits on a restarted
			// daemon pay the decode exactly once.
			s.mem.put(fp, key, art, nil)
			return s.response(req, art, TierDisk, false), nil
		}
	}
	if s.ring != nil && !forwarded {
		if owner := s.ring.Owner(fp); owner != s.ring.Self() {
			br := s.breaker(owner)
			if !br.Allow(time.Now()) {
				// Breaker open: skip the doomed proxy and its timeout tax;
				// the owner will be probed again after the cooldown.
				s.breakerShorts.Add(1)
				s.peerFallbacks.Add(1)
			} else {
				resp, perr := s.proxyCompile(ctx, owner, req, spec, seed, day, dl, hasDL)
				// A peer that answers with a client-side 4xx is healthy —
				// only transport failures and 5xx count against the breaker.
				br.Report(perr == nil || isPeerClientError(perr), time.Now())
				if perr == nil {
					s.peerHits.Add(1)
					// A reply the owner keeps serving us is hot: from the
					// peerPromoteHits-th hit on, keep its steady-state form
					// (a local mem hit) so repeats skip the ring hop.
					if !resp.Degraded && resp.Fingerprint == fp && s.mem.peerHit(fp, key) >= peerPromoteHits {
						s.mem.put(fp, key, nil, steady(*resp))
					}
					return resp, nil
				}
				// Owner unreachable (or failing): compute locally rather
				// than failing the request. The artifact is admitted to the
				// local tiers, so a dead peer degrades throughput, not
				// correctness.
				s.peerFallbacks.Add(1)
			}
		}
	}
	art, degraded, shared, err := s.flight.do(ctx, fp,
		func() { s.collapsed.Add(1) },
		func() (*pipeline.CompiledArtifact, bool, error) { return s.coldCompile(circ, fp, eng, dl, hasDL) })
	if err != nil {
		return nil, err
	}
	if !degraded {
		// coldCompile published the artifact; record this spelling (each
		// collapsed follower may bring its own) as an alias of it.
		s.mem.put(fp, key, art, nil)
	}
	resp := s.response(req, art, TierCold, shared)
	resp.Degraded = degraded
	return resp, nil
}

// memHit answers from a memory-tier entry: its shared steady-state reply,
// built from the artifact and kept on first use. A tagged request gets a
// copy carrying its tag, written out with the same encoded bytes.
func (s *Server) memHit(req CompileRequest, fp string, key aliasKey, art *pipeline.CompiledArtifact, reply *CompileResponse) *CompileResponse {
	s.memHits.Add(1)
	if reply == nil {
		reply = steady(*s.response(req, art, TierMem, false))
		s.mem.put(fp, key, nil, reply)
	}
	if req.Tag == "" {
		return reply
	}
	tagged := *reply
	tagged.Tag = req.Tag
	return &tagged
}

// errDeadlineExhausted sheds a request whose deadline passed before any
// compile work started.
var errDeadlineExhausted = &shedError{status: http.StatusGatewayTimeout,
	msg: "deadline exhausted before compilation started"}

// breaker returns (lazily creating) the circuit breaker for one ring peer.
func (s *Server) breaker(owner string) *Breaker {
	s.breakerMu.Lock()
	defer s.breakerMu.Unlock()
	b, ok := s.breakers[owner]
	if !ok {
		b = newBreaker(s.cfg.BreakerFailures, s.cfg.BreakerCooldown)
		s.breakers[owner] = b
	}
	return b
}

// peerStatusError is a peer's non-200 answer, preserved with its status so
// retry and breaker logic can tell client-side rejections (our request was
// bad — the peer is healthy, retrying is pointless) from server-side
// failures (retryable, counts against the breaker).
type peerStatusError struct {
	peer   string
	status int
	body   string
}

func (e *peerStatusError) Error() string {
	return fmt.Sprintf("peer %s: HTTP %d: %s", e.peer, e.status, e.body)
}

// isPeerClientError reports a peer 4xx: the peer answered, so it is healthy
// for breaker purposes even though the proxy call failed.
func isPeerClientError(err error) bool {
	var pe *peerStatusError
	return errors.As(err, &pe) && pe.status >= 400 && pe.status < 500
}

// retryablePeerError reports whether a failed proxy attempt is worth
// repeating: transport errors and peer 5xx are; a 4xx will fail identically
// on every attempt.
func retryablePeerError(err error) bool {
	return err != nil && !isPeerClientError(err)
}

// Proxy retry backoff: full jitter over an exponentially growing cap,
// starting at peerBackoffBase and bounded by peerBackoffMax.
const (
	peerBackoffBase = 100 * time.Millisecond
	peerBackoffMax  = 2 * time.Second
)

// backoff sleeps a full-jitter exponential interval before retry attempt
// `attempt` (1-based), honoring ctx cancellation and never sleeping past the
// request deadline.
func (s *Server) backoff(ctx context.Context, attempt int, dl time.Time, hasDL bool) error {
	cap := peerBackoffBase << (attempt - 1)
	if cap > peerBackoffMax {
		cap = peerBackoffMax
	}
	s.jitterMu.Lock()
	d := time.Duration(s.jitter.Int63n(int64(cap) + 1))
	s.jitterMu.Unlock()
	if hasDL {
		if rem := time.Until(dl); d > rem {
			d = rem
		}
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// proxyCompile forwards one request to the ring owner of its fingerprint,
// with bounded retries (exponential backoff, full jitter) and a per-attempt
// timeout of min(PeerTimeout, time to the request deadline). The effective
// device triple is made explicit first: the owner's default epoch may differ
// from ours, and the fingerprint must not change in transit. The caller's
// remaining deadline budget is propagated in the forwarded body so the owner
// caps its own solve the same way we would.
func (s *Server) proxyCompile(ctx context.Context, owner string, req CompileRequest, spec string, seed int64, day int, dl time.Time, hasDL bool) (*CompileResponse, error) {
	req.Device, req.Seed, req.Day = spec, &seed, &day
	var lastErr error
	attempts := 1 + s.cfg.PeerRetries
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			s.peerRetries.Add(1)
			if err := s.backoff(ctx, attempt-1, dl, hasDL); err != nil {
				return nil, lastErr
			}
		}
		if hasDL {
			// Refresh the propagated budget per attempt: the owner should see
			// what patience is actually left, not the original figure.
			rem := time.Until(dl)
			if rem <= 0 {
				return nil, lastErr
			}
			req.DeadlineMS = int64(rem / time.Millisecond)
			if req.DeadlineMS == 0 {
				req.DeadlineMS = 1
			}
		}
		resp, err := s.proxyAttempt(ctx, owner, req, dl, hasDL)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if !retryablePeerError(err) {
			return nil, err
		}
	}
	return nil, lastErr
}

// proxyAttempt is one bounded proxy call to the owner.
func (s *Server) proxyAttempt(ctx context.Context, owner string, req CompileRequest, dl time.Time, hasDL bool) (*CompileResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	attemptCtx, cancel := context.WithTimeout(ctx, s.cfg.PeerTimeout)
	defer cancel()
	if hasDL && dl.Before(time.Now().Add(s.cfg.PeerTimeout)) {
		// The request deadline lands before the per-attempt timeout would:
		// tighten to it so a slow peer cannot eat the local-fallback budget.
		cancel()
		attemptCtx, cancel = context.WithDeadline(ctx, dl)
		defer cancel()
	}
	// Classify this round trip as keep-alive reuse or a fresh dial: churn
	// on the peer path costs more than the proxied request itself, so the
	// split is first-class telemetry (/stats peer_conns).
	conns := s.connCounters(owner)
	attemptCtx = httptrace.WithClientTrace(attemptCtx, &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				conns.reused.Add(1)
			} else {
				conns.dialed.Add(1)
			}
		},
	})
	httpReq, err := http.NewRequestWithContext(attemptCtx, http.MethodPost, peerURL(owner)+"/compile", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpReq.Header.Set(peerHeader, s.ring.Self())
	httpResp, err := s.client.Do(httpReq)
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 4096))
		return nil, &peerStatusError{peer: owner, status: httpResp.StatusCode, body: string(bytes.TrimSpace(msg))}
	}
	var resp CompileResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return nil, fmt.Errorf("peer %s: %w", owner, err)
	}
	resp.PeerTier, resp.Tier = resp.Tier, TierPeer
	resp.Cached = false
	return &resp, nil
}

// peerURL turns a ring identity (host:port) into a base URL.
func peerURL(node string) string {
	if strings.Contains(node, "://") {
		return strings.TrimSuffix(node, "/")
	}
	return "http://" + node
}

// Deadline-capped solves reserve solveMargin for everything around the
// solver (canonicalize, certify, encode, respond) and never shrink the
// budget below minSolveBudget — the anytime schedulers need a beat to place
// their heuristic incumbent.
const (
	solveMargin    = 50 * time.Millisecond
	minSolveBudget = 20 * time.Millisecond
)

// coldCompile runs one admission-queued compilation under the server's
// lifecycle context and publishes the artifact to both cache tiers. The
// second return reports a degraded solve: the caller's deadline capped the
// solver budget below the configured one, so the artifact is valid and
// certified but possibly above the optimal cost — it is served, not cached.
//
// Admission control happens here, at the mouth of the solver queue: beyond
// MaxConcurrent running + MaxQueue waiting compiles the request is shed with
// 429 + Retry-After instead of queueing unboundedly, and a request whose
// deadline expires while it waits is shed rather than solved for nobody.
func (s *Server) coldCompile(circ *circuit.Circuit, fp string, eng *pipeline.Pipeline, dl time.Time, hasDL bool) (*pipeline.CompiledArtifact, bool, error) {
	depth := s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if int(depth) > s.cfg.MaxConcurrent+s.cfg.MaxQueue {
		s.shed.Add(1)
		return nil, false, &shedError{
			status:     http.StatusTooManyRequests,
			retryAfter: time.Second,
			msg: fmt.Sprintf("solver queue full (%d running + %d waiting)",
				s.cfg.MaxConcurrent, s.cfg.MaxQueue),
		}
	}
	acquireCtx := s.ctx
	if hasDL {
		var cancel context.CancelFunc
		acquireCtx, cancel = context.WithDeadline(s.ctx, dl)
		defer cancel()
	}
	if err := s.admit.Acquire(acquireCtx); err != nil {
		if hasDL && s.ctx.Err() == nil {
			// The caller's deadline expired while queued: shed instead of
			// solving for nobody.
			s.shed.Add(1)
			return nil, false, &shedError{
				status:     http.StatusServiceUnavailable,
				retryAfter: time.Second,
				msg:        "deadline expired while queued for a solver slot",
			}
		}
		return nil, false, err
	}
	defer s.admit.Release()
	s.solves.Add(1)
	if s.cfg.SolveHook != nil {
		// Injected faults run under the lifecycle context, not the request
		// deadline: a fault-slowed solver still finishes its work, and the
		// budget cap below is what honors the caller's patience.
		if err := s.cfg.SolveHook(s.ctx); err != nil {
			return nil, false, err
		}
	}
	preq := pipeline.Request{Circuit: circ}
	degraded := false
	if hasDL {
		rem := time.Until(dl) - solveMargin
		if rem < minSolveBudget {
			rem = minSolveBudget
		}
		if cfgBudget := eng.Config().Budget; cfgBudget <= 0 || rem < cfgBudget {
			// Cap through the anytime solver budget, not a context deadline:
			// budget expiry yields the incumbent (or heuristic fallback) as a
			// valid schedule, where a context cancellation before the first
			// incumbent would fail the request outright.
			preq.Budget = rem
			degraded = true
			s.degraded.Add(1)
		}
	}
	art, err := eng.Artifact(s.ctx, preq)
	if err != nil {
		return nil, false, err
	}
	if art.Fingerprint != fp {
		// Canonicalization is idempotent, so this cannot happen; guard the
		// cache's content-addressing invariant anyway.
		return nil, false, fmt.Errorf("serve: fingerprint drift: %s vs %s", art.Fingerprint, fp)
	}
	if degraded {
		// A deadline-capped artifact may be worse than the budgeted one the
		// fingerprint promises; keeping it out of the tiers means the next
		// unhurried request computes (and caches) the real thing.
		return art, true, nil
	}
	s.publish(fp, art)
	return art, false, nil
}

// publish admits an artifact to the memory tier and spills it to the disk
// tier. The spill is best effort: a full disk must not fail the work that
// produced the artifact. Failures are counted, not hidden.
func (s *Server) publish(fp string, art *pipeline.CompiledArtifact) {
	s.mem.put(fp, aliasKey{}, art, nil)
	if s.store != nil {
		if err := s.store.Put(fp, art); err != nil {
			s.storeErrors.Add(1)
		}
	}
}

func (s *Server) response(req CompileRequest, art *pipeline.CompiledArtifact, tier string, collapsed bool) *CompileResponse {
	resp := &CompileResponse{
		Fingerprint:     art.Fingerprint,
		Cached:          tier == TierMem || tier == TierDisk,
		Tier:            tier,
		Collapsed:       collapsed,
		Tag:             req.Tag,
		Device:          art.Device,
		Seed:            art.Seed,
		Day:             art.Day,
		Scheduler:       art.Scheduler,
		NQubits:         art.NQubits,
		Gates:           art.Gates,
		MakespanNS:      art.Makespan,
		Cost:            art.Cost,
		SolverObjective: art.SolverObjective,
		CompileMS:       float64(art.CompileTime) / float64(time.Millisecond),
		QASM:            art.QASM,
	}
	if art.Solve.Windows > 0 {
		resp.Solve = art.Solve.String()
	}
	return resp
}

// badRequestError marks client-side failures (bad device spec, malformed
// source) for the HTTP layer's 400 mapping.
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

// shedError marks a request rejected by admission control (queue full,
// draining, deadline exhausted). The HTTP layer maps it to its status and —
// when retryAfter is set — a Retry-After header, so well-behaved clients
// back off instead of hammering a saturated daemon.
type shedError struct {
	status     int
	retryAfter time.Duration
	msg        string
}

func (e *shedError) Error() string { return e.msg }

// BeginDrain flips the server into draining mode: new compiles are rejected
// with 503 + Retry-After (and /readyz reports not-ready) while in-flight
// requests keep running. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain waits for every in-flight request to finish, then flushes the disk
// tier, bounded by ctx. Call BeginDrain first (Drain does, defensively);
// then, once Drain returns nil, no request is in flight and the store is
// durable — Close and process exit lose nothing.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for s.active.Load() > 0 || s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: drain: %d requests still in flight: %w",
				s.active.Load(), ctx.Err())
		case <-tick.C:
		}
	}
	if s.store != nil {
		if err := s.store.Sync(); err != nil {
			return fmt.Errorf("serve: drain: store sync: %w", err)
		}
	}
	return nil
}

// Ready reports whether the server is admitting new compiles: the readiness
// (load-balancer) signal, false once draining starts.
func (s *Server) Ready() bool { return !s.draining.Load() }

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	devices := make([]string, 0, len(s.engines))
	for k := range s.engines {
		devices = append(devices, k)
	}
	sort.Strings(devices)
	engines := make([]*pipeline.Pipeline, len(devices))
	for i, k := range devices {
		engines[i] = s.engines[k]
	}
	epoch := s.cur
	s.mu.Unlock()
	st := Stats{
		UptimeS:       time.Since(s.started).Seconds(),
		Requests:      s.requests.Load(),
		Errors:        s.errors.Load(),
		Inflight:      s.inflight.Load(),
		MaxConcurrent: s.cfg.MaxConcurrent,
		MaxQueue:      s.cfg.MaxQueue,
		Shed:          s.shed.Load(),
		Draining:      s.draining.Load(),
		Degraded:      s.degraded.Load(),
		Collapsed:     s.collapsed.Load(),
		Solves:        s.solves.Load(),
		MemHits:       s.memHits.Load(),
		DiskHits:      s.diskHits.Load(),
		PeerHits:      s.peerHits.Load(),
		PeerFallbacks: s.peerFallbacks.Load(),
		PeerRetries:   s.peerRetries.Load(),
		BreakerShorts: s.breakerShorts.Load(),
		ProxiedIn:     s.proxiedIn.Load(),
		StoreErrors:   s.storeErrors.Load(),
		Epoch:         epoch,
		EpochFlips:    s.epochFlips.Load(),
		Cache:         s.mem.stats(),
		Devices:       devices,
	}
	if s.store != nil {
		ss := s.store.Stats()
		st.Store = &ss
	}
	if s.ring != nil {
		st.Self = s.ring.Self()
		st.Ring = s.ring.Nodes()
		pw := s.PrewarmStats()
		st.Prewarm = &pw
	}
	s.peerConnMu.Lock()
	if len(s.peerConns) > 0 {
		st.PeerConns = make(map[string]PeerConnStats, len(s.peerConns))
		for peer, c := range s.peerConns {
			st.PeerConns[peer] = PeerConnStats{Dialed: c.dialed.Load(), Reused: c.reused.Load()}
		}
	}
	s.peerConnMu.Unlock()
	s.breakerMu.Lock()
	if len(s.breakers) > 0 {
		now := time.Now()
		st.Breakers = make(map[string]BreakerStats, len(s.breakers))
		for peer, b := range s.breakers {
			st.Breakers[peer] = b.Snapshot(now)
		}
	}
	s.breakerMu.Unlock()
	st.Text = st.render(engines)
	return st
}

// render is the human-readable form of st: the per-device pipeline stage
// tables (cold compiles only — hits never touch a stage), the cache and
// hit-tier counters, and — when configured — the disk tier, epoch and ring
// membership. Every counter comes from st itself, so the text agrees with
// the JSON fields of the same snapshot.
func (st *Stats) render(engines []*pipeline.Pipeline) string {
	var sb strings.Builder
	for i, k := range st.Devices {
		fmt.Fprintf(&sb, "device %s:\n", k)
		sb.WriteString(engines[i].StatsString())
	}
	cs := st.Cache
	fmt.Fprintf(&sb, "cache: %d hits  %d misses  %d collapsed  %d inflight  %d solves  %d entries  %d aliases  %d/%d bytes  %d evictions\n",
		cs.Hits, cs.Misses, st.Collapsed, st.Inflight, st.Solves,
		cs.Entries, cs.Aliases, cs.Bytes, cs.MaxBytes, cs.Evictions)
	fmt.Fprintf(&sb, "tiers: %d mem  %d disk  %d peer  %d cold solves  (%d peer fallbacks, %d proxied in)\n",
		st.MemHits, st.DiskHits, st.PeerHits, st.Solves, st.PeerFallbacks, st.ProxiedIn)
	if ss := st.Store; ss != nil {
		fmt.Fprintf(&sb, "store: %d entries  %d/%d bytes  %d hits  %d misses  %d writes  %d evictions  %d quarantined  (%s)\n",
			ss.Entries, ss.Bytes, ss.MaxBytes, ss.Hits, ss.Misses, ss.Writes, ss.Evictions, ss.Quarantined, ss.Dir)
	}
	fmt.Fprintf(&sb, "epoch: %s  (%d flips)\n", st.Epoch, st.EpochFlips)
	if pw := st.Prewarm; pw != nil {
		fmt.Fprintf(&sb, "ring: self=%s  nodes=%s\n", st.Self, strings.Join(st.Ring, " "))
		fmt.Fprintf(&sb, "prewarm: %d runs  %d admitted  %d skipped  %d peer errors  %d breaker skips\n",
			pw.Runs, pw.Admitted, pw.Skipped, pw.PeerErrors, pw.BreakerSkips)
	}
	return sb.String()
}

// Handler returns the HTTP surface: POST /compile, GET|POST /epoch, GET
// /stats, GET /healthz, GET /readyz, plus the bulk artifact transfer pair
// GET /artifacts/index and GET /artifacts?fps=... the prewarm engine rides.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/compile", s.handleCompile)
	mux.HandleFunc("/epoch", s.handleEpoch)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/artifacts", s.handleArtifacts)
	mux.HandleFunc("/artifacts/index", s.handleArtifactIndex)
	return mux
}

// handleCompile serves POST /compile. A body is looked up by its bytes
// first: the body key (bodyKey) hashes them with the body's kind and the
// one epoch snapshot its omitted device, seed and day resolve against, and
// a hit writes the entry's steady reply without decoding. A miss decodes —
// a JSON CompileRequest, or any other body as the bare source — and
// resolves through compile under the same snapshot: resolved key (tagged
// and deadline_ms bodies only), fingerprint, disk, ring owner, cold solve.
// An untagged body without a deadline registers its body key as the alias
// there, so its next repeat hits before decoding. A tagged reply is not the
// steady one, and a deadline_ms body rarely repeats byte for byte (a
// forwarding peer refreshes its deadline on every attempt), so those
// register their resolved identity instead.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST required"})
		return
	}
	// MaxBytesReader errors past the limit instead of silently truncating:
	// an oversized circuit must be rejected (413), never compiled as its
	// prefix and never allowed to stall a worker on an unbounded read. The
	// read lands in a pooled buffer: request decoding copies what it keeps,
	// so the hot path amortizes the body allocation away.
	bb := bodyBufPool.Get().(*bytes.Buffer)
	bb.Reset()
	defer bodyBufPool.Put(bb)
	_, err := bb.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	body := bb.Bytes()
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, ErrorResponse{Error: err.Error()})
		return
	}
	def := s.CurrentEpoch()
	isJSON := strings.Contains(r.Header.Get("Content-Type"), "json")
	key := bodyKey(def, isJSON, body)
	forwarded := r.Header.Get(peerHeader) != ""
	resp, err := s.serve(forwarded, func() (*CompileResponse, error) {
		if fp, art, reply := s.mem.get("", key); fp != "" {
			// Only the transport deadline can have passed: a body with a
			// deadline_ms never registers its body key.
			if dl, ok := r.Context().Deadline(); ok && time.Until(dl) <= 0 {
				return nil, errDeadlineExhausted
			}
			return s.memHit(CompileRequest{}, fp, key, art, reply), nil
		}
		var req CompileRequest
		if isJSON {
			if err := json.Unmarshal(body, &req); err != nil {
				return nil, &badRequestError{fmt.Errorf("bad JSON: %w", err)}
			}
			if req.Tag != "" || req.DeadlineMS != 0 {
				key = aliasKey{}
			}
		} else {
			// Raw program body (curl-friendly): the whole payload is the
			// source.
			req.Source = string(body)
		}
		return s.compile(r.Context(), req, def, key, forwarded)
	})
	if err != nil {
		status := http.StatusInternalServerError
		var bad *badRequestError
		if errors.As(err, &bad) {
			status = http.StatusBadRequest
		}
		var shed *shedError
		if errors.As(err, &shed) {
			status = shed.status
			if shed.retryAfter > 0 {
				secs := int(shed.retryAfter.Round(time.Second) / time.Second)
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(secs))
			}
		}
		e := ErrorResponse{Error: err.Error()}
		var pe *qasm.Error
		if errors.As(err, &pe) {
			e.Line = pe.Line
		}
		writeJSON(w, status, e)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleEpoch reads (GET) or flips (POST) the calibration epoch. A day
// rollover is one POST {"day": N}: the epoch pointer moves, the disk tier
// starts preferring old-epoch entries for eviction, and the working set
// refills admit-on-miss under singleflight — no solver stampede.
func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, EpochResponse{Epoch: s.CurrentEpoch()})
	case http.MethodPost:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
			return
		}
		var req EpochRequest
		if err := json.Unmarshal(body, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad JSON: " + err.Error()})
			return
		}
		next := s.CurrentEpoch()
		if req.Device != nil {
			next.Device = *req.Device
		}
		if req.Seed != nil {
			next.Seed = *req.Seed
		}
		if req.Day != nil {
			next.Day = *req.Day
		}
		e, flipped, err := s.AdvanceEpoch(next)
		if err != nil {
			status := http.StatusInternalServerError
			var bad *badRequestError
			if errors.As(err, &bad) {
				status = http.StatusBadRequest
			}
			writeJSON(w, status, ErrorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, EpochResponse{Epoch: e, Flipped: flipped})
	default:
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "GET or POST required"})
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.started).Seconds(),
	})
}

// handleReadyz is the load-balancer readiness signal: 200 while admitting,
// 503 once draining starts — liveness (/healthz) stays green through a
// drain so orchestrators don't kill a daemon that is busy finishing work.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Ready() {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
		return
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
}

// jsonBufPool recycles marshal buffers for the slow writeJSON path;
// bodyBufPool recycles /compile request-body buffers.
var (
	jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

// writeJSON writes v as a JSON body with an explicit Content-Length — a
// pre-encoded CompileResponse verbatim (a tagged one with its tag field
// spliced in at tagAt), everything else marshalled through a pooled buffer
// — so replies (peer-proxied ones included) go out in one sized frame
// instead of a chunked stream.
func writeJSON(w http.ResponseWriter, status int, v any) {
	if resp, ok := v.(*CompileResponse); ok && len(resp.encoded) > 0 {
		if resp.Tag == "" {
			writeRawJSON(w, status, resp.length, resp.encoded)
			return
		}
		tag, _ := json.Marshal(resp.Tag) // a string always marshals
		writeRawJSON(w, status, nil, resp.encoded[:resp.tagAt], tagField, tag, resp.encoded[resp.tagAt:])
		return
	}
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		jsonBufPool.Put(buf)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeRawJSON(w, status, nil, buf.Bytes())
	jsonBufPool.Put(buf)
}

var (
	tagField        = []byte(`,"tag":`)
	jsonContentType = []string{"application/json"}
)

// writeRawJSON writes the concatenation of parts as one JSON body. length
// is its pre-rendered Content-Length header value, or nil to count it
// here. Header value slices are set directly, without a copy: net/http
// only reads them, so a steady reply's slice is shared by every hit.
func writeRawJSON(w http.ResponseWriter, status int, length []string, parts ...[]byte) {
	if length == nil {
		n := 0
		for _, p := range parts {
			n += len(p)
		}
		length = []string{strconv.Itoa(n)}
	}
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = length
	w.WriteHeader(status)
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			return
		}
	}
}
