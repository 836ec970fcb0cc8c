package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xtalk/internal/certify"
	"xtalk/internal/device"
	"xtalk/internal/pipeline"
	"xtalk/internal/qasm"
)

// newDiskServer builds a server with the persistent tier rooted at dir.
func newDiskServer(t *testing.T, dir string) *Server {
	t.Helper()
	return newDiskServerHook(t, dir, nil)
}

// newDiskServerHook is newDiskServer with Config.SolveHook set to hook.
func newDiskServerHook(t *testing.T, dir string, hook func(context.Context) error) *Server {
	t.Helper()
	s, err := New(Config{
		Spec:      "poughkeepsie",
		Seed:      1,
		StoreDir:  dir,
		Pipeline:  pipeline.Config{Budget: 5 * time.Second},
		SolveHook: hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestDiskTierRestartServesWithoutSolver is the crash-restart contract: a
// fresh daemon over the same store directory serves a previously compiled
// fingerprint bit-identically from disk, with zero solver invocations, and
// the served artifact passes independent certification.
func TestDiskTierRestartServesWithoutSolver(t *testing.T) {
	dir := t.TempDir()
	s1 := newDiskServer(t, dir)
	cold := compileOK(t, s1, CompileRequest{Source: testQASM})
	if cold.Tier != TierCold || cold.Cached {
		t.Fatalf("first compile tier %q cached %v, want cold miss", cold.Tier, cold.Cached)
	}
	s1.Close()

	// "Restart": a brand-new server process state over the same directory.
	s2 := newDiskServerHook(t, dir, func(context.Context) error {
		return errors.New("restarted daemon invoked the solver for a stored fingerprint")
	})
	warm := compileOK(t, s2, CompileRequest{Source: testQASM})
	if warm.Tier != TierDisk || !warm.Cached {
		t.Fatalf("restart compile tier %q cached %v, want disk hit", warm.Tier, warm.Cached)
	}
	if warm.Fingerprint != cold.Fingerprint || warm.QASM != cold.QASM ||
		warm.MakespanNS != cold.MakespanNS || warm.Cost != cold.Cost {
		t.Fatalf("restarted artifact diverged:\ncold %+v\nwarm %+v", cold, warm)
	}
	if st := s2.Stats(); st.Solves != 0 || st.DiskHits != 1 {
		t.Fatalf("restart stats: solves=%d disk=%d, want 0/1", st.Solves, st.DiskHits)
	}

	// The disk-served artifact must stand on its own: reconstruct its QASM
	// under hardware execution semantics and certify against the device model.
	circ, err := qasm.Parse(warm.QASM)
	if err != nil {
		t.Fatalf("served QASM does not parse: %v", err)
	}
	dev, err := device.NewFromSpecForDay(warm.Device, warm.Seed, warm.Day)
	if err != nil {
		t.Fatal(err)
	}
	rep := certify.Check(certify.ReconstructASAP(circ, dev), certify.Config{Omega: 0.5, Threshold: 3})
	if !rep.OK() {
		t.Fatalf("disk-served artifact failed certification:\n%s", rep)
	}

	// Second hit on the same daemon is served from the promoted memory tier.
	again := compileOK(t, s2, CompileRequest{Source: testQASM})
	if again.Tier != TierMem {
		t.Fatalf("post-promotion tier %q, want mem", again.Tier)
	}
}

// TestQuarantinedEntryRecompiles: a corrupted disk entry must never be
// served — the daemon quarantines it, recompiles, and the replacement
// matches the original artifact.
func TestQuarantinedEntryRecompiles(t *testing.T) {
	dir := t.TempDir()
	s1 := newDiskServer(t, dir)
	cold := compileOK(t, s1, CompileRequest{Source: testQASM})
	s1.Close()

	// Flip a payload bit in the stored file.
	arts, err := filepath.Glob(filepath.Join(dir, "*", "*"+artSuffix))
	if err != nil || len(arts) != 1 {
		t.Fatalf("want exactly one stored artifact, got %v (%v)", arts, err)
	}
	b, err := os.ReadFile(arts[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(arts[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newDiskServer(t, dir)
	resp := compileOK(t, s2, CompileRequest{Source: testQASM})
	if resp.Tier != TierCold {
		t.Fatalf("corrupt entry served from tier %q, want cold recompile", resp.Tier)
	}
	if resp.Fingerprint != cold.Fingerprint || resp.QASM != cold.QASM {
		t.Fatal("recompiled artifact diverged from the original")
	}
	st := s2.Stats()
	if st.Solves != 1 || st.Store == nil || st.Store.Quarantined != 1 {
		t.Fatalf("quarantine stats off: %+v", st)
	}
	if bad, _ := filepath.Glob(filepath.Join(dir, "*", "*"+badSuffix)); len(bad) != 1 {
		t.Fatalf("damaged file not renamed aside: %v", bad)
	}
}

// TestEpochFlip: a day rollover flips the default epoch pointer — new
// requests compile (and fingerprint) under the new day, old-epoch artifacts
// stay servable under an explicit Day, and re-posting the same epoch is a
// no-op, not a second flip.
func TestEpochFlip(t *testing.T) {
	s := newDiskServer(t, t.TempDir())
	day0 := compileOK(t, s, CompileRequest{Source: testQASM})

	e, flipped, err := s.AdvanceEpoch(Epoch{Device: "", Seed: 1, Day: 1})
	if err != nil || !flipped || e.Day != 1 {
		t.Fatalf("flip: %+v %v %v", e, flipped, err)
	}
	if _, flipped, _ = s.AdvanceEpoch(e); flipped {
		t.Fatal("re-posting the current epoch must not count as a flip")
	}

	day1 := compileOK(t, s, CompileRequest{Source: testQASM})
	if day1.Day != 1 || day1.Fingerprint == day0.Fingerprint || day1.Tier != TierCold {
		t.Fatalf("post-flip compile: %+v", day1)
	}
	// The old generation still serves under an explicit day.
	zero := 0
	old := compileOK(t, s, CompileRequest{Source: testQASM, Day: &zero})
	if old.Fingerprint != day0.Fingerprint || old.Tier != TierMem {
		t.Fatalf("old epoch no longer servable: %+v", old)
	}
	st := s.Stats()
	if st.EpochFlips != 1 || st.Epoch.Day != 1 || st.Solves != 2 {
		t.Fatalf("epoch stats off: flips=%d epoch=%+v solves=%d", st.EpochFlips, st.Epoch, st.Solves)
	}
	if st.Store.Epoch != st.Epoch.String() {
		t.Fatalf("disk tier epoch pointer %q lags server epoch %q", st.Store.Epoch, st.Epoch)
	}
}

// TestEpochEndpoint drives the same rollover over HTTP.
func TestEpochEndpoint(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get, err := http.Get(ts.URL + "/epoch")
	if err != nil {
		t.Fatal(err)
	}
	var cur EpochResponse
	if err := json.NewDecoder(get.Body).Decode(&cur); err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if cur.Epoch.Day != 0 {
		t.Fatalf("initial epoch %+v", cur.Epoch)
	}

	post, err := http.Post(ts.URL+"/epoch", "application/json", strings.NewReader(`{"day": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	var next EpochResponse
	if err := json.NewDecoder(post.Body).Decode(&next); err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if !next.Flipped || next.Epoch.Day != 2 || next.Epoch.Device != cur.Epoch.Device {
		t.Fatalf("POST /epoch: %+v", next)
	}

	// Bad device in a flip is a 400, and the epoch stays put.
	bad, err := http.Post(ts.URL+"/epoch", "application/json", strings.NewReader(`{"device": "nosuch:1"}`))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad epoch flip: HTTP %d, want 400", bad.StatusCode)
	}
	if got := s.CurrentEpoch(); got.Day != 2 {
		t.Fatalf("failed flip moved the epoch: %+v", got)
	}
}

// fleetNode is one daemon of a two-node test fleet: a Server bound to a
// real listener so peers can reach it.
type fleetNode struct {
	srv  *Server
	http *httptest.Server
	addr string
}

// newFleet starts n daemons that know each other's addresses, sharing no
// state except the ring membership.
func newFleet(t *testing.T, n int) []*fleetNode {
	t.Helper()
	nodes := make([]*fleetNode, n)
	addrs := make([]string, n)
	for i := range nodes {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = &fleetNode{addr: l.Addr().String()}
		nodes[i].http = httptest.NewUnstartedServer(nil)
		nodes[i].http.Listener.Close()
		nodes[i].http.Listener = l
		addrs[i] = nodes[i].addr
	}
	for i, node := range nodes {
		peers := make([]string, 0, n-1)
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		srv, err := New(Config{
			Spec:     "poughkeepsie",
			Seed:     1,
			Self:     node.addr,
			Peers:    peers,
			Pipeline: pipeline.Config{Budget: 5 * time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		node.srv = srv
		node.http.Config = &http.Server{Handler: srv.Handler()}
		node.http.Start()
		t.Cleanup(node.http.Close)
		t.Cleanup(srv.Close)
	}
	return nodes
}

func postCompile(t *testing.T, url string, req CompileRequest) *CompileResponse {
	t.Helper()
	resp, err := http.Post(url+"/compile", "application/json",
		bytes.NewReader(mustJSON(t, req)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST /compile: HTTP %d: %s", resp.StatusCode, e.Error)
	}
	var out CompileResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestFleetRoutesToOwner: in a two-node fleet, both daemons agree on each
// fingerprint's owner; the non-owner proxies, the owner solves exactly
// once, and subsequent requests anywhere in the fleet hit the owner's
// memory tier.
func TestFleetRoutesToOwner(t *testing.T) {
	nodes := newFleet(t, 2)

	first := postCompile(t, nodes[0].http.URL, CompileRequest{Source: testQASM})
	var owner, other *fleetNode
	switch first.Tier {
	case TierCold:
		owner, other = nodes[0], nodes[1]
	case TierPeer:
		if first.PeerTier != TierCold {
			t.Fatalf("first proxied compile peer_tier %q, want cold", first.PeerTier)
		}
		owner, other = nodes[1], nodes[0]
	default:
		t.Fatalf("first compile tier %q", first.Tier)
	}

	// From the non-owner: a peer hit served out of the owner's memory.
	viaPeer := postCompile(t, other.http.URL, CompileRequest{Source: testQASM})
	if viaPeer.Tier != TierPeer || viaPeer.PeerTier != TierMem {
		t.Fatalf("non-owner request tier %q peer_tier %q, want peer/mem", viaPeer.Tier, viaPeer.PeerTier)
	}
	if viaPeer.Fingerprint != first.Fingerprint || viaPeer.QASM != first.QASM {
		t.Fatal("proxied artifact diverged from the owner's")
	}
	// From the owner: a plain memory hit.
	direct := postCompile(t, owner.http.URL, CompileRequest{Source: testQASM})
	if direct.Tier != TierMem {
		t.Fatalf("owner request tier %q, want mem", direct.Tier)
	}

	if st := owner.srv.Stats(); st.Solves != 1 || st.ProxiedIn == 0 {
		t.Fatalf("owner stats: solves=%d proxied_in=%d, want 1/>0", st.Solves, st.ProxiedIn)
	}
	if st := other.srv.Stats(); st.Solves != 0 || st.PeerHits == 0 {
		t.Fatalf("non-owner stats: solves=%d peer_hits=%d, want 0/>0", st.Solves, st.PeerHits)
	}
	// Ring membership is visible and identical on both nodes.
	a, b := nodes[0].srv.Stats(), nodes[1].srv.Stats()
	if len(a.Ring) != 2 || fmt.Sprint(a.Ring) != fmt.Sprint(b.Ring) {
		t.Fatalf("ring membership diverged: %v vs %v", a.Ring, b.Ring)
	}
}

// TestFleetFallsBackWhenOwnerDead: when the ring owner is unreachable the
// non-owner computes locally instead of failing the request.
func TestFleetFallsBackWhenOwnerDead(t *testing.T) {
	// A dead peer: reserve a port, then close it so connections are refused.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := l.Addr().String()
	l.Close()

	self := "127.0.0.1:0" // never dialed; just a distinct ring identity
	s, err := New(Config{
		Spec:     "poughkeepsie",
		Seed:     1,
		Self:     self,
		Peers:    []string{deadAddr},
		Pipeline: pipeline.Config{Budget: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	// Find a source whose fingerprint the dead peer owns, so the proxy path
	// actually runs (deterministically, not by coin flip).
	eng, err := s.engine("poughkeepsie", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	source := ""
	for i := 0; i < 20 && source == ""; i++ {
		cand := fmt.Sprintf("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[20];\nh q[%d];\ncx q[%d],q[%d];\n", i, i, (i+1)%20)
		circ, err := eng.Materialize(&pipeline.Request{Source: cand})
		if err != nil {
			t.Fatal(err)
		}
		if s.ring.Owner(eng.Fingerprint(circ)) == deadAddr {
			source = cand
		}
	}
	if source == "" {
		t.Fatal("no candidate source routed to the dead peer")
	}

	resp := compileOK(t, s, CompileRequest{Source: source})
	if resp.Tier != TierCold {
		t.Fatalf("fallback tier %q, want cold local compute", resp.Tier)
	}
	st := s.Stats()
	if st.PeerFallbacks != 1 || st.Solves != 1 {
		t.Fatalf("fallback stats: peer_fallbacks=%d solves=%d, want 1/1", st.PeerFallbacks, st.Solves)
	}
	// The locally computed artifact is admitted locally: the retry is a
	// memory hit, not another doomed proxy attempt followed by a solve.
	if again := compileOK(t, s, CompileRequest{Source: source}); again.Tier != TierMem {
		t.Fatalf("post-fallback tier %q, want mem", again.Tier)
	}
}

// TestConfigurableBodyCap: the /compile body bound comes from the
// configuration and oversized payloads get a clean 413.
func TestConfigurableBodyCap(t *testing.T) {
	s, err := New(Config{
		Spec:         "poughkeepsie",
		Seed:         1,
		MaxBodyBytes: 512,
		Pipeline:     pipeline.Config{Budget: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/compile", "text/plain",
		strings.NewReader(strings.Repeat("x", 1024)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d, want 413", resp.StatusCode)
	}
	// Under the cap, requests flow normally.
	ok := postCompile(t, ts.URL, CompileRequest{Source: testQASM})
	if ok.Tier != TierCold {
		t.Fatalf("under-cap compile tier %q", ok.Tier)
	}
}

// TestFleetPeerPromotion pins how a non-owner takes over a hot proxied
// reply: the first two requests are proxied to the ring owner, and the
// second peer hit promotes the reply into the non-owner's memory tier, so
// the third is a local memory hit. A request differing only in its tag is
// served from the same promoted reply.
func TestFleetPeerPromotion(t *testing.T) {
	nodes := newFleet(t, 2)
	eng, err := nodes[0].srv.engine("poughkeepsie", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := eng.Materialize(&pipeline.Request{Source: testQASM})
	if err != nil {
		t.Fatal(err)
	}
	owner, other := nodes[0], nodes[1]
	if nodes[0].srv.ring.Owner(eng.Fingerprint(circ)) != nodes[0].addr {
		owner, other = nodes[1], nodes[0]
	}

	proxied := owner.srv.Stats().ProxiedIn
	for i, want := range []string{TierPeer, TierPeer, TierMem} {
		resp := postCompile(t, other.http.URL, CompileRequest{Source: testQASM})
		if resp.Tier != want {
			t.Fatalf("request %d on the non-owner: tier %q, want %q", i+1, resp.Tier, want)
		}
	}
	if got := owner.srv.Stats().ProxiedIn - proxied; got != 2 {
		t.Fatalf("owner proxied_in grew by %d, want 2", got)
	}
	tagged := postCompile(t, other.http.URL, CompileRequest{Source: testQASM, Tag: "again"})
	if tagged.Tier != TierMem || tagged.Tag != "again" {
		t.Fatalf("tagged request on the non-owner: tier %q tag %q, want mem/again", tagged.Tier, tagged.Tag)
	}
	if got := owner.srv.Stats().ProxiedIn - proxied; got != 2 {
		t.Fatalf("tagged request reached the owner: proxied_in grew by %d, want 2", got)
	}
}
