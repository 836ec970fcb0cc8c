package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xtalk/internal/pipeline"
)

// Equivalence of the body-key warm path with the decoded one. A body whose
// key is registered is answered before decoding; a body never seen before
// (a fresh spelling: the same request with added whitespace) always takes
// the decoded path. Every case below sends both and requires the same
// status and the same reply bytes.

// exchange is one /compile round trip through Handler.
type exchange struct {
	status int
	reply  string
}

// post sends body to s's /compile as JSON (isJSON) or as raw source, with
// extra request headers and, when ctx is non-nil, that request context.
func post(t *testing.T, s *Server, ctx context.Context, isJSON bool, body []byte, hdr ...string) exchange {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(body))
	r.Header.Set("Content-Type", "text/plain")
	if isJSON {
		r.Header.Set("Content-Type", "application/json")
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		r.Header.Set(hdr[i], hdr[i+1])
	}
	if ctx != nil {
		r = r.WithContext(ctx)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, r)
	if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(rec.Body.Len()) {
		t.Fatalf("Content-Length %s for a %d-byte reply", cl, rec.Body.Len())
	}
	return exchange{rec.Code, rec.Body.String()}
}

// spelling returns the JSON body of req followed by n spaces: a distinct
// body that decodes to the same request.
func spelling(t *testing.T, req CompileRequest, n int) []byte {
	t.Helper()
	return append(mustJSON(t, req), strings.Repeat(" ", n)...)
}

// registered reports whether body's key under the current epoch is an
// alias in s's memory tier, i.e. whether its next repeat is answered
// without decoding.
func registered(s *Server, isJSON bool, body []byte) bool {
	key := bodyKey(s.CurrentEpoch(), isJSON, body)
	s.mem.mu.Lock()
	defer s.mem.mu.Unlock()
	_, ok := s.mem.byAlias[key]
	return ok
}

// sameAsDecoded sends body (registered) and a fresh spelling of req, and
// requires the same exchange from both.
func sameAsDecoded(t *testing.T, s *Server, ctx context.Context, body []byte, req CompileRequest, fresh int, hdr ...string) exchange {
	t.Helper()
	got := post(t, s, ctx, true, body, hdr...)
	want := post(t, s, ctx, true, spelling(t, req, fresh), hdr...)
	if got != want {
		t.Fatalf("body-key path answered\n%d %s\ndecoded path answered\n%d %s", got.status, got.reply, want.status, want.reply)
	}
	return got
}

func stats(t *testing.T, s *Server) Stats {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func decodeReply(t *testing.T, ex exchange) CompileResponse {
	t.Helper()
	if ex.status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", ex.status, ex.reply)
	}
	var resp CompileResponse
	if err := json.Unmarshal([]byte(ex.reply), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestBodyKeyUntaggedRepeat: an untagged JSON body registers its key on
// the cold solve, and its repeats are mem hits counted like any other.
func TestBodyKeyUntaggedRepeat(t *testing.T) {
	s := newTestServer(t)
	req := CompileRequest{Source: testQASM}
	body := mustJSON(t, req)
	if cold := decodeReply(t, post(t, s, nil, true, body)); cold.Tier != TierCold {
		t.Fatalf("first request tier %q, want cold", cold.Tier)
	}
	if !registered(s, true, body) {
		t.Fatal("an untagged body did not register its key")
	}
	before := stats(t, s)
	hit := decodeReply(t, sameAsDecoded(t, s, nil, body, req, 1))
	if hit.Tier != TierMem || !hit.Cached {
		t.Fatalf("repeat tier %q cached %v, want a mem hit", hit.Tier, hit.Cached)
	}
	after := stats(t, s)
	if after.MemHits != before.MemHits+2 || after.Requests != before.Requests+2 || after.Solves != 1 {
		t.Fatalf("two hits moved mem_hits %d → %d, requests %d → %d, solves %d",
			before.MemHits, after.MemHits, before.Requests, after.Requests, after.Solves)
	}
	if after.Cache.Hits != before.Cache.Hits+2 || after.Cache.Misses != before.Cache.Misses {
		t.Fatalf("two hits moved cache hits %d → %d, misses %d → %d",
			before.Cache.Hits, after.Cache.Hits, before.Cache.Misses, after.Cache.Misses)
	}
}

// TestBodyKeyRawSource: a raw-source body is keyed by its bytes too, and
// sent as JSON the same bytes are a different request with another key.
func TestBodyKeyRawSource(t *testing.T) {
	s := newTestServer(t)
	src := []byte(testQASM)
	cold := post(t, s, nil, false, src)
	if decodeReply(t, cold).Tier != TierCold || !registered(s, false, src) {
		t.Fatal("a raw-source body did not register its key on its cold solve")
	}
	got := post(t, s, nil, false, src)
	want := post(t, s, nil, false, append([]byte(testQASM), '\n'))
	if got != want || decodeReply(t, got).Tier != TierMem {
		t.Fatalf("raw repeat answered\n%d %s\ndecoded path answered\n%d %s", got.status, got.reply, want.status, want.reply)
	}

	// One body, two kinds: as JSON it is a source; as raw text it is a
	// program that does not parse, and must not be served the JSON
	// body's entry.
	body := mustJSON(t, CompileRequest{Source: testQASM})
	if bodyKey(s.CurrentEpoch(), true, body) == bodyKey(s.CurrentEpoch(), false, body) {
		t.Fatal("JSON and raw kinds of one body share a key")
	}
	if decodeReply(t, post(t, s, nil, true, body)).Tier != TierMem || !registered(s, true, body) {
		t.Fatal("JSON body was not a registered mem hit")
	}
	raw := post(t, s, nil, false, body)
	rawFresh := post(t, s, nil, false, append(body, '\n'))
	if raw.status != http.StatusBadRequest || raw != rawFresh {
		t.Fatalf("JSON bytes sent as raw source answered %d %s, decoded path %d %s",
			raw.status, raw.reply, rawFresh.status, rawFresh.reply)
	}
}

// TestBodyKeyTaggedNeverRegisters: a tagged reply is not the steady one, so
// a tagged body never registers its key, and its repeats keep their tag.
func TestBodyKeyTaggedNeverRegisters(t *testing.T) {
	s := newTestServer(t)
	post(t, s, nil, true, mustJSON(t, CompileRequest{Source: testQASM}))
	for i, tag := range []string{"t1", `"quoted"`, "ünï"} {
		req := CompileRequest{Source: testQASM, Tag: tag}
		body := mustJSON(t, req)
		for rep := 0; rep < 2; rep++ {
			ex := sameAsDecoded(t, s, nil, body, req, 2*i+rep+1)
			if resp := decodeReply(t, ex); resp.Tag != tag || resp.Tier != TierMem {
				t.Fatalf("tagged repeat tag %q tier %q, want %q from mem", resp.Tag, resp.Tier, tag)
			}
			want, _ := json.Marshal(tag)
			if !strings.Contains(ex.reply, `,"tag":`+string(want)+`,"device":`) {
				t.Fatalf("tag not spliced in: %s", ex.reply)
			}
		}
		if registered(s, true, body) {
			t.Fatalf("tagged body %q registered a body key", tag)
		}
	}
}

// TestBodyKeyDeadlines: a deadline_ms body answers as the decoded path does
// (it registers its resolved identity, not its body, since a forwarding
// peer refreshes the deadline on every attempt), and a repeat whose
// transport deadline already passed is shed with the decoded path's 504.
func TestBodyKeyDeadlines(t *testing.T) {
	s := newTestServer(t)
	req := CompileRequest{Source: testQASM, DeadlineMS: 60_000}
	body := mustJSON(t, req)
	post(t, s, nil, true, body)
	if registered(s, true, body) {
		t.Fatal("a deadline_ms body registered a body key")
	}
	if hit := decodeReply(t, sameAsDecoded(t, s, nil, body, req, 1)); hit.Tier != TierMem {
		t.Fatalf("deadline_ms repeat tier %q, want mem", hit.Tier)
	}

	plain := CompileRequest{Source: testQASM}
	pbody := mustJSON(t, plain)
	post(t, s, nil, true, pbody)
	if !registered(s, true, pbody) {
		t.Fatal("untagged body did not register its key")
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	before := stats(t, s)
	ex := sameAsDecoded(t, s, expired, pbody, plain, 1)
	if ex.status != http.StatusGatewayTimeout {
		t.Fatalf("expired transport deadline answered %d %s, want 504", ex.status, ex.reply)
	}
	if after := stats(t, s); after.Errors != before.Errors+2 || after.MemHits != before.MemHits {
		t.Fatalf("expired requests moved errors %d → %d and mem_hits %d → %d",
			before.Errors, after.Errors, before.MemHits, after.MemHits)
	}
}

// TestBodyKeyDraining: a registered body is shed with 503 while draining.
func TestBodyKeyDraining(t *testing.T) {
	s := newTestServer(t)
	req := CompileRequest{Source: testQASM}
	body := mustJSON(t, req)
	post(t, s, nil, true, body)
	s.BeginDrain()
	if ex := sameAsDecoded(t, s, nil, body, req, 1); ex.status != http.StatusServiceUnavailable {
		t.Fatalf("draining answered %d %s, want 503", ex.status, ex.reply)
	}
	if st := stats(t, s); st.Shed != 2 {
		t.Fatalf("shed %d while draining, want 2", st.Shed)
	}
}

// TestBodyKeyFollowsEpoch: a body that rides the default epoch is keyed
// under it, so after POST /epoch it is compiled for the new day instead of
// being served the old artifact; a body naming device, seed and day keeps
// being served from the memory tier.
func TestBodyKeyFollowsEpoch(t *testing.T) {
	s := newTestServer(t)
	ridesReq := CompileRequest{Source: testQASM}
	rides := mustJSON(t, ridesReq)
	seed, day := int64(1), 0
	pinnedReq := CompileRequest{Source: testQASM, Device: "poughkeepsie", Seed: &seed, Day: &day}
	pinned := mustJSON(t, pinnedReq)
	day0 := decodeReply(t, post(t, s, nil, true, rides))
	post(t, s, nil, true, pinned)
	pinnedHit := sameAsDecoded(t, s, nil, pinned, pinnedReq, 1)
	if decodeReply(t, post(t, s, nil, true, rides)).Tier != TierMem || decodeReply(t, pinnedHit).Tier != TierMem {
		t.Fatal("day-0 repeats were not mem hits")
	}

	r := httptest.NewRequest(http.MethodPost, "/epoch", strings.NewReader(`{"day": 1}`))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /epoch: %d %s", rec.Code, rec.Body)
	}

	day1 := decodeReply(t, post(t, s, nil, true, rides))
	if day1.Day != 1 || day1.Fingerprint == day0.Fingerprint || day1.Tier != TierCold {
		t.Fatalf("default-riding body after the flip: day %d tier %q, same fingerprint %v; want a day-1 cold solve",
			day1.Day, day1.Tier, day1.Fingerprint == day0.Fingerprint)
	}
	if hit := decodeReply(t, sameAsDecoded(t, s, nil, rides, ridesReq, 2)); hit.Day != 1 || hit.Tier != TierMem {
		t.Fatalf("day-1 repeat: day %d tier %q", hit.Day, hit.Tier)
	}
	if ex := sameAsDecoded(t, s, nil, pinned, pinnedReq, 3); ex != pinnedHit {
		t.Fatalf("pinned body after the flip answered\n%s\nbefore it\n%s", ex.reply, pinnedHit.reply)
	}
	if st := stats(t, s); st.Solves != 2 {
		t.Fatalf("%d solves, want 2 (day 0 and day 1)", st.Solves)
	}
}

// TestBodyKeyDroppedOnEviction: an evicted entry takes its body keys with
// it, and the body is compiled again.
func TestBodyKeyDroppedOnEviction(t *testing.T) {
	const cacheBytes = 256 << 10
	s, err := New(Config{Spec: "poughkeepsie", Seed: 1, CacheBytes: cacheBytes,
		Pipeline: pipeline.Config{Budget: 5 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	req := CompileRequest{Source: testQASM}
	body := mustJSON(t, req)
	post(t, s, nil, true, body)
	post(t, s, nil, true, body)
	if !registered(s, true, body) {
		t.Fatal("untagged body did not register its key")
	}
	s.mem.put("filler", aliasKey{}, testArtifact("filler", cacheBytes-entryOverhead), nil)
	if st := s.mem.stats(); st.Entries != 1 || st.Aliases != 0 || st.Evictions != 1 {
		t.Fatalf("filler should evict the compiled entry and its aliases: %+v", st)
	}
	if registered(s, true, body) {
		t.Fatal("the evicted entry's body key still resolves")
	}
	if again := decodeReply(t, post(t, s, nil, true, body)); again.Tier != TierCold {
		t.Fatalf("after eviction tier %q, want cold", again.Tier)
	}
}

// TestBodyKeyDegradedNeverRegisters: a cold solve capped by the transport
// deadline is degraded and kept out of the tier, body key included, so the
// next unhurried request solves again.
func TestBodyKeyDegradedNeverRegisters(t *testing.T) {
	s := newTestServer(t)
	body := mustJSON(t, CompileRequest{Source: testQASM})
	hurried, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if resp := decodeReply(t, post(t, s, hurried, true, body)); !resp.Degraded || resp.Tier != TierCold {
		t.Fatalf("deadline-capped compile: degraded=%v tier=%q", resp.Degraded, resp.Tier)
	}
	if registered(s, true, body) {
		t.Fatal("a degraded answer registered a body key")
	}
	if resp := decodeReply(t, post(t, s, nil, true, body)); resp.Degraded || resp.Tier != TierCold {
		t.Fatalf("unhurried repeat: degraded=%v tier=%q, want a clean cold solve", resp.Degraded, resp.Tier)
	}
}

// TestBodyKeyForwardedHit: a hit on a body a peer forwarded counts as
// proxied in.
func TestBodyKeyForwardedHit(t *testing.T) {
	s := newTestServer(t)
	req := CompileRequest{Source: testQASM}
	body := mustJSON(t, req)
	post(t, s, nil, true, body)
	before := stats(t, s)
	ex := sameAsDecoded(t, s, nil, body, req, 1, peerHeader, "peer:1")
	if decodeReply(t, ex).Tier != TierMem {
		t.Fatal("forwarded repeat was not a mem hit")
	}
	if after := stats(t, s); after.ProxiedIn != before.ProxiedIn+2 || after.MemHits != before.MemHits+2 {
		t.Fatalf("two forwarded hits moved proxied_in %d → %d, mem_hits %d → %d",
			before.ProxiedIn, after.ProxiedIn, before.MemHits, after.MemHits)
	}
}

// TestBodyKeyConcurrentEpochFlips: hits and misses race epoch flips, and
// every body key registered under an epoch must lead to that epoch's
// artifact — the key and the resolution share one epoch snapshot.
func TestBodyKeyConcurrentEpochFlips(t *testing.T) {
	s := newTestServer(t)
	body := mustJSON(t, CompileRequest{Source: testQASM})
	const workers, requests = 4, 50
	done := make(chan struct{})
	errs := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < requests; i++ {
				r := httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(body))
				r.Header.Set("Content-Type", "application/json")
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, r)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("HTTP %d: %s", rec.Code, rec.Body)
					return
				}
			}
			errs <- nil
		}()
	}
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if _, _, err := s.AdvanceEpoch(Epoch{Seed: 1, Day: i % 2}); err != nil {
				errs <- err
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	<-done
	dev := s.CurrentEpoch().Device
	for day := 0; day < 2; day++ {
		key := bodyKey(Epoch{Device: dev, Seed: 1, Day: day}, true, body)
		if fp, art, reply := s.mem.get("", key); fp != "" {
			if art != nil && art.Day != day {
				t.Fatalf("day-%d body key resolves to a day-%d artifact", day, art.Day)
			}
			if reply != nil && reply.Day != day {
				t.Fatalf("day-%d body key resolves to a day-%d reply", day, reply.Day)
			}
		}
	}
}

// rewindBody is a request body that can be replayed without allocating.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// TestBodyKeyHitAllocs bounds the allocations of one body-key hit through
// Handler onto an httptest.ResponseRecorder — the recorder's own (struct,
// header map and snapshot, body buffer) included. Decoding the request or
// re-encoding the reply costs far more. Skipped in -short: the race
// detector, which the short suite runs under, changes allocation counts.
func TestBodyKeyHitAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are meaningless under -race")
	}
	const maxAllocs = 10
	s := newTestServer(t)
	body := mustJSON(t, CompileRequest{Source: testQASM})
	post(t, s, nil, true, body)
	post(t, s, nil, true, body)
	h := s.Handler()
	rb := &rewindBody{}
	r := httptest.NewRequest(http.MethodPost, "/compile", nil)
	r.Header.Set("Content-Type", "application/json")
	r.Body = rb
	var rec *httptest.ResponseRecorder
	allocs := testing.AllocsPerRun(200, func() {
		rb.Reset(body)
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, r)
	})
	if rec.Code != http.StatusOK || decodeReply(t, exchange{rec.Code, rec.Body.String()}).Tier != TierMem {
		t.Fatalf("measured request was not a mem hit: %d %s", rec.Code, rec.Body)
	}
	t.Logf("body-key hit: %.0f allocs", allocs)
	if allocs > maxAllocs {
		t.Fatalf("body-key hit costs %.0f allocs, want <= %d", allocs, maxAllocs)
	}
}
