package serve

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"xtalk/internal/pipeline"
)

// testArtifact builds an artifact whose payload makes SizeBytes ≈ size.
func testArtifact(key string, size int64) *pipeline.CompiledArtifact {
	a := &pipeline.CompiledArtifact{Fingerprint: key}
	pad := size - a.SizeBytes()
	if pad > 0 {
		a.QASM = strings.Repeat("x", int(pad))
	}
	return a
}

func TestCacheHitReturnsSameArtifact(t *testing.T) {
	m := newMemTier(1 << 20)
	art := testArtifact("k1", 1000)
	m.put("k1", aliasKey{}, art, nil)
	if fp, got, _ := m.get("k1", aliasKey{}); fp != "k1" || got != art {
		t.Fatalf("get returned %q, %v; want the stored artifact", fp, got)
	}
	if _, got, _ := m.get("absent", aliasKey{}); got != nil {
		t.Fatal("get on absent key succeeded")
	}
	st := m.stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

// TestCacheEvictionUnderSizeBound: the byte bound must hold after every
// insertion, evicting in LRU order.
func TestCacheEvictionUnderSizeBound(t *testing.T) {
	const itemSize = 1000
	m := newMemTier(3 * itemSize)
	put := func(k string) { m.put(k, aliasKey{}, testArtifact(k, itemSize-entryOverhead), nil) }
	for i := 0; i < 3; i++ {
		put(fmt.Sprintf("k%d", i))
	}
	if st := m.stats(); st.Entries != 3 || st.Evictions != 0 {
		t.Fatalf("warm-up stats %+v", st)
	}
	// Refresh k0 so k1 is now least recently used.
	if _, art, _ := m.get("k0", aliasKey{}); art == nil {
		t.Fatal("k0 missing")
	}
	put("k3")
	st := m.stats()
	if st.Bytes > st.MaxBytes {
		t.Fatalf("size bound violated: %d > %d", st.Bytes, st.MaxBytes)
	}
	if st.Evictions == 0 {
		t.Fatalf("no eviction under size pressure: %+v", st)
	}
	if _, art, _ := m.get("k1", aliasKey{}); art != nil {
		t.Fatal("LRU entry k1 survived eviction")
	}
	for _, want := range []string{"k0", "k2", "k3"} {
		if _, art, _ := m.get(want, aliasKey{}); art == nil {
			t.Fatalf("recently used entry %s evicted", want)
		}
	}
}

// TestCacheOversizedArtifact: an entry bigger than the whole bound must not
// leave the tier over budget.
func TestCacheOversizedArtifact(t *testing.T) {
	m := newMemTier(500)
	m.put("big", aliasKey{1}, testArtifact("big", 10_000), nil)
	st := m.stats()
	if st.Bytes > st.MaxBytes {
		t.Fatalf("size bound violated by oversized entry: %+v", st)
	}
	if st.Entries != 0 || st.Aliases != 0 || st.Evictions != 1 {
		t.Fatalf("oversized entry should be admitted then evicted with its alias: %+v", st)
	}
}

// TestCachePutReplace: re-putting a key updates the entry and
// accounting, not duplicates it.
func TestCachePutReplace(t *testing.T) {
	m := newMemTier(1 << 20)
	m.put("k", aliasKey{}, testArtifact("k", 1000), nil)
	m.put("k", aliasKey{}, testArtifact("k", 2000), nil)
	st := m.stats()
	if st.Entries != 1 {
		t.Fatalf("replace duplicated the entry: %+v", st)
	}
	if st.Bytes < 1500+entryOverhead || st.Bytes > 2500+entryOverhead {
		t.Fatalf("replace did not update accounting: %+v", st)
	}
}

// TestCacheAliasesFollowEntry: an alias resolves to its entry while the
// entry lives, is counted in its size, and is evicted with it.
func TestCacheAliasesFollowEntry(t *testing.T) {
	const itemSize = 1000
	m := newMemTier(2*itemSize + aliasBytes)
	m.put("k0", aliasKey{1}, testArtifact("k0", itemSize-entryOverhead), nil)
	if fp, art, _ := m.get("", aliasKey{1}); fp != "k0" || art == nil {
		t.Fatalf("alias resolved to %q", fp)
	}
	if st := m.stats(); st.Aliases != 1 || st.Bytes != itemSize+aliasBytes {
		t.Fatalf("alias not accounted: %+v", st)
	}
	m.put("k1", aliasKey{2}, testArtifact("k1", itemSize-entryOverhead), nil)
	st := m.stats()
	if st.Entries != 1 || st.Aliases != 1 || st.Evictions != 1 || st.Bytes > st.MaxBytes {
		t.Fatalf("second entry should evict the first with its alias: %+v", st)
	}
	if fp, _, _ := m.get("", aliasKey{1}); fp != "" {
		t.Fatal("alias of an evicted entry still resolves")
	}
}

// TestCacheAliasesShedBeforeEntries: new aliases on an entry at the bound
// displace that entry's oldest alias, not other entries.
func TestCacheAliasesShedBeforeEntries(t *testing.T) {
	const itemSize = 1000
	m := newMemTier(2*itemSize + 4*aliasBytes)
	m.put("k0", aliasKey{}, testArtifact("k0", itemSize-entryOverhead), nil)
	m.put("k1", aliasKey{}, testArtifact("k1", itemSize-entryOverhead), nil)
	for i := 1; i <= 10; i++ {
		m.put("k1", aliasKey{byte(i)}, nil, nil)
	}
	st := m.stats()
	if st.Entries != 2 || st.Evictions != 0 || st.Aliases != 4 || st.Bytes > st.MaxBytes {
		t.Fatalf("aliases pushed out an entry or outgrew the bound: %+v", st)
	}
	if fp, _, _ := m.get("", aliasKey{6}); fp != "" {
		t.Fatal("an old alias survived while newer ones were added")
	}
	if fp, _, _ := m.get("", aliasKey{10}); fp != "k1" {
		t.Fatalf("newest alias resolved to %q, want k1", fp)
	}
}

// TestTaggedHitSplicesTag: a tagged warm hit shares the entry's encoded
// untagged reply, and the bytes written for it are exactly what
// json.Marshal makes of the tagged response.
func TestTaggedHitSplicesTag(t *testing.T) {
	s := newTestServer(t)
	compileOK(t, s, CompileRequest{Source: testQASM})
	for _, tag := range []string{"", `"`, `\`, "<>&", " ", "\x01", "ünï—☃"} {
		resp := compileOK(t, s, CompileRequest{Source: testQASM, Tag: tag})
		if resp.Tier != TierMem || resp.Tag != tag || len(resp.encoded) == 0 {
			t.Fatalf("tag %q: tier %q tag %q encoded %d bytes, want a pre-encoded mem hit", tag, resp.Tier, resp.Tag, len(resp.encoded))
		}
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, 200, resp)
		if got := rec.Body.String(); got != string(want)+"\n" {
			t.Fatalf("tag %q: wrote\n%s\nwant\n%s", tag, got, want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(want)+1) {
			t.Fatalf("tag %q: Content-Length %s, want %d", tag, cl, len(want)+1)
		}
	}
	if st := s.Stats(); st.Cache.Entries != 1 {
		t.Fatalf("tagged and untagged requests for one circuit left %d entries, want 1", st.Cache.Entries)
	}
}

// TestAliasesWithinByteBound: distinct spellings of one circuit each add an
// alias, and the tier's one byte bound covers them — the entry sheds its
// oldest aliases instead of growing until it evicts itself, so the circuit
// stays cached and is solved exactly once.
func TestAliasesWithinByteBound(t *testing.T) {
	s, err := New(Config{
		Spec:       "poughkeepsie",
		Seed:       1,
		CacheBytes: 16 << 10,
		Pipeline:   pipeline.Config{Budget: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	const spellings = 400
	for i := 0; i < spellings; i++ {
		src := testQASM + strings.Repeat("\n", i%7) + fmt.Sprintf("// spelling %d\n", i)
		resp := compileOK(t, s, CompileRequest{Source: src})
		if resp.Fingerprint == "" {
			t.Fatalf("spelling %d: empty fingerprint", i)
		}
		if st := s.Stats().Cache; st.Bytes > st.MaxBytes {
			t.Fatalf("spelling %d: tier over its bound: %+v", i, st)
		}
	}
	st := s.Stats()
	if st.Cache.Aliases >= spellings || st.Cache.Entries != 1 || st.Cache.Evictions != 0 {
		t.Fatalf("aliases unbounded or the hot entry was evicted: %+v", st.Cache)
	}
	if st.Solves != 1 {
		t.Fatalf("one circuit in %d spellings was solved %d times, want 1", spellings, st.Solves)
	}
	// The last spelling is still an alias: its repeat is a warm hit.
	src := testQASM + strings.Repeat("\n", (spellings-1)%7) + fmt.Sprintf("// spelling %d\n", spellings-1)
	if resp := compileOK(t, s, CompileRequest{Source: src}); resp.Tier != TierMem {
		t.Fatalf("repeat of the newest spelling: tier %q, want mem", resp.Tier)
	}
}

// TestCacheConcurrentUse drives one small tier from several goroutines at
// once (run under -race): afterwards the byte count must equal the sum of
// the entries' sizes, stay within the bound, and every alias must resolve
// to a live entry that lists it.
func TestCacheConcurrentUse(t *testing.T) {
	m := newMemTier(20_000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				fp := fmt.Sprintf("k%d", (g*7+i)%40)
				key := aliasKey{byte(g), byte(i), 1}
				switch i % 4 {
				case 0:
					m.put(fp, key, testArtifact(fp, 1500), nil)
				case 1:
					m.put(fp, key, nil, &CompileResponse{encoded: make([]byte, 800)})
				case 2:
					m.peerHit(fp, key)
				default:
					m.get(fp, aliasKey{})
					m.get("", key)
				}
			}
		}(g)
	}
	wg.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum int64
	aliases := 0
	for el := m.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*memEntry)
		if e.size != e.footprint() {
			t.Fatalf("entry %s accounted %d bytes, footprint %d", e.fp, e.size, e.footprint())
		}
		sum += e.size
		aliases += len(e.aliases)
		for _, k := range e.aliases {
			if m.byAlias[k] != el {
				t.Fatalf("alias of %s resolves elsewhere", e.fp)
			}
		}
	}
	if sum != m.bytes || m.bytes > m.max || aliases != len(m.byAlias) || len(m.byFP) != m.ll.Len() {
		t.Fatalf("accounting drifted: sum %d bytes %d max %d aliases %d/%d entries %d/%d",
			sum, m.bytes, m.max, aliases, len(m.byAlias), len(m.byFP), m.ll.Len())
	}
}
