// Package serve turns the stateless compilation engine into a long-running
// compilation service: compiled artifacts and their encoded replies live in
// one size-bounded, content-addressed LRU keyed by
// pipeline.Compiler.Fingerprint, concurrent identical requests are collapsed
// onto one underlying solve, and an admission queue bounds how many cold
// compilations run at once. cmd/xtalkd wraps the Server in an HTTP daemon
// (/compile, /stats, /healthz); cmd/xtalksched -serve is the matching client.
package serve

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/json"
	"strconv"
	"sync"

	"xtalk/internal/pipeline"
)

// The memory tier. Profiling the warm path (scripts/prof_serve.sh) shows a
// repeat request spending almost all of its time off the artifact itself:
// parsing the source, canonicalizing and hashing it into a fingerprint, and
// re-marshalling the reply it produced last time. All three are pure
// functions of the request, so one fingerprint-keyed entry holds:
//
//   - the artifact (absent on a non-owner that only promoted a peer reply);
//   - its steady-state reply — the mem-tier cache hit a repeat request is
//     served as — JSON-encoded once, with the offset where a tag splices in;
//   - its aliases: hashes of the resolved (spec, seed, day, source) requests
//     seen to canonicalize to it, so a repeat skips parse, canonicalize and
//     hash;
//   - how often a peer has served it, driving non-owner promotion.
//
// Everything is content-addressed, so there is no invalidation problem: an
// epoch flip changes the resolved identity and simply misses. One byte
// bound covers the lot; an entry over it sheds its oldest aliases before
// any entry is evicted, and an evicted entry takes its aliases with it.

// DefaultCacheBytes is the memory tier's size bound when the configuration
// does not set one (64 MiB — roughly 10^4 large-device artifacts with their
// replies).
const DefaultCacheBytes = 64 << 20

// CacheStats is a snapshot of the memory tier's counters.
type CacheStats struct {
	// Entries and Bytes describe current occupancy; MaxBytes is the bound.
	// Aliases counts the request hashes resolving to an entry.
	Entries  int   `json:"entries"`
	Aliases  int   `json:"aliases"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
	// Hits counts lookups answered from the tier; Misses counts fingerprint
	// lookups that found nothing to serve. Evictions counts entries dropped
	// to respect the size bound.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// aliasKey is the hash of a resolved request identity; the zero key means
// "no alias".
type aliasKey [sha256.Size]byte

// Accounted sizes beyond an entry's payload: the list element, map slots
// and struct of an entry, and the key plus map slot of one alias.
const (
	entryOverhead = 256
	aliasBytes    = 64
)

// peerPromoteHits is the peer-served count at which a non-owner caches a
// fingerprint's reply locally. The first hit stays a pure proxy, so cold
// keys do not displace hot entries; from the second on the reply is served
// without the ring hop.
const peerPromoteHits = 2

type memEntry struct {
	fp       string
	art      *pipeline.CompiledArtifact
	reply    *CompileResponse // shared and immutable once stored
	aliases  []aliasKey
	peerHits uint32
	size     int64
}

// footprint is the entry's accounted size. A reply built from the
// artifact shares its strings; a promoted peer reply's decoded strings are
// a second copy of most of its encoded bytes.
func (e *memEntry) footprint() int64 {
	n := int64(entryOverhead + aliasBytes*len(e.aliases))
	if e.art != nil {
		n += e.art.SizeBytes()
	}
	if e.reply != nil {
		n += int64(len(e.reply.encoded))
		if e.art == nil {
			n += int64(len(e.reply.encoded))
		}
	}
	return n
}

// memTier is a goroutine-safe, byte-bounded LRU of memEntry keyed by
// fingerprint, with a second index from alias to entry.
type memTier struct {
	mu        sync.Mutex
	max       int64
	bytes     int64
	ll        *list.List // front = most recently used
	byFP      map[string]*list.Element
	byAlias   map[aliasKey]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

func newMemTier(maxBytes int64) *memTier {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &memTier{max: maxBytes, ll: list.New(),
		byFP: map[string]*list.Element{}, byAlias: map[aliasKey]*list.Element{}}
}

// get returns the fingerprint, artifact and reply of fp's entry — or, when
// fp is empty, of the entry key is an alias of — refreshing its recency.
// An entry with neither artifact nor reply has nothing to serve. A failed
// alias lookup is not counted as a miss: the caller goes on to look the
// fingerprint up.
func (t *memTier) get(fp string, key aliasKey) (string, *pipeline.CompiledArtifact, *CompileResponse) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var el *list.Element
	if fp != "" {
		el = t.byFP[fp]
	} else {
		el = t.byAlias[key]
	}
	if el != nil {
		if e := el.Value.(*memEntry); e.art != nil || e.reply != nil {
			t.hits++
			t.ll.MoveToFront(el)
			return e.fp, e.art, e.reply
		}
	}
	if fp != "" {
		t.misses++
	}
	return "", nil, nil
}

// put records whichever of key (non-zero), art and reply (non-nil) are
// given in fp's entry, creating it if needed, then evicts least-recently-
// used entries until the byte bound holds. An entry larger than the whole
// bound is admitted and at once evicted: the bound is an invariant, so
// Bytes never exceeds MaxBytes.
func (t *memTier) put(fp string, key aliasKey, art *pipeline.CompiledArtifact, reply *CompileResponse) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entry(fp, key)
	if art != nil {
		e.art = art
	}
	if reply != nil {
		e.reply = reply
	}
	t.resize(e)
}

// peerHit counts one peer-served reply for fp, recording key as an alias,
// and returns the count so far.
func (t *memTier) peerHit(fp string, key aliasKey) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entry(fp, key)
	e.peerHits++
	t.resize(e)
	return e.peerHits
}

// entry returns fp's entry as the most recently used, creating it and
// attaching key when needed. Caller holds t.mu and must resize it.
func (t *memTier) entry(fp string, key aliasKey) *memEntry {
	el, ok := t.byFP[fp]
	if ok {
		t.ll.MoveToFront(el)
	} else {
		el = t.ll.PushFront(&memEntry{fp: fp})
		t.byFP[fp] = el
	}
	e := el.Value.(*memEntry)
	if _, ok := t.byAlias[key]; !ok && key != (aliasKey{}) {
		t.byAlias[key] = el
		e.aliases = append(e.aliases, key)
	}
	return e
}

// resize re-accounts e, then restores the bound: first by dropping e's
// oldest aliases down to its newest, then by evicting from the back. An
// alias costs a re-parse when it is gone, an entry a disk read or a solve,
// so many spellings of one hot circuit shed their own aliases instead of
// pushing out other entries and finally e itself. Caller holds t.mu.
func (t *memTier) resize(e *memEntry) {
	size := e.footprint()
	t.bytes += size - e.size
	e.size = size
	for t.bytes > t.max && len(e.aliases) > 1 {
		delete(t.byAlias, e.aliases[0])
		e.aliases = append(e.aliases[:0], e.aliases[1:]...)
		e.size -= aliasBytes
		t.bytes -= aliasBytes
	}
	for t.bytes > t.max && t.ll.Len() > 0 {
		back := t.ll.Back()
		old := t.ll.Remove(back).(*memEntry)
		delete(t.byFP, old.fp)
		for _, k := range old.aliases {
			delete(t.byAlias, k)
		}
		t.bytes -= old.size
		t.evictions++
	}
}

// keys returns the fingerprints whose artifacts the tier holds, most
// recently used first: this daemon's transferable working set.
func (t *memTier) keys() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]string, 0, t.ll.Len())
	for el := t.ll.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*memEntry); e.art != nil {
			keys = append(keys, e.fp)
		}
	}
	return keys
}

func (t *memTier) stats() CacheStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return CacheStats{
		Entries:   t.ll.Len(),
		Aliases:   len(t.byAlias),
		Bytes:     t.bytes,
		MaxBytes:  t.max,
		Hits:      t.hits,
		Misses:    t.misses,
		Evictions: t.evictions,
	}
}

// memoKeyBufPool recycles the preimage scratch buffers memoKey hashes, so
// computing a key allocates nothing once the pool is warm.
var memoKeyBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// memoKey hashes the resolved request identity into an alias. The triple
// must be the *resolved* one (request overrides applied over the current
// epoch), so an epoch flip naturally changes the key for requests that ride
// the default.
func memoKey(spec string, seed int64, day int, source string) aliasKey {
	bp := memoKeyBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, spec...)
	b = append(b, '|')
	b = strconv.AppendInt(b, seed, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(day), 10)
	b = append(b, '|')
	b = append(b, source...)
	sum := sha256.Sum256(b)
	*bp = b
	memoKeyBufPool.Put(bp)
	return sum
}

// steady returns resp in its steady-state form — the untagged mem-tier
// cache hit a repeat request is served as — with its wire bytes encoded
// once: exactly what json.Encoder would write, trailing newline included.
// tagAt is where writeJSON splices a tag field in, so a tagged repeat
// shares the same bytes.
func steady(resp CompileResponse) *CompileResponse {
	resp.Tier, resp.Cached, resp.PeerTier, resp.Collapsed, resp.Tag = TierMem, true, "", false, ""
	if b, err := json.Marshal(&resp); err == nil {
		resp.encoded = append(b, '\n')
		resp.tagAt = bytes.Index(b, []byte(`,"device":`))
	}
	return &resp
}
