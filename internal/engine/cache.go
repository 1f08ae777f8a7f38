package engine

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"bigfoot/internal/metrics"
)

// SourceHash returns the content address of BFJ source text: a
// truncated SHA-256 hex digest, stable across processes, used both as
// the artifact identity in results and as the program component of
// cache keys.
func SourceHash(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:16])
}

// CacheKey derives the cache identity of one build request: the
// program's content hash plus the normalized variant set and whether
// the uninstrumented base is included.  Two requests with the same key
// would produce interchangeable artifacts, so they may share one.
func CacheKey(src string, variants []string, withBase bool) string {
	var b strings.Builder
	b.WriteString(SourceHash(src))
	b.WriteByte('/')
	b.WriteString(strings.Join(variants, "+"))
	if withBase {
		b.WriteString("/base")
	}
	return b.String()
}

// CacheStats is a point-in-time snapshot of cache effectiveness
// counters; the service layer surfaces it in results.  It is a view
// over the cache's metrics instruments — the counter family
// bigfoot_engine_cache_events_total holds the same numbers.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Collapsed counts misses that piggybacked on another caller's
	// in-flight build of the same key (they are also counted as hits:
	// they did not compile).
	Collapsed uint64 `json:"collapsed"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

// Cache is a bounded, content-addressed LRU cache of build artifacts.
// Artifacts are immutable, so a cached *Artifact is returned to every
// caller without copying and may back concurrent Run calls while later
// requests keep hitting the same entry.
//
// Concurrent misses on the same key are collapsed: one caller builds
// while the others wait for that build's result (or error — failed
// builds are not cached, so a later request retries).
type Cache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List               // MRU at front; values are *cacheEntry
	entries map[string]*list.Element // key -> element holding *cacheEntry

	building map[string]*buildCall

	// Effectiveness counters live directly on metrics instruments
	// (detached ones when the cache was built without a registry), so
	// exposition and CacheStats can never disagree.
	hits, misses, evictions, collapsed *metrics.Counter
	entriesGauge                       *metrics.Gauge
}

type cacheEntry struct {
	key string
	art *Artifact
}

// buildCall is an in-flight build other callers of the same key wait on.
type buildCall struct {
	done chan struct{}
	art  *Artifact
	err  error
}

// NewCache creates a cache bounded to capacity entries (minimum 1)
// whose effectiveness counters are registered on reg as the counter
// family bigfoot_engine_cache_events_total{event} and the gauge
// bigfoot_engine_cache_entries.  A nil registry hands out detached
// instruments, so the cache meters either way.
func NewCache(capacity int, reg *metrics.Registry) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	events := reg.CounterVec("bigfoot_engine_cache_events_total",
		"artifact-cache events: hit, miss, eviction, collapsed (miss that waited on an in-flight build)",
		"event")
	return &Cache{
		cap:       capacity,
		order:     list.New(),
		entries:   map[string]*list.Element{},
		building:  map[string]*buildCall{},
		hits:      events.With("hit"),
		misses:    events.With("miss"),
		evictions: events.With("eviction"),
		collapsed: events.With("collapsed"),
		entriesGauge: reg.Gauge("bigfoot_engine_cache_entries",
			"artifact-cache resident entries"),
	}
}

// GetOrBuild returns the artifact for key, building it with build on a
// miss.  The boolean reports whether the artifact came from the cache
// (a caller that waited on another caller's in-flight build counts as a
// hit: it did not compile).  Errors are returned to every waiter and
// not cached.
func (c *Cache) GetOrBuild(key string, build func() (*Artifact, error)) (*Artifact, bool, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.hits.Inc()
		c.order.MoveToFront(el)
		art := el.Value.(*cacheEntry).art
		c.mu.Unlock()
		return art, true, nil
	}
	if call, ok := c.building[key]; ok {
		c.hits.Inc()
		c.collapsed.Inc()
		c.mu.Unlock()
		<-call.done
		if call.err != nil {
			return nil, false, call.err
		}
		return call.art, true, nil
	}
	c.misses.Inc()
	call := &buildCall{done: make(chan struct{})}
	c.building[key] = call
	c.mu.Unlock()

	// The builder must unwedge the key no matter how build exits.  A
	// panicking build once left call.done unclosed and the key stuck in
	// c.building, so every later request for it blocked forever: the
	// deferred cleanup turns the panic into an error for the waiters,
	// clears the in-flight record so a retry rebuilds, and then resumes
	// the panic in the builder's own goroutine.
	defer func() {
		r := recover()
		if r != nil {
			call.art, call.err = nil, fmt.Errorf("artifact build for %s panicked: %v", key, r)
		}
		close(call.done)
		c.mu.Lock()
		delete(c.building, key)
		if call.err == nil {
			c.insert(key, call.art)
		}
		c.mu.Unlock()
		if r != nil {
			panic(r)
		}
	}()
	call.art, call.err = build()
	return call.art, false, call.err
}

// insert adds the artifact as most-recently-used, evicting the LRU
// entry when the cache is full.  Caller holds mu.
func (c *Cache) insert(key string, art *Artifact) {
	if el, ok := c.entries[key]; ok {
		// Lost a race with a concurrent insert of the same key; keep the
		// existing entry (the artifacts are interchangeable).
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions.Inc()
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, art: art})
	c.entriesGauge.Set(float64(c.order.Len()))
}

// Peek reports whether key is cached without touching the hit/miss
// counters or recency — the service layer uses it to label a request's
// cache outcome before the actual lookup happens inside the run.
func (c *Cache) Peek(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Stats snapshots the effectiveness counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      uint64(c.hits.Value()),
		Misses:    uint64(c.misses.Value()),
		Evictions: uint64(c.evictions.Value()),
		Collapsed: uint64(c.collapsed.Value()),
		Entries:   c.order.Len(), Capacity: c.cap,
	}
}
