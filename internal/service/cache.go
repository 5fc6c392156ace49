package service

import (
	"container/list"
	"sync"

	"pak/internal/core"
	"pak/internal/montecarlo"
)

// EngineCache is the size-bounded, concurrency-safe LRU of shared
// engines, keyed by canonical scenario spec. It replaces the service's
// original grow-forever map: `random(seed=…)` admits unboundedly many
// distinct canonical specs, so a lifetime cache is a slow memory leak
// under heavy traffic. Three properties the tests pin:
//
//   - Bounded: at most Cap engines are retained; inserting past the cap
//     evicts the least-recently-used entry. Cap ≤ 0 means unbounded
//     (the pre-eviction behaviour, still right for trusted fixed-size
//     registries).
//   - Singleflight: concurrent Get calls for one missing key share a
//     single build — N first requests for "nsquad(6)" pay one unfold,
//     not N — while builds for distinct keys run concurrently. The lock
//     is never held while building.
//   - Invisible: engines are deterministic functions of their canonical
//     spec, so an evicted entry rebuilt later returns byte-identical
//     results (TestEvictionInvisible asserts this).
//     Eviction costs warmth, never correctness.
type EngineCache struct {
	cap int

	mu       sync.Mutex
	entries  map[string]*list.Element // key → element whose Value is *cacheEntry
	order    *list.List               // front = most recently used
	building map[string]*buildCall

	hits, misses, evictions, shared uint64
}

// cacheEntry is one retained engine, plus the lazily built sampling
// model the approximate tier uses against it. The model is a pure
// function of the engine's system, so memoizing it alongside the engine
// closes the orphaned-sampler seam: repeated approx requests against a
// cached engine share one set of cumulative-probability tables instead
// of rebuilding them per request, and eviction drops engine and model
// together.
type cacheEntry struct {
	key    string
	engine *core.Engine

	modelOnce sync.Once
	model     *montecarlo.Model
}

// buildCall is one in-flight singleflight build; waiters block on done.
type buildCall struct {
	done   chan struct{}
	engine *core.Engine
	err    error
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	// Len is the number of retained engines; Cap the retention bound
	// (0 = unbounded).
	Len int `json:"len"`
	Cap int `json:"cap"`
	// Hits and Misses count Get lookups; Evictions counts entries
	// dropped by the LRU bound; Shared counts Gets that joined another
	// caller's in-flight build instead of starting their own.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Shared    uint64 `json:"shared"`
}

// NewEngineCache returns a cache retaining at most capacity engines
// (capacity ≤ 0 = unbounded).
func NewEngineCache(capacity int) *EngineCache {
	return &EngineCache{
		cap:      capacity,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		building: make(map[string]*buildCall),
	}
}

// Get returns the engine cached under key, building it via build on a
// miss. Concurrent Gets for one key share a single build; build errors
// are returned to every waiter and never cached, so a transient failure
// does not poison the key.
func (c *EngineCache) Get(key string, build func() (*core.Engine, error)) (*core.Engine, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		return el.Value.(*cacheEntry).engine, nil
	}
	if call, ok := c.building[key]; ok {
		c.shared++
		c.mu.Unlock()
		<-call.done
		return call.engine, call.err
	}
	call := &buildCall{done: make(chan struct{})}
	c.building[key] = call
	c.misses++
	c.mu.Unlock()

	call.engine, call.err = build()

	c.mu.Lock()
	delete(c.building, key)
	if call.err == nil {
		c.insertLocked(key, call.engine)
	}
	c.mu.Unlock()
	close(call.done)
	return call.engine, call.err
}

// insertLocked installs a freshly built engine and enforces the LRU
// bound. Requires c.mu held.
func (c *EngineCache) insertLocked(key string, e *core.Engine) {
	if el, ok := c.entries[key]; ok {
		// A racing build for the same key can land first only through
		// building-map removal ordering; keep the installed winner warm.
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, engine: e})
	for c.cap > 0 && c.order.Len() > c.cap {
		oldest := c.order.Back()
		if oldest == nil {
			break
		}
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// ModelFor returns the sampling model memoized alongside the engine
// cached under key, building it on first use. It reports false when the
// key is not retained (the caller then lets the query layer build a
// per-request model — correctness never depends on cache warmth). The
// build runs outside the cache lock under the entry's own sync.Once, so
// concurrent approx requests share one table build without serializing
// unrelated cache traffic.
func (c *EngineCache) ModelFor(key string) (*montecarlo.Model, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	entry := el.Value.(*cacheEntry)
	c.mu.Unlock()
	entry.modelOnce.Do(func() {
		entry.model = montecarlo.NewModel(entry.engine.System())
	})
	return entry.model, true
}

// Contains reports whether key is currently retained (without touching
// recency — a pure observation for tests).
func (c *EngineCache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Len reports the number of retained engines.
func (c *EngineCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats snapshots the cache counters.
func (c *EngineCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Len: c.order.Len(), Cap: c.cap,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Shared: c.shared,
	}
}
