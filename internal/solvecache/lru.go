package solvecache

import (
	"container/list"
	"fmt"
	"sync"

	"emp/internal/obs"
)

// CacheMetrics carries the optional registry hooks of one LRU. All fields
// may be nil (obs types are nil-receiver safe).
type CacheMetrics struct {
	// Hits and Misses count Get outcomes.
	Hits, Misses *obs.Counter
	// Evictions counts entries dropped to respect the cost bound.
	Evictions *obs.Counter
	// Cost tracks the current total cost (bytes, for the server's caches).
	Cost *obs.Gauge
}

// LRU is a cost-bounded least-recently-used cache, safe for concurrent use.
// Each entry carries a caller-supplied cost (the server uses approximate
// resident bytes); adding past the bound evicts from the cold end until the
// new entry fits.
type LRU struct {
	mu    sync.Mutex
	bound int64
	cost  int64
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	met   CacheMetrics
	// Own hit/miss/eviction tallies, independent of the optional registry
	// hooks, so introspection endpoints can report rates without a registry.
	hits, misses, evictions int64
}

// lruEntry is the list payload.
type lruEntry struct {
	key  string
	val  any
	cost int64
}

// NewLRU creates a cache holding at most bound total cost. The bound must be
// positive: a cache has no disabled mode.
func NewLRU(bound int64) *LRU {
	if bound <= 0 {
		panic(fmt.Sprintf("solvecache: NewLRU bound %d is not positive", bound))
	}
	return &LRU{
		bound: bound,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// SetMetrics binds the cache's counters/gauge. Call before use.
func (c *LRU) SetMetrics(m CacheMetrics) {
	c.mu.Lock()
	c.met = m
	c.mu.Unlock()
}

// Get returns the cached value and marks it most recently used.
func (c *LRU) Get(key string) (any, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		m := c.met.Misses
		c.mu.Unlock()
		m.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	v := el.Value.(*lruEntry).val
	m := c.met.Hits
	c.mu.Unlock()
	m.Inc()
	return v, true
}

// Peek returns the cached value without counting a hit or miss and without
// touching its recency: a read that is not a lookup, like a job status
// fetching an answer it already names by key.
func (c *LRU) Peek(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*lruEntry).val, true
}

// Add inserts or replaces the entry, evicting cold entries until the total
// cost fits the bound. Entries whose own cost exceeds the bound are not
// cached at all (they would evict everything for a single use).
func (c *LRU) Add(key string, val any, cost int64) {
	if cost > c.bound {
		return
	}
	if cost < 1 {
		cost = 1
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*lruEntry)
		c.cost += cost - e.cost
		e.val, e.cost = val, cost
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val, cost: cost})
		c.cost += cost
	}
	evicted := int64(0)
	for c.cost > c.bound {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*lruEntry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.cost -= e.cost
		evicted++
	}
	c.evictions += evicted
	ev, cg, total := c.met.Evictions, c.met.Cost, c.cost
	c.mu.Unlock()
	ev.Add(evicted)
	cg.Set(total)
}

// LRUStats is a point-in-time occupancy and hit-rate snapshot, serialized by
// the server's /v1/debug/cache endpoint.
type LRUStats struct {
	Entries    int     `json:"entries"`
	CostBytes  int64   `json:"cost_bytes"`
	BoundBytes int64   `json:"bound_bytes"`
	Hits       int64   `json:"hits"`
	Misses     int64   `json:"misses"`
	Evictions  int64   `json:"evictions"`
	HitRate    float64 `json:"hit_rate"`
}

// Stats snapshots the cache.
func (c *LRU) Stats() LRUStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := LRUStats{
		Entries:    c.ll.Len(),
		CostBytes:  c.cost,
		BoundBytes: c.bound,
		Hits:       c.hits,
		Misses:     c.misses,
		Evictions:  c.evictions,
	}
	if lookups := c.hits + c.misses; lookups > 0 {
		st.HitRate = float64(c.hits) / float64(lookups)
	}
	return st
}

// Entry is one exported cache entry, for snapshotting.
type Entry struct {
	Key  string
	Val  any
	Cost int64
}

// Entries snapshots the cache contents in cold-to-hot order, so replaying
// them through Add in order reproduces both the contents and the recency
// ranking. Values are shared with the cache; snapshot writers serialize them
// without mutation.
func (c *LRU) Entries() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry, 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*lruEntry)
		out = append(out, Entry{Key: e.key, Val: e.val, Cost: e.cost})
	}
	return out
}

// Len returns the number of cached entries.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Cost returns the current total cost.
func (c *LRU) Cost() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cost
}
