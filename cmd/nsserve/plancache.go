package main

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/parser"
)

// cachedPlan is one parsed-and-prepared query, ready to execute: the
// parse it was compiled from, the shared compiled form (dispatch shape
// plus optimized plan) that exec.Run runs for both nsserve and nscoord,
// and the graph epoch at which the plan was last found current.  The
// parse and the plan are immutable; a plan whose statistics drifted is
// replaced by a new cachedPlan, never rewritten in place.
type cachedPlan struct {
	parsed    parser.Parsed
	compiled  exec.Compiled
	validated atomic.Uint64
}

// cacheOutcome is how lookupPlan resolved a query; it is also the
// plan span's cache attribute.
type cacheOutcome string

const (
	cacheHit     cacheOutcome = "hit"     // cached plan served
	cacheMiss    cacheOutcome = "miss"    // parsed and prepared
	cacheRefresh cacheOutcome = "refresh" // re-prepared from the cached parse
)

// planCache is a bounded LRU of cachedPlans keyed by (syntax, query
// text).  The graph epoch is not part of the key: a plan
// answers correctly on any graph contents, and what an insert can make
// stale is only the statistics it was chosen on.  lookupPlan re-checks
// those when the epoch has moved since the plan was last validated
// (plan.Prepared.Drifted) and re-prepares only when a leaf count left
// the re-plan band.  A nil *planCache (capacity 0, the -plan-cache 0
// case) is valid and caches nothing.
//
// Hit/miss/refresh/eviction counters are atomic so /metrics can read
// them without the cache mutex; size takes the mutex briefly (never the
// graph lock).  A refresh counts as one miss as well: misses count
// every Prepare, refreshes the share of them a drift caused.
type planCache struct {
	mu  sync.Mutex
	cap int
	lru *list.List // front = most recently used; values are *planEntry
	m   map[string]*list.Element

	hits      atomic.Int64
	misses    atomic.Int64
	refreshes atomic.Int64
	evictions atomic.Int64
}

type planEntry struct {
	key string
	cp  *cachedPlan
}

func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		return nil
	}
	return &planCache{
		cap: capacity,
		lru: list.New(),
		m:   make(map[string]*list.Element, capacity),
	}
}

// planKey builds the cache key.  Every plan comes from the one
// planner configuration a process runs, so the text and its syntax
// determine the plan shape.
func planKey(syntax, qText string) string {
	return syntax + "\x00" + qText
}

// get returns the plan cached under key (nil if none), marking it most
// recently used.  It counts nothing: the caller knows the outcome only
// after validating the plan (record).
func (c *planCache) get(key string) *cachedPlan {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*planEntry).cp
	}
	return nil
}

// record counts one lookup outcome.
func (c *planCache) record(o cacheOutcome) {
	if c == nil {
		return
	}
	switch o {
	case cacheHit:
		c.hits.Add(1)
	case cacheRefresh:
		c.refreshes.Add(1)
		c.misses.Add(1)
	default:
		c.misses.Add(1)
	}
}

func (c *planCache) put(key string, cp *cachedPlan) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		// Concurrent misses or refreshes of one key both prepare; last
		// writer wins.
		el.Value.(*planEntry).cp = cp
		c.lru.MoveToFront(el)
		return
	}
	c.m[key] = c.lru.PushFront(&planEntry{key: key, cp: cp})
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.m, back.Value.(*planEntry).key)
		c.evictions.Add(1)
	}
}

func (c *planCache) stats() *obs.PlanCacheStats {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	size := c.lru.Len()
	c.mu.Unlock()
	return &obs.PlanCacheStats{
		Size:      int64(size),
		Capacity:  int64(c.cap),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Refreshes: c.refreshes.Load(),
		Evictions: c.evictions.Load(),
	}
}
