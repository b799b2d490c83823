package exec

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/rdf"
)

// CachedPlan is one parsed-and-prepared query, ready to execute: the
// parse it was compiled from, the compiled form Run executes, and the
// epoch of the store it was last found current on.  The parse and the
// plan are immutable; a plan whose statistics drifted is replaced by a
// new CachedPlan, never rewritten in place.  The plan holds no store
// (plan.Prepared keeps counts, not the graph they came from), so a
// cached plan pins nothing a query ran on.
type CachedPlan struct {
	Parsed    parser.Parsed
	Compiled  Compiled
	validated atomic.Uint64
}

// CurrentAt reports whether the plan was last found current at epoch.
// Only a server whose queries all run on one long-lived store can use
// it to skip Revalidate: nsserve can, the cluster coordinator — whose
// every query runs on a newly gathered store — cannot.
func (cp *CachedPlan) CurrentAt(epoch uint64) bool { return cp.validated.Load() == epoch }

// CacheOutcome is how a lookup resolved a query; it is also the plan
// span's cache attribute.
type CacheOutcome string

const (
	CacheHit     CacheOutcome = "hit"     // cached plan served
	CacheMiss    CacheOutcome = "miss"    // parsed and prepared
	CacheRefresh CacheOutcome = "refresh" // re-prepared from the cached parse
)

// PlanCache is a bounded LRU of CachedPlans keyed by (syntax, query
// text), shared by nsserve and nscoord.  No store state is part of the
// key: a plan answers correctly on any store contents (⟦P⟧_G depends
// on P and G alone), and what a change of contents can make stale is
// only the statistics it was chosen on.  Revalidate re-counts those on
// the store the query is about to run on (plan.Prepared.Drifted) and
// re-prepares only when a leaf count left the re-plan band.  A nil
// *PlanCache (capacity 0) is valid and caches nothing.
//
// A lookup is Get, then either Revalidate (or, for a caller that has
// its own proof the plan is current, Record(CacheHit)) or Parse and
// Add.  Hit/miss/refresh/eviction counters are atomic so /metrics can
// read them without the cache mutex; Stats takes the mutex briefly.  A
// refresh counts as one miss as well: misses count every Prepare (and
// every parse failure), refreshes the share of them a drift caused.
type PlanCache struct {
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
	cp  *CachedPlan
}

// NewPlanCache returns a cache of capacity entries; nil (caching
// disabled) when capacity ≤ 0.
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		return nil
	}
	return &PlanCache{
		cap: capacity,
		lru: list.New(),
		m:   make(map[string]*list.Element, capacity),
	}
}

// PlanKey builds the cache key.  Every plan comes from the one planner
// configuration a process runs, so the text and its syntax determine
// the plan shape.
func PlanKey(syntax, qText string) string {
	return syntax + "\x00" + qText
}

// Get returns the plan cached under key (nil if none), marking it most
// recently used.  It counts nothing: the outcome is known only once
// the plan is validated.
func (c *PlanCache) Get(key string) *CachedPlan {
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

// Parse parses a query Get did not find, and counts the miss — a
// parse failure too, which is never cached.
func (c *PlanCache) Parse(syntax, qText string) (parser.Parsed, error) {
	c.Record(CacheMiss)
	return parser.ParseAny(syntax, qText)
}

// Add prepares parsed against g and caches it under key.
func (c *PlanCache) Add(key string, parsed parser.Parsed, g rdf.Store) *CachedPlan {
	cp := newCachedPlan(parsed, g)
	c.put(key, cp)
	return cp
}

// Revalidate settles a cached plan against g, the store the query is
// about to run on: while every leaf count the plan was chosen on is
// still inside the re-plan band on g it is cp itself (a hit), marked
// current at g's epoch; otherwise cp's parse is prepared again against
// g and replaces it under key (a refresh).  Either way the outcome is
// counted.
func (c *PlanCache) Revalidate(key string, cp *CachedPlan, g rdf.Store) (*CachedPlan, CacheOutcome) {
	if cp.Compiled.Prepared.Drifted(g) {
		cp = newCachedPlan(cp.Parsed, g)
		c.put(key, cp)
		c.Record(CacheRefresh)
		return cp, CacheRefresh
	}
	cp.validated.Store(g.Epoch())
	c.Record(CacheHit)
	return cp, CacheHit
}

// newCachedPlan prepares parsed against g, current at g's epoch.
func newCachedPlan(parsed parser.Parsed, g rdf.Store) *CachedPlan {
	cp := &CachedPlan{Parsed: parsed, Compiled: Compile(g, parsed.Pattern, parsed.Construct, parsed.Ask)}
	cp.validated.Store(g.Epoch())
	return cp
}

// Record counts one lookup outcome.
func (c *PlanCache) Record(o CacheOutcome) {
	if c == nil {
		return
	}
	switch o {
	case CacheHit:
		c.hits.Add(1)
	case CacheRefresh:
		c.refreshes.Add(1)
		c.misses.Add(1)
	default:
		c.misses.Add(1)
	}
}

func (c *PlanCache) put(key string, cp *CachedPlan) {
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

// Stats is the /metrics plan_cache block; nil for a nil cache, so the
// block is omitted when caching is off.
func (c *PlanCache) Stats() *obs.PlanCacheStats {
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
