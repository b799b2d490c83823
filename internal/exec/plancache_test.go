package exec

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// knowsGraph holds n (sᵢ knows sᵢ₊₁) triples.
func knowsGraph(n int) *rdf.Graph {
	g := rdf.NewGraph()
	for i := 0; i < n; i++ {
		g.Add(rdf.IRI(fmt.Sprintf("s%d", i)), "knows", rdf.IRI(fmt.Sprintf("s%d", i+1)))
	}
	return g
}

// TestPlanCacheRevalidateAcrossStores is the coordinator's use of the
// cache: a plan added on one store is revalidated on others — a hit
// where its leaf counts stay in the band, a refresh that replaces the
// entry where they left it — and each outcome is counted once.
func TestPlanCacheRevalidateAcrossStores(t *testing.T) {
	c := NewPlanCache(4)
	const text = "(?x knows ?y) AND (?y knows ?z)"
	key := PlanKey("paper", text)
	if c.Get(key) != nil {
		t.Fatal("empty cache returned a plan")
	}
	parsed, err := c.Parse("paper", text)
	if err != nil {
		t.Fatal(err)
	}
	first := c.Add(key, parsed, knowsGraph(10))
	if c.Get(key) != first {
		t.Fatal("Add did not cache the plan")
	}
	if cp, o := c.Revalidate(key, first, knowsGraph(12)); o != CacheHit || cp != first {
		t.Fatalf("10 → 12 leaf count: %s, want a hit on the same plan", o)
	}
	cp, o := c.Revalidate(key, first, knowsGraph(100))
	if o != CacheRefresh || cp == first || c.Get(key) != cp {
		t.Fatalf("10 → 100 leaf count: %s, want a refresh replacing the entry", o)
	}
	if got := cp.Compiled.Prepared.Explain().JoinOrder[0].Est; got != 100 {
		t.Fatalf("refreshed plan estimates %v, want the new store's 100", got)
	}
	want := obs.PlanCacheStats{Size: 1, Capacity: 4, Hits: 1, Misses: 2, Refreshes: 1}
	if got := *c.Stats(); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
}

// TestPlanCacheNilAndEviction: a nil cache (capacity 0) prepares but
// keeps nothing and has no stats; a full cache evicts the least
// recently used entry.
func TestPlanCacheNilAndEviction(t *testing.T) {
	off := NewPlanCache(0)
	parsed, err := off.Parse("paper", "(?x knows ?y)")
	if err != nil {
		t.Fatal(err)
	}
	if cp := off.Add("k", parsed, knowsGraph(3)); cp == nil || off.Get("k") != nil || off.Stats() != nil {
		t.Fatal("a nil cache must prepare, keep nothing and report no stats")
	}

	c := NewPlanCache(2)
	g := knowsGraph(3)
	for _, k := range []string{"a", "b"} {
		c.Add(k, parsed, g)
	}
	c.Get("a") // b is now least recently used
	c.Add("c", parsed, g)
	if c.Get("b") != nil || c.Get("a") == nil || c.Get("c") == nil {
		t.Fatal("eviction did not drop the least recently used entry")
	}
	if st := c.Stats(); st.Size != 2 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want size 2 and one eviction", st)
	}
}
