package rdf

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// modelGraph is the oracle for the property tests: a plain map of
// triples with none of the index machinery.
type modelGraph map[Triple]struct{}

func (m modelGraph) add(t Triple) bool {
	if _, ok := m[t]; ok {
		return false
	}
	m[t] = struct{}{}
	return true
}

func (m modelGraph) remove(t Triple) bool {
	if _, ok := m[t]; !ok {
		return false
	}
	delete(m, t)
	return true
}

func (m modelGraph) match(s, p, o *IRI) []Triple {
	var out []Triple
	for t := range m {
		if s != nil && t.S != *s {
			continue
		}
		if p != nil && t.P != *p {
			continue
		}
		if o != nil && t.O != *o {
			continue
		}
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// randomTriple draws from a small universe so Add/Remove collide often
// and the overlay exercises its resurrect/cancel paths.
func randomTriple(rng *rand.Rand) Triple {
	return T(
		IRI(fmt.Sprintf("s%d", rng.Intn(8))),
		IRI(fmt.Sprintf("p%d", rng.Intn(4))),
		IRI(fmt.Sprintf("o%d", rng.Intn(8))),
	)
}

// checkAgainstModel compares every access path of g against the model:
// Len, Contains, Match for all 8 bound/wildcard masks over the
// universe, CountMatch, and sorted-order emission.
func checkAgainstModel(t *testing.T, g *Graph, m modelGraph) {
	t.Helper()
	if g.Len() != len(m) {
		t.Fatalf("Len = %d, model has %d", g.Len(), len(m))
	}
	st := g.Stats()
	if st.Triples != len(m) || st.BaseTriples+st.OverlayAdds-st.OverlayDels != len(m) {
		t.Fatalf("Stats inconsistent: %+v vs model size %d", st, len(m))
	}
	for si := -1; si < 8; si++ {
		for pi := -1; pi < 4; pi++ {
			for oi := -1; oi < 8; oi++ {
				var s, p, o *IRI
				if si >= 0 {
					v := IRI(fmt.Sprintf("s%d", si))
					s = &v
				}
				if pi >= 0 {
					v := IRI(fmt.Sprintf("p%d", pi))
					p = &v
				}
				if oi >= 0 {
					v := IRI(fmt.Sprintf("o%d", oi))
					o = &v
				}
				want := m.match(s, p, o)
				var got []Triple
				g.Match(s, p, o, func(tr Triple) bool {
					got = append(got, tr)
					return true
				})
				// Match emits in permutation-key (ID) order, not IRI
				// order; compare as sorted sets.
				sort.Slice(got, func(i, j int) bool { return got[i].Less(got[j]) })
				if len(got) != len(want) {
					t.Fatalf("Match(%v,%v,%v): %d triples, model says %d", s, p, o, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("Match(%v,%v,%v): got[%d]=%v, want %v", s, p, o, i, got[i], want[i])
					}
				}
				if n := g.CountMatch(s, p, o); n != len(want) {
					t.Fatalf("CountMatch(%v,%v,%v) = %d, model says %d", s, p, o, n, len(want))
				}
				// MatchScan must agree with the indexed path.
				var scan []Triple
				g.MatchScan(s, p, o, func(tr Triple) bool {
					scan = append(scan, tr)
					return true
				})
				if len(scan) != len(want) {
					t.Fatalf("MatchScan(%v,%v,%v): %d triples, model says %d", s, p, o, len(scan), len(want))
				}
			}
		}
	}
}

// TestIndexMatchesModelThroughMutations drives random interleaved
// Add/Remove sequences (with a tiny compaction threshold so the
// base/overlay merge runs constantly) and checks every access path
// against a model graph at each step boundary.
func TestIndexMatchesModelThroughMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(9001))
	for trial := 0; trial < 20; trial++ {
		g := NewGraph()
		g.SetCompactionThreshold(1 + rng.Intn(6))
		m := modelGraph{}
		steps := 60 + rng.Intn(60)
		for i := 0; i < steps; i++ {
			tr := randomTriple(rng)
			if rng.Intn(3) == 0 {
				if g.Remove(tr.S, tr.P, tr.O) != m.remove(tr) {
					t.Fatalf("trial %d step %d: Remove(%v) disagrees with model", trial, i, tr)
				}
			} else {
				if g.AddTriple(tr) != m.add(tr) {
					t.Fatalf("trial %d step %d: Add(%v) disagrees with model", trial, i, tr)
				}
			}
		}
		checkAgainstModel(t, g, m)
		// Force the remaining overlay through compaction and re-check.
		if !g.Compact() {
			t.Fatalf("trial %d: Compact refused with no readers", trial)
		}
		if st := g.Stats(); st.OverlayAdds != 0 || st.OverlayDels != 0 {
			t.Fatalf("trial %d: overlay non-empty after Compact: %+v", trial, st)
		}
		checkAgainstModel(t, g, m)
	}
}

// TestMatchIDsSortedEmission pins the emission-order contract the
// merge-join fast path relies on: MatchIDs yields triples in ascending
// key order of the chosen permutation, overlay or not.
func TestMatchIDsSortedEmission(t *testing.T) {
	rng := rand.New(rand.NewSource(9002))
	g := NewGraph()
	g.SetCompactionThreshold(7) // keep a live overlay most of the time
	for i := 0; i < 150; i++ {
		tr := randomTriple(rng)
		if rng.Intn(4) == 0 {
			g.Remove(tr.S, tr.P, tr.O)
		} else {
			g.AddTriple(tr)
		}
	}
	st := g.Stats()
	if st.OverlayAdds == 0 && st.OverlayDels == 0 {
		t.Fatal("test needs a live overlay to be meaningful")
	}
	check := func(k perm, s, p, o *ID) {
		var prev IDTriple
		first := true
		g.MatchIDs(s, p, o, func(tr IDTriple) bool {
			if !first && !k.less(prev, tr) {
				t.Fatalf("MatchIDs emitted %v after %v (perm %d, not ascending)", tr, prev, k)
			}
			prev, first = tr, false
			return true
		})
	}
	sid, _ := g.dict.Lookup("s1")
	pid, _ := g.dict.Lookup("p1")
	oid, _ := g.dict.Lookup("o1")
	check(permSPO, nil, nil, nil)
	check(permSPO, &sid, nil, nil)
	check(permSPO, &sid, &pid, nil)
	check(permPOS, nil, &pid, nil)
	check(permPOS, nil, &pid, &oid)
	check(permOSP, nil, nil, &oid)
	check(permOSP, &sid, nil, &oid)
}

// TestSampleIDs: a sample is every match when there are at most m of
// them, otherwise m distinct matches (fewer only where a live overlay
// deleted the triple at a sampled position), and with no overlay it is
// exactly the matches at MatchIDs positions ⌊j·n/m⌋.
func TestSampleIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(9003))
	g := NewGraph()
	g.SetCompactionThreshold(40)
	for i := 0; i < 400; i++ {
		tr := randomTriple(rng)
		if rng.Intn(4) == 0 {
			g.Remove(tr.S, tr.P, tr.O)
		} else {
			g.AddTriple(tr)
		}
	}
	sid, _ := g.dict.Lookup("s1")
	pid, _ := g.dict.Lookup("p1")
	oid, _ := g.dict.Lookup("o1")
	patterns := [][3]*ID{
		{nil, nil, nil}, {&sid, nil, nil}, {nil, &pid, nil}, {nil, nil, &oid},
		{&sid, &pid, nil}, {nil, &pid, &oid}, {&sid, nil, &oid}, {&sid, &pid, &oid},
	}
	check := func(overlay bool) {
		for _, pt := range patterns {
			var all []IDTriple
			g.MatchIDs(pt[0], pt[1], pt[2], func(tr IDTriple) bool { all = append(all, tr); return true })
			in := make(map[IDTriple]bool, len(all))
			for _, tr := range all {
				in[tr] = true
			}
			for _, m := range []int{1, 3, 8, len(all), len(all) + 5} {
				var got []IDTriple
				g.SampleIDs(pt[0], pt[1], pt[2], m, func(tr IDTriple) bool { got = append(got, tr); return true })
				seen := make(map[IDTriple]bool, len(got))
				for _, tr := range got {
					if !in[tr] || seen[tr] {
						t.Fatalf("pattern %v m=%d: sample %v is not a distinct match", pt, m, tr)
					}
					seen[tr] = true
				}
				switch {
				case m >= len(all) && len(got) != len(all):
					t.Fatalf("pattern %v m=%d: sampled %d of %d matches, want all", pt, m, len(got), len(all))
				case len(got) > m:
					t.Fatalf("pattern %v m=%d: sampled %d", pt, m, len(got))
				case !overlay:
					if len(got) != min(m, len(all)) {
						t.Fatalf("pattern %v m=%d: sampled %d of %d", pt, m, len(got), len(all))
					}
					for j, tr := range got {
						if want := all[j*len(all)/len(got)]; tr != want {
							t.Fatalf("pattern %v m=%d: sample %d is %v, want %v", pt, m, j, tr, want)
						}
					}
				}
			}
		}
	}
	if st := g.Stats(); st.OverlayAdds == 0 || st.OverlayDels == 0 {
		t.Fatalf("test needs a live overlay with adds and dels: %+v", st)
	}
	check(true)
	g.Compact()
	check(false)
	n := 0
	g.SampleIDs(nil, nil, nil, 8, func(IDTriple) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d samples", n)
	}
}

// TestCompactDeferredUnderSnapshot: Compact refuses (and mutation
// panics) while an AcquireRead snapshot is held, and compaction resumes
// after release.
func TestCompactDeferredUnderSnapshot(t *testing.T) {
	g := NewGraph()
	g.SetCompactionThreshold(1 << 30) // never auto-compact
	for i := 0; i < 10; i++ {
		g.Add(IRI(fmt.Sprintf("s%d", i)), "p", "o")
	}
	if g.Stats().OverlayAdds != 10 {
		t.Fatalf("overlay adds = %d, want 10", g.Stats().OverlayAdds)
	}
	release := g.AcquireRead()
	if g.Compact() {
		t.Fatal("Compact ran under an active read snapshot")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Add under an active read snapshot did not panic")
			}
		}()
		g.Add("x", "y", "z")
	}()
	release()
	release() // idempotent
	if !g.Compact() {
		t.Fatal("Compact refused after snapshot release")
	}
	st := g.Stats()
	if st.OverlayAdds != 0 || st.BaseTriples != 10 || st.Compactions != 1 {
		t.Fatalf("after compact: %+v", st)
	}
}

// TestConcurrentReadersAfterMutation exercises the lazy overlay-view
// rebuild: many goroutines read a freshly-mutated graph concurrently
// (the first readers race to rebuild the sorted views).  Run with
// -race; the double-checked dirty flag must make this safe.
func TestConcurrentReadersAfterMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(9003))
	for round := 0; round < 10; round++ {
		g := NewGraph()
		g.SetCompactionThreshold(1 << 30)
		for i := 0; i < 100; i++ {
			tr := randomTriple(rng)
			if rng.Intn(4) == 0 {
				g.Remove(tr.S, tr.P, tr.O)
			} else {
				g.AddTriple(tr)
			}
		}
		release := g.AcquireRead()
		want := g.Len()
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				n := 0
				g.MatchIDs(nil, nil, nil, func(IDTriple) bool { n++; return true })
				if n != want {
					t.Errorf("reader %d saw %d triples, want %d", w, n, want)
				}
				v := IRI(fmt.Sprintf("s%d", w))
				g.CountMatch(&v, nil, nil)
			}(w)
		}
		wg.Wait()
		release()
	}
}

// TestEpochBumpsOnMutation: every successful Add/Remove bumps the
// epoch; failed ones (duplicates, absent triples) and compaction do
// not.
func TestEpochBumpsOnMutation(t *testing.T) {
	g := NewGraph()
	e0 := g.Epoch()
	g.Add("a", "p", "b")
	if g.Epoch() != e0+1 {
		t.Fatalf("epoch after add = %d, want %d", g.Epoch(), e0+1)
	}
	g.Add("a", "p", "b") // duplicate
	if g.Epoch() != e0+1 {
		t.Fatalf("epoch bumped on duplicate add")
	}
	g.Remove("x", "y", "z") // absent
	if g.Epoch() != e0+1 {
		t.Fatalf("epoch bumped on no-op remove")
	}
	g.Remove("a", "p", "b")
	if g.Epoch() != e0+2 {
		t.Fatalf("epoch after remove = %d, want %d", g.Epoch(), e0+2)
	}
	g.Add("a", "p", "b")
	e := g.Epoch()
	g.Compact()
	if g.Epoch() != e {
		t.Fatalf("epoch bumped on compaction (contents unchanged)")
	}
}

// TestSnapshotLoadMatchesModel holds the bulk-load path to the model
// on every access path: random graphs are flattened to a dictionary
// (with entries no triple mentions) and an SPO array, reloaded, and
// checked — including that the two derived permutation arrays are in
// their own strict order.
func TestSnapshotLoadMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for round := 0; round < 40; round++ {
		src, m := NewGraph(), modelGraph{}
		src.Add("unmentioned", "p0", "o0")
		for i, n := 0, rng.Intn(120); i < n; i++ {
			tr := randomTriple(rng)
			src.AddTriple(tr)
			m.add(tr)
		}
		src.Remove("unmentioned", "p0", "o0")
		var spo []IDTriple
		src.MatchIDs(nil, nil, nil, func(t IDTriple) bool { spo = append(spo, t); return true })
		iris := make([]IRI, src.Dict().Len())
		for i := range iris {
			iris[i] = src.Dict().IRI(ID(i))
		}
		g, err := NewGraphFromSnapshot(iris, spo)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		checkAgainstModel(t, g, m)
		for k := permSPO; k <= permOSP; k++ {
			if len(g.base[k]) != len(m) {
				t.Fatalf("round %d: permutation %d holds %d triples, want %d", round, k, len(g.base[k]), len(m))
			}
			for i := 1; i < len(g.base[k]); i++ {
				if !k.less(g.base[k][i-1], g.base[k][i]) {
					t.Fatalf("round %d: permutation %d not strictly sorted at %d", round, k, i)
				}
			}
		}
		// The loaded graph is an ordinary graph: it takes mutations.
		extra := randomTriple(rng)
		if g.AddTriple(extra) != m.add(extra) {
			t.Fatalf("round %d: Add after load disagrees with the model", round)
		}
		checkAgainstModel(t, g, m)
	}
}

// TestSnapshotLoadRejectsBrokenInvariants: each violated invariant is
// an error, not a corrupt index.
func TestSnapshotLoadRejectsBrokenInvariants(t *testing.T) {
	iris := []IRI{"a", "b", "c"}
	cases := map[string]struct {
		iris []IRI
		spo  []IDTriple
	}{
		"duplicate dictionary entry": {[]IRI{"a", "b", "a"}, nil},
		"ID beyond dictionary":       {iris, []IDTriple{{0, 1, 3}}},
		"unsorted":                   {iris, []IDTriple{{1, 0, 0}, {0, 0, 0}}},
		"duplicate triple":           {iris, []IDTriple{{0, 1, 2}, {0, 1, 2}}},
	}
	for name, tc := range cases {
		if _, err := NewGraphFromSnapshot(tc.iris, tc.spo); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCountingSortSPO: the three counting passes order random triples
// — repeats, a dense and a sparse ID space, the empty slice — exactly
// as the comparison sort does.
func TestCountingSortSPO(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		ids := 1 + rng.Intn(40)
		ts := make([]IDTriple, rng.Intn(120))
		for i := range ts {
			ts[i] = IDTriple{S: ID(rng.Intn(ids)), P: ID(rng.Intn(ids)), O: ID(rng.Intn(ids))}
		}
		want := append([]IDTriple(nil), ts...)
		permSPO.sortTriples(want)
		got := CountingSortSPO(ts, ids)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: counting sort\n%v\nwant\n%v", trial, got, want)
		}
	}
}
