package durable

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/workload"
)

// batchPair is one backend under the differential: a store loaded by
// AddTriples beside a twin of the same backend loaded by per-triple
// Add.
type batchPair struct {
	batch, twin  rdf.Store
	reopen       func(t *testing.T) rdf.Store // the batch store after a restart; nil for the memstore
	closeAllOpen func()
}

// TestAddTriplesMatchesAdd drives AddTriples and per-triple Add with
// the same random batches on both backends — batches with in-batch
// repeats, triples already in the base, triples in the overlay and
// triples with a pending delete, below and above the compaction
// threshold — and holds the two stores to the same contents, returned
// counts, triple counts, CountMatchIDs and MatchIDs emission order on
// all three permutations.  The batch store's epoch moves once per
// batch that added something, its overlay is never left at or above
// the threshold by a batch, and the durable one recovers the same
// graph from its WAL.  A batch under a held read snapshot panics like
// any mutation and changes nothing.
func TestAddTriplesMatchesAdd(t *testing.T) {
	for _, threshold := range []int{16, 0} {
		for _, backend := range []string{"memstore", "durable"} {
			t.Run(fmt.Sprintf("%s/threshold=%d", backend, threshold), func(t *testing.T) {
				p := newBatchPair(t, backend)
				defer p.closeAllOpen()
				p.batch.SetCompactionThreshold(threshold)
				p.twin.SetCompactionThreshold(threshold)
				runBatchDifferential(t, p, threshold, rand.New(rand.NewSource(int64(7+threshold))))
				if p.reopen != nil {
					if r := p.reopen(t); !r.Equal(p.twin) {
						t.Fatalf("recovered %d triples, want %d", r.Len(), p.twin.Len())
					}
				}
			})
		}
	}
}

func newBatchPair(t *testing.T, backend string) *batchPair {
	if backend == "memstore" {
		return &batchPair{batch: rdf.NewStore(), twin: rdf.NewStore(), closeAllOpen: func() {}}
	}
	dir := t.TempDir()
	p := &batchPair{batch: mustOpen(t, dir, testOptions()), twin: mustOpen(t, t.TempDir(), testOptions())}
	var reopened rdf.Store
	p.reopen = func(t *testing.T) rdf.Store {
		if err := p.batch.Close(); err != nil {
			t.Fatal(err)
		}
		reopened = mustOpen(t, dir, testOptions())
		return reopened
	}
	p.closeAllOpen = func() {
		p.batch.Close()
		p.twin.Close()
		if reopened != nil {
			reopened.Close()
		}
	}
	return p
}

func runBatchDifferential(t *testing.T, p *batchPair, threshold int, rng *rand.Rand) {
	term := func(prefix string, n int) rdf.IRI { return rdf.IRI(fmt.Sprintf("%s%d", prefix, rng.Intn(n))) }
	fresh := func() rdf.Triple { return rdf.T(term("s", 60), term("p", 5), term("o", 80)) }
	var recentAdds, recentDels []rdf.Triple
	for round := 0; round < 60; round++ {
		// Some removes first, so the next batch meets pending deletes.
		all := p.twin.Triples()
		for i := rng.Intn(6); i > 0 && len(all) > 0; i-- {
			tr := all[rng.Intn(len(all))]
			if p.batch.Remove(tr.S, tr.P, tr.O) != p.twin.Remove(tr.S, tr.P, tr.O) {
				t.Fatalf("round %d: Remove(%v) disagrees", round, tr)
			}
			recentDels = append(recentDels, tr)
		}
		size := 1 + rng.Intn(8)
		if rng.Intn(4) == 0 {
			size = 40 + rng.Intn(120) // above a threshold of 16, and of the 1 024 floor at times
		}
		if rng.Intn(10) == 0 {
			size = 1200 + rng.Intn(400)
		}
		var ts []rdf.Triple
		for len(ts) < size {
			switch k := rng.Intn(10); {
			case k < 5:
				ts = append(ts, fresh())
			case k < 6 && len(ts) > 0:
				ts = append(ts, ts[rng.Intn(len(ts))]) // in-batch repeat
			case k < 7 && len(recentAdds) > 0:
				ts = append(ts, recentAdds[rng.Intn(len(recentAdds))]) // overlay, or base after a merge
			case k < 8 && len(recentDels) > 0:
				ts = append(ts, recentDels[rng.Intn(len(recentDels))]) // pending delete, or gone
			case len(all) > 0:
				ts = append(ts, all[rng.Intn(len(all))]) // present, or just removed
			}
		}
		epoch := p.batch.Epoch()
		want := 0
		for _, tr := range ts {
			if p.twin.AddTriple(tr) {
				want++
			}
		}
		got, err := p.batch.AddTriples(ts)
		if err != nil || got != want {
			t.Fatalf("round %d: AddTriples(%d triples) = %d, %v; per-triple Add added %d", round, len(ts), got, err, want)
		}
		if moved := p.batch.Epoch() - epoch; (got > 0) != (moved == 1) || moved > 1 {
			t.Fatalf("round %d: %d added, epoch moved %d", round, got, moved)
		}
		st := p.batch.Stats()
		limit := threshold
		if limit == 0 {
			limit = max(1024, st.BaseTriples/8)
		}
		if ov := st.OverlayAdds + st.OverlayDels; ov >= limit {
			t.Fatalf("round %d: overlay left at %d: %+v", round, ov, st)
		}
		sameStores(t, fmt.Sprintf("round %d", round), p.batch, p.twin)
		recentAdds = append(recentAdds[:0:0], ts...)
		if rng.Intn(8) == 0 {
			p.batch.Compact()
			p.twin.Compact()
		}
	}

	// A batch under a held snapshot panics before it touches anything.
	before, dict := p.batch.Stats(), p.batch.Dict().Len()
	release := p.batch.AcquireRead()
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "read snapshot") {
				t.Fatalf("AddTriples under a snapshot: recovered %v, want the guard's panic", r)
			}
		}()
		p.batch.AddTriples([]rdf.Triple{fresh(), rdf.T("never", "seen", "term")})
	}()
	release()
	if after := p.batch.Stats(); after != before || p.batch.Dict().Len() != dict {
		t.Fatalf("guarded batch changed the store: %+v -> %+v", before, after)
	}
}

// sameStores holds a and b to the same contents, counts and emission
// orders.
func sameStores(t *testing.T, where string, a, b rdf.Store) {
	t.Helper()
	if a.Len() != b.Len() || !a.Equal(b) {
		t.Fatalf("%s: %d triples vs %d, or they differ", where, a.Len(), b.Len())
	}
	sa, sb := a.Stats(), b.Stats()
	for i, st := range []rdf.IndexStats{sa, sb} {
		if st.Triples != a.Len() || st.BaseTriples+st.OverlayAdds-st.OverlayDels != st.Triples {
			t.Fatalf("%s: layout does not add up (store %d): %+v", where, i, st)
		}
	}
	emitted := func(s rdf.Store, sp, pp, op *rdf.IRI) []rdf.Triple {
		var out []rdf.Triple
		ids := func(iri *rdf.IRI) (*rdf.ID, bool) {
			if iri == nil {
				return nil, true
			}
			id, ok := s.Dict().Lookup(*iri)
			return &id, ok
		}
		si, ok1 := ids(sp)
		pi, ok2 := ids(pp)
		oi, ok3 := ids(op)
		if !ok1 || !ok2 || !ok3 {
			return nil
		}
		if n := s.CountMatchIDs(si, pi, oi); n != s.CountMatch(sp, pp, op) {
			t.Fatalf("%s: CountMatchIDs %d, CountMatch %d", where, n, s.CountMatch(sp, pp, op))
		}
		d := s.Dict()
		s.MatchIDs(si, pi, oi, func(x rdf.IDTriple) bool {
			out = append(out, rdf.T(d.IRI(x.S), d.IRI(x.P), d.IRI(x.O)))
			return true
		})
		return out
	}
	iri := func(s string) *rdf.IRI { i := rdf.IRI(s); return &i }
	patterns := [][3]*rdf.IRI{{nil, nil, nil}}
	for i := 0; i < 5; i++ {
		patterns = append(patterns,
			[3]*rdf.IRI{iri(fmt.Sprint("s", i*7)), nil, nil}, // SPO
			[3]*rdf.IRI{nil, iri(fmt.Sprint("p", i)), nil},   // POS
			[3]*rdf.IRI{nil, nil, iri(fmt.Sprint("o", i*9))}, // OSP
		)
	}
	for _, pat := range patterns {
		ea, eb := emitted(a, pat[0], pat[1], pat[2]), emitted(b, pat[0], pat[1], pat[2])
		if !slices.Equal(ea, eb) {
			t.Fatalf("%s: MatchIDs%v emits %d triples in a different order than per-triple Add's %d", where, pat, len(ea), len(eb))
		}
	}
}

// TestFailedAppendAppliesNothing: outside a batch AddTriples logs
// before it publishes.  A failed append — here the injected failure
// after the record is written, as a failed write reports — returns the
// error and leaves the contents, Len, Epoch, Stats and dictionary as
// they were; the record is cut off the log, so a restart does not
// resurrect it, while the next batch commits and survives.
func TestFailedAppendAppliesNothing(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	if _, err := s.AddTriples([]rdf.Triple{rdf.T("ana", "works_at", "puc"), rdf.T("ana", "born", "chile")}); err != nil {
		t.Fatal(err)
	}
	// Move a triple into the pending deletes, so the failed batch also
	// has a delete it would have cancelled.
	s.Remove("ana", "born", "chile")
	before, dict, walBytes := s.Stats(), s.Dict().Len(), s.DurableStats().WALBytes
	want := rdf.CloneStore(s)

	boom := errors.New("injected write failure")
	s.failAppend = boom
	n, err := s.AddTriples([]rdf.Triple{rdf.T("bob", "born", "peru"), rdf.T("ana", "born", "chile"), rdf.T("bob", "born", "peru")})
	if n != 0 || !errors.Is(err, boom) {
		t.Fatalf("AddTriples under a failing append = %d, %v", n, err)
	}
	if after := s.Stats(); after != before || s.Dict().Len() != dict || !s.Equal(want) {
		t.Fatalf("failed append changed the store: %+v -> %+v, dict %d -> %d", before, after, dict, s.Dict().Len())
	}
	if ds := s.DurableStats(); ds.WALErrors != 1 || ds.WALBytes != walBytes {
		t.Fatalf("after the failed append: %+v", ds)
	}
	if n, err := s.AddTriples([]rdf.Triple{rdf.T("cat", "born", "peru")}); n != 1 || err != nil {
		t.Fatalf("next batch = %d, %v", n, err)
	}
	want.AddTriple(rdf.T("cat", "born", "peru"))
	s.Close()
	r := mustOpen(t, dir, testOptions())
	defer r.Close()
	if !r.Equal(want) {
		t.Fatalf("recovered:\n%swant:\n%s", r, want)
	}
	if ds := r.DurableStats(); ds.RecoveredTruncatedBytes != 0 {
		t.Fatalf("the failed record left %d torn bytes", ds.RecoveredTruncatedBytes)
	}
}

// TestFailedSyncStopsTheLog: a failed fsync applies nothing of the
// batch it was syncing and stops the log — every later append fails
// with it, and Close reports it — because what reached the disk is no
// longer known.  A reopen recovers what was acknowledged before.
func TestFailedSyncStopsTheLog(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Fsync: FsyncAlways, SnapshotEvery: -1}
	s := mustOpen(t, dir, opts)
	if _, err := s.AddTriples([]rdf.Triple{rdf.T("ana", "works_at", "puc")}); err != nil {
		t.Fatal(err)
	}
	want, epoch := rdf.CloneStore(s), s.Epoch()

	boom := errors.New("injected fsync failure")
	s.wal.failSync = boom
	if n, err := s.AddTriples([]rdf.Triple{rdf.T("bob", "born", "peru")}); n != 0 || !errors.Is(err, boom) {
		t.Fatalf("AddTriples under a failing fsync = %d, %v", n, err)
	}
	if n, err := s.AddTriples([]rdf.Triple{rdf.T("cat", "born", "peru")}); n != 0 || !errors.Is(err, boom) {
		t.Fatalf("AddTriples after a failed fsync = %d, %v", n, err)
	}
	if !s.Equal(want) || s.Epoch() != epoch {
		t.Fatalf("failed fsync changed the store:\n%s", s)
	}
	if err := s.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want the fsync failure", err)
	}
	r := mustOpen(t, dir, opts)
	defer r.Close()
	if !r.Equal(want) {
		t.Fatalf("recovered:\n%swant:\n%s", r, want)
	}
	if n, err := r.AddTriples([]rdf.Triple{rdf.T("cat", "born", "peru")}); n != 1 || err != nil {
		t.Fatalf("AddTriples after reopening = %d, %v", n, err)
	}
}

// TestAddTriplesInBatchStages: inside a batch AddTriples applies at
// once and stages its record, so an aborted batch leaves the WAL
// empty and a committed one recovers.
func TestAddTriplesInBatchStages(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	s.BeginBatch()
	if n, err := s.AddTriples([]rdf.Triple{rdf.T("a", "p", "b"), rdf.T("a", "p", "b")}); n != 1 || err != nil || !s.Contains("a", "p", "b") {
		t.Fatalf("AddTriples in a batch = %d, %v", n, err)
	}
	if ds := s.DurableStats(); ds.WALRecords != 0 {
		t.Fatalf("a staged batch wrote %d records", ds.WALRecords)
	}
	if err := s.CommitBatch(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r := mustOpen(t, dir, testOptions())
	defer r.Close()
	if !r.Contains("a", "p", "b") || r.Len() != 1 {
		t.Fatalf("recovered %s", r)
	}
}

// BenchmarkRecoverWAL times Open over a WAL of NewSocial{2000} (the
// triples of the single_mix graph) written as 5 000-triple batch
// records with snapshots off: recovery is all replay.
func BenchmarkRecoverWAL(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, testOptions())
	if err != nil {
		b.Fatal(err)
	}
	g := workload.NewSocial(workload.SocialOpts{People: 2000, Seed: 1}).G
	all := g.Triples()
	for lo := 0; lo < len(all); lo += 5000 {
		s.BeginBatch()
		for _, tr := range all[lo:min(lo+5000, len(all))] {
			s.AddTriple(tr)
		}
		if err := s.CommitBatch(); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Open(dir, testOptions())
		if err != nil {
			b.Fatal(err)
		}
		if r.Len() != len(all) {
			b.Fatalf("recovered %d triples, want %d", r.Len(), len(all))
		}
		r.Close()
	}
	b.ReportMetric(float64(len(all)), "triples")
}

// TestReplayCountsMutations: the snapshot schedule survives a restart.
// A WAL of three 3 000-triple records reopens 9 000 mutations into its
// generation, so 1 000 more reach SnapshotEvery 10 000 and roll one —
// not 9 997 more, as when recovery counted records.
func TestReplayCountsMutations(t *testing.T) {
	dir := t.TempDir()
	batch := func(prefix string, n int) []rdf.Triple {
		ts := make([]rdf.Triple, n)
		for i := range ts {
			ts[i] = rdf.T(rdf.IRI(fmt.Sprint(prefix, i)), "p", "o")
		}
		return ts
	}
	s := mustOpen(t, dir, Options{SnapshotEvery: 10000})
	for r := 0; r < 3; r++ {
		if _, err := s.AddTriples(batch(fmt.Sprint("s", r, "_"), 3000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{SnapshotEvery: 10000})
	defer r.Close()
	if _, err := r.AddTriples(batch("x", 1000)); err != nil {
		t.Fatal(err)
	}
	if st := r.DurableStats(); st.Snapshots != 1 {
		t.Fatalf("10 000 mutations since the last snapshot, %d snapshots rolled", st.Snapshots)
	}
}
