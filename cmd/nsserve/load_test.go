package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/serve"
	"repro/internal/workload"
)

// insertBodies renders g as /insert bodies of at most size lines, in
// ForEach order and bare-word form — the bodies the benchmark harness
// loads its served graphs with (bench/layers.go insertBatches).
func insertBodies(g rdf.Store, size int) []string {
	var out []string
	var b strings.Builder
	n := 0
	g.ForEach(func(t rdf.Triple) bool {
		fmt.Fprintf(&b, "%s %s %s .\n", t.S, t.P, t.O)
		if n++; n%size == 0 {
			out = append(out, b.String())
			b.Reset()
		}
		return true
	})
	if b.Len() > 0 {
		out = append(out, b.String())
	}
	return out
}

// loadThroughInsert posts every body to s's /insert handler, without
// a socket.
func loadThroughInsert(tb testing.TB, s *serve.Front, bodies []string) {
	tb.Helper()
	for _, body := range bodies {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/insert", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			tb.Fatalf("/insert: %d %s", rec.Code, rec.Body)
		}
	}
}

// perTripleCompactions is how many compactions loading the analytic_ns
// graph through /insert cost when each body was replayed triple by
// triple (NewSocial{4000, Seed 1}, ten 5 000-line bodies).
const perTripleCompactions = 22

// TestInsertLoadBound: loading the analytic_ns graph through ten
// /insert bodies leaves a store Equal to the source, an overlay no
// larger than the compaction threshold, and compacts no more often
// than the triple-by-triple load did.
func TestInsertLoadBound(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 47 502-triple graph")
	}
	social := workload.NewSocial(workload.SocialOpts{People: 4000, Seed: 1})
	g := rdf.NewStore()
	loadThroughInsert(t, quietServer(g, nil), insertBodies(social.G, 5000))
	if !g.Equal(social.G) {
		t.Fatalf("loaded %d triples, source has %d, or they differ", g.Len(), social.G.Len())
	}
	st := g.Stats()
	threshold := max(1024, st.BaseTriples/8)
	t.Logf("%+v", st)
	if ov := st.OverlayAdds + st.OverlayDels; ov > threshold {
		t.Errorf("overlay holds %d triples after the load, threshold %d", ov, threshold)
	}
	if st.Compactions > perTripleCompactions {
		t.Errorf("%d compactions, the triple-by-triple load took %d", st.Compactions, perTripleCompactions)
	}
}

// BenchmarkInsertLoad is the load half of the analytic_ns setup in
// process: ten 5 000-line /insert bodies of NewSocial{4000, Seed 1}
// into an empty memstore, through the whole handler.
func BenchmarkInsertLoad(b *testing.B) {
	social := workload.NewSocial(workload.SocialOpts{People: 4000, Seed: 1})
	bodies := insertBodies(social.G, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := rdf.NewStore()
		loadThroughInsert(b, quietServer(g, func(c *config) { c.TraceBuffer = -1 }), bodies)
		if i == 0 && !g.Equal(social.G) {
			b.Fatalf("loaded store differs from the source")
		}
	}
}
