package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// lockedShard is a shard as nsserve runs one: /scan reads under the
// read side of a lock, /insert applies a whole batch under the write
// side.
func lockedShard(t *testing.T) *httptest.Server {
	t.Helper()
	var mu sync.RWMutex
	g := rdf.NewGraph()
	mux := http.NewServeMux()
	mux.Handle("/scan", ScanHandler(func() (rdf.Store, func()) {
		mu.RLock()
		return g, mu.RUnlock
	}))
	mux.HandleFunc("/insert", func(w http.ResponseWriter, r *http.Request) {
		in, err := rdf.ReadGraph(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		before := g.Len()
		g.AddAll(in)
		added := g.Len() - before
		mu.Unlock()
		fmt.Fprintf(w, "{\"added\": %d}\n", added)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestGatherSeesOneSnapshotPerShard: a writer inserts same-subject
// pairs (a p b), (a q b), each pair in one /insert batch, while a
// reader gathers {(?x p ?y), (?x q ?y)} in a loop.  A shard answers
// both patterns from one acquisition of its read lock, so a gathered
// subgraph never holds one half of a pair: the p and q counts are
// equal in every one.  (With a request per pattern the two scans were
// separate lock acquisitions and a batch could land between them.)
func TestGatherSeesOneSnapshotPerShard(t *testing.T) {
	urls := []string{lockedShard(t).URL, lockedShard(t).URL}
	c := mustCoordinator(t, fastOpts(urls))
	p, q := rdf.IRI("p"), rdf.IRI("q")
	tps := []sparql.TriplePattern{
		{S: sparql.V("x"), P: sparql.I(p), O: sparql.V("y")},
		{S: sparql.V("x"), P: sparql.I(q), O: sparql.V("y")},
	}

	const pairs = 400
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < pairs; i++ {
			a, b := rdf.IRI(fmt.Sprintf("a%d", i)), rdf.IRI(fmt.Sprintf("b%d", i))
			if added, statuses, failed := c.Insert(context.Background(), []rdf.Triple{{S: a, P: p, O: b}, {S: a, P: q, O: b}}); failed || added != 2 {
				t.Errorf("insert %d: added %d, %+v", i, added, statuses)
				return
			}
		}
	}()
	gathers := 0
	for writing := true; writing; gathers++ {
		select {
		case <-done:
			writing = false // one last gather, of the final state
		default:
		}
		sub, statuses, partial := c.Gather(context.Background(), tps)
		if partial {
			t.Fatalf("gather %d partial: %+v", gathers, statuses)
		}
		if np, nq := sub.CountMatch(nil, &p, nil), sub.CountMatch(nil, &q, nil); np != nq {
			t.Fatalf("gather %d saw half a batch: %d p triples, %d q triples", gathers, np, nq)
		}
		if !writing && sub.Len() != 2*pairs {
			t.Fatalf("final gather holds %d triples, want %d", sub.Len(), 2*pairs)
		}
	}
	t.Logf("%d gathers raced %d insert batches", gathers, pairs)
}
