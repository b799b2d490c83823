package main

import (
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/cluster"
	"repro/internal/rdf"
	"repro/internal/serve"
)

// config is the server's knobs: the serving front's, plus the ones only
// a single node has.  See defaultConfig for the values used when a knob
// is zero.
type config struct {
	serve.Config
	pprof bool // expose /debug/pprof (opt-in: it leaks host internals)

	// shardIndex / shardCount put the server in cluster mode: it owns
	// hash-by-subject partition shardIndex of shardCount and rejects
	// inserts outside it.  shardCount 0 or 1 is single-node mode.
	shardIndex int
	shardCount int
}

func defaultConfig() config {
	return config{Config: serve.Config{
		QueryTimeout:   30 * time.Second,
		MaxConcurrent:  64,
		MaxInsertBytes: 16 << 20,
		PlanCache:      256,
		TraceSample:    0.1,
		Logger:         slog.Default(),
	}}
}

// newServerWith returns the server for a graph under the given
// configuration: the serving front over the locked store, plus the
// endpoints only a single node has — /stats, /scan and the opt-in
// pprof handlers.
func newServerWith(g rdf.Store, cfg config) *serve.Front {
	st := serve.NewStore(g, cfg.shardIndex, cfg.shardCount)
	f := serve.New(cfg.Config, st)
	f.Handle("/stats", "stats", func(w http.ResponseWriter, r *http.Request) {
		g, release := st.Read()
		triples, iris := g.Len(), len(g.IRIs())
		release()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"triples": %d, "iris": %d}`+"\n", triples, iris)
	})
	// The scan endpoint serves the cluster wire protocol (all of a
	// request's triple patterns matched under one acquisition of the
	// read lock /query takes, answered as one binary frame).
	f.Handle("/scan", "scan", cluster.ScanHandler(st.Read).ServeHTTP)
	if cfg.pprof {
		// Opt-in only: the profiles expose memory contents and host
		// details no public endpoint should leak.
		f.HandleFunc("/debug/pprof/", pprof.Index)
		f.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		f.HandleFunc("/debug/pprof/profile", pprof.Profile)
		f.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		f.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return f
}
