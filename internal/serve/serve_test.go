package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/rdf"
)

// logBuffer collects a server's log lines; handlers may still be
// logging while a test reads it.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// chainGraph returns x0 -p-> x1 -p-> ... -p-> xn: no cycles, so a
// cyclic pattern has no answers and forces an exhaustive search.
func chainGraph(n int) *rdf.Graph {
	g := rdf.NewGraph()
	for i := 0; i < n; i++ {
		g.Add(rdf.IRI(fmt.Sprintf("x%d", i)), "p", rdf.IRI(fmt.Sprintf("x%d", i+1)))
	}
	return g
}

// expensiveNSQuery is a paper-syntax NS over an unconstrained cross
// join: |G|² candidate pairs before the NS maximality pass.
const expensiveNSQuery = "NS((?a p ?b) AND (?c p ?d))"

// expensiveAskQuery enumerates |G|⁴ combinations hunting a cycle the
// chain graph does not contain.
const expensiveAskQuery = "ASK { ?a p ?b . ?c p ?d . ?e p ?f . ?g p ?h . ?h p ?g }"

// panicStore is a store whose queries panic: the first thing a query
// asks of its store is the epoch its plan is validated at.
type panicStore struct{ rdf.Store }

func (panicStore) Epoch() uint64 { panic("kaboom") }

// fakeShard mounts the real scan protocol plus /insert and /readyz
// over one in-process graph — a shard server without the process.
func fakeShard(t *testing.T, g *rdf.Graph) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/scan", cluster.ScanHandler(func() (rdf.Store, func()) {
		return g, g.AcquireRead()
	}))
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	mux.HandleFunc("/insert", func(w http.ResponseWriter, r *http.Request) {
		in, err := rdf.ReadGraph(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		added := 0
		in.ForEach(func(t3 rdf.Triple) bool {
			if g.AddTriple(t3) {
				added++
			}
			return true
		})
		fmt.Fprintf(w, "{\"added\": %d}\n", added)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// fixture is one front under test with what a case inspects of it.
type fixture struct {
	url     string
	front   *Front
	logs    *logBuffer
	triples func() int // triples the backend holds
	panic   string     // what a panicking query's recovery logs
}

// fixtureOpts selects the failure a backend is built with.
type fixtureOpts struct {
	panics     bool // queries panic
	shardsDown bool // cluster only: every shard is unreachable
}

// newFixture serves g through the front over one backend: "store" (the
// locked store, nsserve's) or "cluster" (a coordinator over two fake
// shards holding g's hash-by-subject partitions, nscoord's).
func newFixture(t *testing.T, backend string, g *rdf.Graph, opts fixtureOpts, mutate func(*Config)) *fixture {
	t.Helper()
	logs := &logBuffer{}
	cfg := Config{QueryTimeout: 5 * time.Second, Logger: slog.New(slog.NewTextHandler(logs, nil))}
	if mutate != nil {
		mutate(&cfg)
	}
	fx := &fixture{logs: logs}
	var b Backend
	switch backend {
	case "store":
		var st rdf.Store = g
		if opts.panics {
			st, fx.panic = panicStore{g}, "kaboom"
		}
		b, fx.triples = NewStore(st, 0, 0), g.Len
	case "cluster":
		parts := []*rdf.Graph{rdf.NewGraph(), rdf.NewGraph()}
		g.ForEach(func(tr rdf.Triple) bool {
			parts[cluster.ShardOf(tr.S, 2)].AddTriple(tr)
			return true
		})
		fx.triples = func() int { return parts[0].Len() + parts[1].Len() }
		var urls []string
		for _, p := range parts {
			s := fakeShard(t, p)
			urls = append(urls, s.URL)
			if opts.shardsDown {
				s.Close()
			}
		}
		coord, err := cluster.New(cluster.Options{
			Shards:         urls,
			Backoff:        cluster.BackoffPolicy{Base: time.Millisecond, Max: 5 * time.Millisecond, Multiplier: 2, MaxAttempts: 3},
			ScanTimeout:    time.Second,
			DisableHedging: true,
			ProbeInterval:  -1,
			Seed:           1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(coord.Close)
		if opts.panics {
			coord, fx.panic = nil, "nil pointer dereference"
		}
		b = NewCluster(coord)
	default:
		t.Fatalf("unknown backend %q", backend)
	}
	fx.front = New(cfg, b)
	srv := httptest.NewServer(fx.front)
	t.Cleanup(srv.Close)
	fx.url = srv.URL
	return fx
}

// do sends one request and returns its status and body.
func (fx *fixture) do(t *testing.T, method, path, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, fx.url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func query(q string) string { return "/query?syntax=paper&q=" + url.QueryEscape(q) }

// wantStatus fails unless a request answered with status.
func wantStatus(t *testing.T, what string, got, want int, body string) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: status %d, want %d; body %.300s", what, got, want, body)
	}
}

// wantGovernedError fails unless body is the governed-failure document
// {"error": <non-empty>, "partial": false}.
func wantGovernedError(t *testing.T, body string) jsonError {
	t.Helper()
	var je jsonError
	if err := json.Unmarshal([]byte(body), &je); err != nil || je.Error == "" || je.Partial {
		t.Fatalf("error document %q (%v), want partial=false with a message", body, err)
	}
	return je
}

// TestRobustness drives every documented failure answer through both
// backends: the locked store and a coordinator over fake shards must
// degrade the same way, because it is the same front that answers.
func TestRobustness(t *testing.T) {
	cheap := query("(x0 p ?y)")
	cases := []struct {
		name   string
		only   string            // run against this backend only ("" = both)
		graph  func() *rdf.Graph // nil: chainGraph(10)
		opts   fixtureOpts
		mutate func(*Config)
		check  func(t *testing.T, fx *fixture)
	}{
		{name: "405 wrong method", check: func(t *testing.T, fx *fixture) {
			code, body := fx.do(t, http.MethodPost, cheap, "")
			wantStatus(t, "POST /query", code, http.StatusMethodNotAllowed, body)
			code, body = fx.do(t, http.MethodGet, "/insert", "")
			wantStatus(t, "GET /insert", code, http.StatusMethodNotAllowed, body)
		}},
		{name: "400 missing q", check: func(t *testing.T, fx *fixture) {
			code, body := fx.do(t, http.MethodGet, "/query", "")
			wantStatus(t, "no q", code, http.StatusBadRequest, body)
		}},
		{name: "400 bad timeout", check: func(t *testing.T, fx *fixture) {
			for _, bad := range []string{"banana", "-5ms", "0"} {
				code, body := fx.do(t, http.MethodGet, cheap+"&timeout="+bad, "")
				wantStatus(t, "timeout="+bad, code, http.StatusBadRequest, body)
			}
			// A bare integer is milliseconds.
			code, body := fx.do(t, http.MethodGet, cheap+"&timeout=5000", "")
			wantStatus(t, "timeout=5000", code, http.StatusOK, body)
		}},
		{name: "400 parse error", check: func(t *testing.T, fx *fixture) {
			code, body := fx.do(t, http.MethodGet, query("(?x p"), "")
			wantStatus(t, "paper syntax", code, http.StatusBadRequest, body)
			code, body = fx.do(t, http.MethodGet, "/query?q="+url.QueryEscape("SELECT nope"), "")
			wantStatus(t, "sparql syntax", code, http.StatusBadRequest, body)
			if pc := fx.front.Snapshot().PlanCache; pc != nil && pc.Size != 0 {
				t.Fatalf("a parse failure was cached: %+v", pc)
			}
		}},
		{name: "413 insert", graph: rdf.NewGraph, mutate: func(c *Config) { c.MaxInsertBytes = 64 }, check: func(t *testing.T, fx *fixture) {
			code, body := fx.do(t, http.MethodPost, "/insert", strings.Repeat("subject predicate object .\n", 100))
			wantStatus(t, "oversized insert", code, http.StatusRequestEntityTooLarge, body)
			if je := wantGovernedError(t, body); je.Error != "insert body exceeds 64 bytes" {
				t.Fatalf("413 message %q", je.Error)
			}
			if n := fx.triples(); n != 0 {
				t.Fatalf("the refused insert reached the store: %d triples", n)
			}
			code, body = fx.do(t, http.MethodPost, "/insert", "a b c .\n")
			wantStatus(t, "small insert after the 413", code, http.StatusOK, body)
			if n := fx.triples(); n != 1 {
				t.Fatalf("after the small insert: %d triples, want 1", n)
			}
		}},
		{name: "503 admission", mutate: func(c *Config) { c.MaxConcurrent = 1 }, check: func(t *testing.T, fx *fixture) {
			fx.front.sem <- struct{}{} // a query holds the only slot
			code, body := fx.do(t, http.MethodGet, cheap, "")
			wantStatus(t, "query over the limit", code, http.StatusServiceUnavailable, body)
			if je := wantGovernedError(t, body); !strings.Contains(je.Error, "concurrent query limit") {
				t.Fatalf("503 message %q", je.Error)
			}
			<-fx.front.sem
			code, body = fx.do(t, http.MethodGet, cheap, "")
			wantStatus(t, "query after the slot freed", code, http.StatusOK, body)
		}},
		{name: "503 step budget", graph: func() *rdf.Graph { return chainGraph(300) }, mutate: func(c *Config) { c.MaxSteps = 10_000 }, check: func(t *testing.T, fx *fixture) {
			code, body := fx.do(t, http.MethodGet, "/query?q="+url.QueryEscape(expensiveAskQuery), "")
			wantStatus(t, "runaway query", code, http.StatusServiceUnavailable, body)
			if je := wantGovernedError(t, body); !strings.Contains(je.Error, "max steps") {
				t.Fatalf("503 message %q", je.Error)
			}
			if trips := fx.front.Snapshot().GovernorTrips; trips != 1 {
				t.Fatalf("governor_trips = %d, want 1", trips)
			}
			if !strings.Contains(fx.logs.String(), "governor trip") {
				t.Fatalf("the trip was not logged:\n%s", fx.logs)
			}
		}},
		{name: "504 deadline", graph: func() *rdf.Graph { return chainGraph(2000) }, check: func(t *testing.T, fx *fixture) {
			start := time.Now()
			code, body := fx.do(t, http.MethodGet, query(expensiveNSQuery)+"&timeout=50ms", "")
			wantStatus(t, "expensive query", code, http.StatusGatewayTimeout, body)
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("504 took %v for a 50ms deadline", elapsed)
			}
			wantGovernedError(t, body)
			if trips := fx.front.Snapshot().GovernorTrips; trips != 1 {
				t.Fatalf("governor_trips = %d, want 1", trips)
			}
		}},
		{name: "500 panic", opts: fixtureOpts{panics: true}, check: func(t *testing.T, fx *fixture) {
			code, body := fx.do(t, http.MethodGet, cheap, "")
			wantStatus(t, "panicking query", code, http.StatusInternalServerError, body)
			if logs := fx.logs.String(); !strings.Contains(logs, "panic recovered") || !strings.Contains(logs, fx.panic) {
				t.Fatalf("the panic (%q) was not logged:\n%s", fx.panic, logs)
			}
			if got := fx.front.metrics.Snapshot().Panics; got != 1 {
				t.Fatalf("panics = %d, want 1", got)
			}
			code, body = fx.do(t, http.MethodGet, "/readyz", "")
			wantStatus(t, "/readyz after the panic", code, http.StatusOK, body)
		}},
		{name: "502 no shard", only: "cluster", opts: fixtureOpts{shardsDown: true}, check: func(t *testing.T, fx *fixture) {
			code, body := fx.do(t, http.MethodGet, cheap, "")
			wantStatus(t, "query", code, http.StatusBadGateway, body)
			if je := wantGovernedError(t, body); len(je.Shards) != 2 {
				t.Fatalf("502 names %d failed shards, want 2: %s", len(je.Shards), body)
			}
		}},
	}
	for _, backend := range []string{"store", "cluster"} {
		for _, c := range cases {
			if c.only != "" && c.only != backend {
				continue
			}
			t.Run(backend+"/"+c.name, func(t *testing.T) {
				g := chainGraph(10)
				if c.graph != nil {
					g = c.graph()
				}
				c.check(t, newFixture(t, backend, g, c.opts, c.mutate))
			})
		}
	}
}

// TestQueryIDAdoption: a request carrying NS-Query-Id keeps that ID on
// both backends — on its root span and on its slow-query line.
func TestQueryIDAdoption(t *testing.T) {
	for _, backend := range []string{"store", "cluster"} {
		t.Run(backend, func(t *testing.T) {
			fx := newFixture(t, backend, chainGraph(10), fixtureOpts{}, func(c *Config) {
				c.TraceSample, c.SlowQuery = 1, time.Nanosecond
			})
			req, _ := http.NewRequest(http.MethodGet, fx.url+query("(?x p ?y)"), nil)
			req.Header.Set(obs.HeaderQueryID, "q424242")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			wantStatus(t, "query", resp.StatusCode, http.StatusOK, "")
			tid := resp.Header.Get(obs.HeaderTraceID)
			code, body := fx.do(t, http.MethodGet, "/debug/traces?id="+tid, "")
			wantStatus(t, "/debug/traces", code, http.StatusOK, body)
			var snap obs.TraceSnapshot
			if err := json.Unmarshal([]byte(body), &snap); err != nil {
				t.Fatal(err)
			}
			root := false
			for _, sp := range snap.Spans {
				root = root || sp.Name == "query" && sp.Attrs["qid"] == "q424242"
			}
			if !root {
				t.Fatalf("no root span with the adopted qid:\n%s", body)
			}
			slow := false
			for _, line := range strings.Split(fx.logs.String(), "\n") {
				slow = slow || strings.Contains(line, `msg="slow query"`) && strings.Contains(line, "qid=q424242")
			}
			if !slow {
				t.Fatalf("no slow-query line with the adopted qid:\n%s", fx.logs)
			}
		})
	}
}

// TestProfileBlock: profile=1 adds the profile and plan blocks on both
// backends — after the coordinator's degradation block.
func TestProfileBlock(t *testing.T) {
	for _, backend := range []string{"store", "cluster"} {
		t.Run(backend, func(t *testing.T) {
			fx := newFixture(t, backend, chainGraph(10), fixtureOpts{}, nil)
			code, body := fx.do(t, http.MethodGet, query("(?x p ?y) AND (?y p ?z)")+"&profile=1", "")
			wantStatus(t, "profiled query", code, http.StatusOK, body)
			var doc map[string]json.RawMessage
			if err := json.Unmarshal([]byte(body), &doc); err != nil {
				t.Fatal(err)
			}
			if doc["profile"] == nil || doc["plan"] == nil {
				t.Fatalf("no profile/plan blocks: %.300s", body)
			}
			_, partial := doc["partial"]
			if partial != (backend == "cluster") {
				t.Fatalf("partial present = %v on %s: %.300s", partial, backend, body)
			}
			if partial && strings.Index(body, `"partial"`) > strings.Index(body, `"profile"`) {
				t.Fatalf("the degradation block does not lead: %.300s", body)
			}
		})
	}
}

// TestNewHTTPServerWriteTimeout: the write timeout never cuts an answer
// off before two minutes — also with an unlimited query deadline — and
// leaves 30 s for encoding above a longer deadline.
func TestNewHTTPServerWriteTimeout(t *testing.T) {
	for _, c := range []struct{ queryTimeout, want time.Duration }{
		{0, 2 * time.Minute},
		{30 * time.Second, 2 * time.Minute},
		{5 * time.Minute, 5*time.Minute + 30*time.Second},
	} {
		if got := NewHTTPServer(":0", http.NotFoundHandler(), c.queryTimeout).WriteTimeout; got != c.want {
			t.Errorf("query timeout %v: write timeout %v, want %v", c.queryTimeout, got, c.want)
		}
	}
}
