package main

// The served response path held to the old one (oracle_test.go): bytes,
// allocations, and what a client that stops reading can block.

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/serve"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// Paper-syntax combinators, as in bench/workloads.go.
func tp(s, p, o string) string  { return "(" + s + " " + p + " " + o + ")" }
func and(ps ...string) string   { return fold("AND", ps) }
func union(ps ...string) string { return fold("UNION", ps) }
func opt(l, r string) string    { return "(" + l + " OPT " + r + ")" }
func ns(p string) string        { return "NS(" + p + ")" }
func fold(op string, ps []string) string {
	out := ps[0]
	for _, p := range ps[1:] {
		out = "(" + out + " " + op + " " + p + ")"
	}
	return out
}

// optAsNS is the paper's rewriting P1 OPT P2 ≡ NS(P1 UNION (P1 AND P2)).
func optAsNS(l, r string) string { return ns(union(l, and(l, r))) }

// analyticQueries instantiates the 24 template shapes of the
// benchmark's analytic_ns workload (bench/workloads.go, which a test
// of this module cannot import): OPT plain, nested and not well
// designed, each one's NS rewriting, wide UNION under NS, FILTER,
// SELECT, and CONSTRUCT with and without an optional part and with
// template constants the graph does not hold.
func analyticQueries(city, org string) []string {
	person := tp("?x", "type", "Person")
	email := tp("?x", "email", "?e")
	inCity := tp("?x", "livesIn", city)
	atOrg := tp("?x", "worksAt", org)
	knows := tp("?x", "knows", "?y")
	yEmail := tp("?y", "email", "?f")
	yMentors := tp("?y", "mentors", "?m")
	celebFollow := and(tp("?x", "follows", "?y"), tp("?y", "type", "Celebrity"))
	cityFriends := and(inCity, knows)
	var qs []string
	for _, lr := range [][2]string{
		{person, email},
		{cityFriends, yEmail},
		{and(atOrg, tp("?x", "follows", "?y")), yMentors},
		{celebFollow, email},
	} {
		qs = append(qs, opt(lr[0], lr[1]), optAsNS(lr[0], lr[1]))
	}
	return append(qs,
		opt(opt(cityFriends, email), yEmail),
		optAsNS(optAsNS(cityFriends, email), yEmail),
		opt(atOrg, opt(knows, yEmail)),
		optAsNS(atOrg, optAsNS(knows, yEmail)),
		and(email, opt(tp("?y", "livesIn", city), tp("?y", "knows", "?x"))),
		and(email, optAsNS(tp("?y", "livesIn", city), tp("?y", "knows", "?x"))),
		ns(union(person, and(person, email), and(person, tp("?x", "mentors", "?m")),
			and(person, email, tp("?x", "mentors", "?m")))),
		ns(union(cityFriends, and(cityFriends, yEmail), and(cityFriends, yMentors),
			and(cityFriends, tp("?y", "worksAt", "?o")), and(cityFriends, yEmail, tp("?y", "worksAt", "?o")))),
		union(cityFriends, and(atOrg, knows), and(tp("?x", "type", "Celebrity"), knows)),
		"("+opt(person, email)+" FILTER (!(bound(?e))))",
		"("+and(tp("?x", "follows", "?y"), tp("?y", "livesIn", "?c"))+" FILTER (?c = "+city+"))",
		"(SELECT {?x, ?c} WHERE "+and(celebFollow, tp("?x", "livesIn", "?c"))+")",
		"(SELECT {?y, ?f} WHERE "+optAsNS(and(atOrg, knows), yEmail)+")",
		"CONSTRUCT {(?x colleague ?z)} WHERE "+and(atOrg, tp("?z", "worksAt", org)),
		"CONSTRUCT {(?x listedIn "+city+"), (?x contact ?e)} WHERE "+opt(inCity, email),
		"CONSTRUCT {(?x fof ?z)} WHERE "+and(cityFriends, tp("?y", "knows", "?z")),
	)
}

// socialQueries is the two served workloads over one generated graph:
// the 60/24/10/6 star/chain/tree/flower mix and the analytic templates
// at a few anchors.
func socialQueries(s *workload.Social, mix int) (mixQs, analytic []string) {
	rng := rand.New(rand.NewSource(5))
	for _, p := range s.MixedQueries(rng, mix, nil) {
		mixQs = append(mixQs, p.String())
	}
	for i := 0; i < 3; i++ {
		analytic = append(analytic, analyticQueries(string(s.City(rng.Intn(s.Opts.Cities))), string(s.Org(rng.Intn(s.Opts.Orgs))))...)
	}
	return mixQs, analytic
}

func quietServer(g rdf.Store, mutate func(*config)) *serve.Front {
	cfg := defaultConfig()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	if mutate != nil {
		mutate(&cfg)
	}
	return newServerWith(g, cfg)
}

// serve runs one paper-syntax query through the whole handler stack,
// without a socket.
func serveQuery(s *serve.Front, text string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?syntax=paper&q="+url.QueryEscape(text), nil))
	return rec
}

// TestServedBytesMatchOracle: every response of the mix and of the 24
// analytic shapes is byte for byte what the old path wrote, and says
// how long it is.
func TestServedBytesMatchOracle(t *testing.T) {
	social := workload.NewSocial(workload.SocialOpts{People: 400, Seed: 9})
	s := quietServer(social.G, nil)
	mix, analytic := socialQueries(social, 120)
	kinds := map[string]int{}
	for _, q := range append(mix, analytic...) {
		rec := serveQuery(s, q)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q, rec.Code, rec.Body)
		}
		want := oracleBody(t, social.G, q)
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("%s\ngot  %.400s\nwant %.400s", q, got, want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
			t.Fatalf("%s: Content-Length %q for %d bytes", q, cl, len(want))
		}
		switch {
		case rec.Header().Get("Content-Type") != "application/sparql-results+json":
			kinds["construct"]++
		case strings.Contains(rec.Body.String(), `"bindings":[]`):
			kinds["empty"]++
		default:
			kinds["bindings"]++
		}
	}
	if kinds["construct"] < 9 || kinds["empty"] == 0 || kinds["bindings"] < 100 {
		t.Fatalf("the workloads no longer cover every kind of answer: %v", kinds)
	}
}

// TestEmptyAnswerVarsIsArray: an empty answer's head.vars is [] (SPARQL
// JSON wants an array), where a nil slice through encoding/json used to
// make it null.
func TestEmptyAnswerVarsIsArray(t *testing.T) {
	rec := serveQuery(quietServer(chainGraph(3), nil), "(?x q ?y)")
	if want := `{"head":{"vars":[]},"results":{"bindings":[]}}` + "\n"; rec.Body.String() != want {
		t.Fatalf("got %s", rec.Body)
	}
}

// TestStalledClientDoesNotHoldLock: a client that asks for an answer
// far larger than the socket buffers and never reads it must not keep
// the store's read lock — or the next /insert waits for it in Lock and
// every later query queues behind that writer.
func TestStalledClientDoesNotHoldLock(t *testing.T) {
	g := rdf.NewGraph()
	for i := 0; i < 120000; i++ { // a ~16 MB answer
		g.Add(rdf.IRI(fmt.Sprintf("subject_%d_of_a_large_answer", i)), "p", rdf.IRI(fmt.Sprintf("object_%d_of_a_large_answer", i)))
	}
	s := quietServer(g, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() // unblocks the server's Write, so ts.Close can return
	fmt.Fprintf(conn, "GET /query?syntax=paper&q=%s HTTP/1.1\r\nHost: nsserve\r\n\r\n", url.QueryEscape("(?x p ?y)"))
	for deadline := time.Now().Add(20 * time.Second); s.Snapshot().QueryEncode.Count == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the large answer was never encoded")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The answer is encoded and the handler is in (or about to enter) a
	// Write nobody will drain.
	client := &http.Client{Timeout: time.Second}
	resp, err := client.Post(ts.URL+"/insert", "text/plain", strings.NewReader("a q b .\n"))
	if err != nil {
		t.Fatalf("/insert behind a stalled reader: %v", err)
	}
	resp.Body.Close()
	resp, err = client.Get(ts.URL + "/query?syntax=paper&q=" + url.QueryEscape("(?x q ?y)"))
	if err != nil {
		t.Fatalf("/query behind a stalled reader: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"value":"a"`) {
		t.Fatalf("query after the insert: %s", body)
	}
}

// TestServedAllocations: a served answer costs no objects per row — so
// the handler can be building neither a MappingSet (a map and a key per
// row) nor an rdf.Graph (a triple per row) — and a tenth, at most, of
// what the old path allocated for the same answer.
func TestServedAllocations(t *testing.T) {
	const rows = 1000
	g := chainGraph(rows)
	s := quietServer(g, func(c *config) { c.TraceBuffer = -1 })
	for _, q := range []string{"(?x p ?y)", "CONSTRUCT {(?y q ?x), (?x r new)} WHERE (?x p ?y)"} {
		if rec := serveQuery(s, q); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), oracleBody(t, g, q)) {
			t.Fatalf("%s: status %d, %.200s", q, rec.Code, rec.Body)
		}
		served := testing.AllocsPerRun(5, func() { serveQuery(s, q) })
		oracle := testing.AllocsPerRun(5, func() { oracleBody(t, g, q) })
		t.Logf("%s: served %.0f allocations, old path %.0f", q, served, oracle)
		if served > rows/4 {
			t.Errorf("%s: %.0f allocations serving %d rows", q, served, rows)
		}
		if 10*served > oracle {
			t.Errorf("%s: served %.0f allocations, old path %.0f: not 10x fewer", q, served, oracle)
		}
	}
}

// BenchmarkServeQuery drives the whole /query handler — parse and plan
// cache, engine, result writer — over the two served workloads, one
// pass over the workload's queries per iteration, each on a graph the
// size the benchmark serves it on (bench/workloads.go: single_mix 2000
// people, analytic_ns 4000) and loaded the way it is served: through
// 5 000-line /insert bodies, so the index layout (base and overlay) is
// the served one.  Run it with -cpu 1,2: a query runs on one goroutine
// either way, and the second row shows what a spare processor gives
// the runtime (the garbage collector, chiefly).
func BenchmarkServeQuery(b *testing.B) {
	for _, wl := range []struct {
		name    string
		people  int
		queries func(mix, analytic []string) []string
	}{
		{"mix", 2000, func(mix, _ []string) []string { return mix }},
		{"analytic", 4000, func(_, analytic []string) []string { return analytic[:24] }},
	} {
		b.Run(wl.name, func(b *testing.B) {
			social := workload.NewSocial(workload.SocialOpts{People: wl.people, Seed: 9})
			s := quietServer(rdf.NewStore(), func(c *config) { c.TraceBuffer = -1 })
			loadThroughInsert(b, s, insertBodies(social.G, 5000))
			queries := wl.queries(socialQueries(social, 200))
			var respBytes int
			for _, q := range queries { // warm the plan cache
				if rec := serveQuery(s, q); rec.Code != http.StatusOK {
					b.Fatalf("%s: %d %s", q, rec.Code, rec.Body)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				respBytes = 0
				for _, q := range queries {
					respBytes += serveQuery(s, q).Body.Len()
				}
			}
			n := float64(b.N * len(queries))
			b.ReportMetric(float64(b.Elapsed().Microseconds())/n, "us/req")
			b.ReportMetric(float64(respBytes)/float64(len(queries)), "respB/op")
		})
	}
}

// TestWrappedAnalyticAskWithinSelect: ASK below the root.  Each of the
// 14 OPT/NS analytic templates under a root FILTER (bound(?x)) — where
// no cap reaches the subtree — takes no more budget steps as an ASK
// than as a SELECT on the same plan.
func TestWrappedAnalyticAskWithinSelect(t *testing.T) {
	s := workload.NewSocial(workload.SocialOpts{People: 4000, Seed: 9})
	for i, q := range analyticQueries(string(s.City(3)), string(s.Org(3)))[:14] {
		parsed, err := parser.ParseAny("paper", q)
		if err != nil {
			t.Fatalf("template %d: %v", i, err)
		}
		p := sparql.Filter{P: parsed.Pattern, Cond: sparql.Bound{X: "x"}}
		c := exec.Compile(s.G, p, nil, true)
		sb := sparql.NewBudget(nil)
		rows, err := plan.Run(s.G, c.Prepared, sb, plan.Options{})
		if err != nil {
			t.Fatalf("template %d SELECT: %v", i, err)
		}
		ab := sparql.NewBudget(nil)
		a, err := exec.Run(s.G, c, ab, plan.Options{})
		if err != nil {
			t.Fatalf("template %d ASK: %v", i, err)
		}
		if *a.Bool != (rows.Len() > 0) || ab.Steps() > sb.Steps() {
			t.Errorf("template %d: ASK %v in %d steps, SELECT %d rows in %d: %s",
				i, *a.Bool, ab.Steps(), rows.Len(), sb.Steps(), p)
		}
	}
}
