package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/serve"
)

// testLogWriter routes slog output into the test log.
type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// testLogger returns a debug-level slog.Logger feeding t.Logf.
func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t: t},
		&slog.HandlerOptions{Level: slog.LevelDebug}))
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
// join: |G|² candidate pairs before the NS maximality pass — far more
// work than any test deadline allows.
const expensiveNSQuery = "NS((?a p ?b) AND (?c p ?d))"

// expensiveAskQuery enumerates |G|⁴ combinations hunting a cycle the
// chain graph does not contain; the streaming ASK path allocates
// nothing, so it can burn CPU indefinitely without memory pressure.
const expensiveAskQuery = "ASK { ?a p ?b . ?c p ?d . ?e p ?f . ?g p ?h . ?h p ?g }"

func governedTestServer(t *testing.T, g *rdf.Graph, mutate func(*config)) *httptest.Server {
	t.Helper()
	cfg := defaultConfig()
	cfg.Logger = testLogger(t)
	if mutate != nil {
		mutate(&cfg)
	}
	ts := httptest.NewServer(newServerWith(g, cfg))
	t.Cleanup(ts.Close)
	return ts
}

// TestQueryTimeout504 is the acceptance scenario: an expensive NS
// query with timeout=50ms must come back as 504 with partial=false
// within a small multiple of the deadline — and the read lock must be
// released, so /stats answers immediately afterwards.
func TestQueryTimeout504(t *testing.T) {
	ts := governedTestServer(t, chainGraph(2000), nil)

	start := time.Now()
	resp, body := get(t, ts, "/query?syntax=paper&timeout=50ms&q="+url.QueryEscape(expensiveNSQuery))
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", resp.StatusCode, body)
	}
	// ~2× the deadline plus scheduling noise; generous for loaded CI.
	if elapsed > 2*time.Second {
		t.Fatalf("504 took %v for a 50ms deadline", elapsed)
	}
	var je struct {
		Error   string `json:"error"`
		Partial bool   `json:"partial"`
	}
	if err := json.Unmarshal([]byte(body), &je); err != nil {
		t.Fatalf("error body not JSON: %v\n%s", err, body)
	}
	if je.Partial || je.Error == "" {
		t.Fatalf("error doc = %+v, want partial=false with message", je)
	}

	// The governor released the read lock on the way out: /stats (which
	// also takes it) must answer without waiting.
	start = time.Now()
	resp, body = get(t, ts, "/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats after timeout: %d %s", resp.StatusCode, body)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("/stats blocked %v after a governed timeout", waited)
	}
	if !strings.Contains(body, `"triples": 2000`) {
		t.Fatalf("stats = %s", body)
	}
}

// TestQueryTimeoutParam covers the timeout= parameter forms and their
// validation.
func TestQueryTimeoutParam(t *testing.T) {
	ts := governedTestServer(t, chainGraph(50), nil)
	cheap := url.QueryEscape("ASK { x0 p x1 }")
	for _, bad := range []string{"banana", "-5ms", "0"} {
		resp, body := get(t, ts, "/query?timeout="+bad+"&q="+cheap)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("timeout=%s: status %d, want 400; body %s", bad, resp.StatusCode, body)
		}
	}
	// A bare integer is milliseconds; a cheap query finishes well inside it.
	resp, body := get(t, ts, "/query?timeout=5000&q="+cheap)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"boolean":true`) {
		t.Fatalf("timeout=5000: %d %s", resp.StatusCode, body)
	}
	// The parameter lowers the server deadline; it cannot raise it.
	ts2 := governedTestServer(t, chainGraph(300), func(c *config) { c.QueryTimeout = 50 * time.Millisecond })
	resp, _ = get(t, ts2, "/query?timeout=1h&q="+url.QueryEscape(expensiveAskQuery))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timeout=1h did not stay capped by the server deadline: %d", resp.StatusCode)
	}
}

// TestConcurrentQueryLimit: with maxConcurrent=1, a second query is
// refused with 503 while the first is running, and admitted again once
// the slot frees up.
func TestConcurrentQueryLimit(t *testing.T) {
	ts := governedTestServer(t, chainGraph(300), func(c *config) { c.MaxConcurrent = 1 })
	cheap := "/query?q=" + url.QueryEscape("ASK { x0 p x1 }")

	// Occupy the only slot with a long-running query we can cancel.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slow := "/query?timeout=10s&q=" + url.QueryEscape(expensiveAskQuery)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+slow, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// A cheap poll below may hold the slot at the instant this
		// arrives; then it is the one refused, and tries again.
		for {
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				return
			}
		}
	}()

	// Poll until the overflow 503 is observed.
	saw503 := false
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		resp, _ := get(t, ts, cheap)
		if resp.StatusCode == http.StatusServiceUnavailable {
			saw503 = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !saw503 {
		t.Fatal("overflow query never got 503 while the slot was taken")
	}

	// Hanging up the slow client cancels its context server-side; the
	// governor notices within a stride and frees the slot.
	cancel()
	<-done
	ok := false
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := get(t, ts, cheap)
		if resp.StatusCode == http.StatusOK && strings.Contains(body, `"boolean":true`) {
			ok = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !ok {
		t.Fatal("slot never freed after the slow query was canceled")
	}
}

// TestMaxStepsBudget: a per-query step budget turns a runaway query
// into a fast 503 — and /healthz stays lock-free throughout.
func TestMaxStepsBudget(t *testing.T) {
	ts := governedTestServer(t, chainGraph(300), func(c *config) { c.MaxSteps = 10_000 })
	resp, body := get(t, ts, "/query?q="+url.QueryEscape(expensiveAskQuery))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "max steps") {
		t.Fatalf("error body = %s", body)
	}
	resp, body = get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
}

// TestGracefulShutdownDrains: Shutdown waits for an in-flight governed
// query (here: one that runs into its own deadline) instead of cutting
// the connection.
func TestGracefulShutdownDrains(t *testing.T) {
	cfg := defaultConfig()
	cfg.Logger = testLogger(t)
	srv := serve.NewHTTPServer("127.0.0.1:0", newServerWith(chainGraph(300), cfg), cfg.QueryTimeout)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	type result struct {
		status int
		err    error
	}
	results := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() +
			"/query?timeout=600ms&q=" + url.QueryEscape(expensiveAskQuery))
		if err != nil {
			results <- result{err: err}
			return
		}
		resp.Body.Close()
		results <- result{status: resp.StatusCode}
	}()

	time.Sleep(150 * time.Millisecond) // let the query reach the engine
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-results
	if r.err != nil {
		t.Fatalf("in-flight query was cut off: %v", r.err)
	}
	if r.status != http.StatusGatewayTimeout {
		t.Fatalf("in-flight query status %d, want 504", r.status)
	}
	// The listener is closed: new connections are refused.
	if _, err := http.Get("http://" + ln.Addr().String() + "/healthz"); err == nil {
		t.Fatal("server accepted a connection after Shutdown")
	}
}

// TestHeadVarsSorted: the JSON head.vars list must be deterministic
// (sorted), not map-iteration order.
func TestHeadVarsSorted(t *testing.T) {
	g := rdf.FromTriples(
		rdf.T("juan", "was_born_in", "chile"),
		rdf.T("ana", "was_born_in", "peru"),
	)
	ts := governedTestServer(t, g, nil)
	q := url.QueryEscape("SELECT ?z ?a WHERE { ?z was_born_in ?a }")
	for i := 0; i < 10; i++ {
		_, body := get(t, ts, "/query?q="+q)
		var doc jsonResults
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, body)
		}
		if !sort.StringsAreSorted(doc.Head.Vars) {
			t.Fatalf("head.vars not sorted: %v", doc.Head.Vars)
		}
		if len(doc.Head.Vars) != 2 || doc.Head.Vars[0] != "a" || doc.Head.Vars[1] != "z" {
			t.Fatalf("head.vars = %v, want [a z]", doc.Head.Vars)
		}
	}
}
