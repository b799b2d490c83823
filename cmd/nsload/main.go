// Command nsload drives an nsserve (or nscoord) endpoint with a
// realistic SPARQL workload at a target rate and reports latency
// percentiles — the measurement harness for the cost-based planner
// under load (E28).
//
// Usage:
//
//	nsload -url http://localhost:8080 -qps 200 -duration 30s \
//	       [-mix mixed|star|chain|tree|flower] [-people 2000] [-insert]
//
// The workload is the internal/workload social graph and its
// star/chain/tree/flower query mix (the shape distribution of real
// endpoint logs).  With -insert, nsload first generates the graph and
// POSTs it to /insert, so a load test against an empty server is
// self-contained.
//
// The generator is OPEN-LOOP: requests are scheduled by a fixed-rate
// ticker regardless of completions, the way real traffic arrives, so
// a slow server accumulates outstanding requests instead of silently
// throttling the offered load (the closed-loop coordinated-omission
// trap).  -max-outstanding bounds the in-flight count; scheduled
// requests beyond it are counted as dropped, not sent.
//
// Output is one JSON document on stdout: offered/achieved QPS, client
// p50/p95/p99 latency (exact, from the full sample, not bucketed),
// error/drop counts, the trace IDs of the p99-worst samples (from the
// NS-Trace-Id response header — feed one to nsq -trace), and the
// server-side /metrics deltas over the run (including planner_replans,
// the adaptive re-optimization counter).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rdf"
	"repro/internal/workload"
)

type loadConfig struct {
	baseURL        string
	qps            float64
	duration       time.Duration
	mix            string
	people         int
	queries        int // distinct queries in the rotation
	seed           int64
	maxOutstanding int
	insert         bool
	timeout        time.Duration
}

// report is the JSON document nsload emits.
type report struct {
	TargetQPS   float64 `json:"target_qps"`
	AchievedQPS float64 `json:"achieved_qps"`
	DurationSec float64 `json:"duration_sec"`
	Sent        int64   `json:"sent"`
	Completed   int64   `json:"completed"`
	Errors      int64   `json:"errors"`
	Dropped     int64   `json:"dropped"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
	MaxMs       float64 `json:"max_ms"`
	// SlowTraces holds the NS-Trace-Id of the slowest samples at or
	// above the p99 latency, worst first (at most ten, empty when the
	// server does not trace).  Feed one to `nsq -trace` or
	// /debug/traces?id= to see where the tail latency went.
	SlowTraces []string `json:"slow_traces,omitempty"`
	// Server-side /metrics deltas over the run ({} when /metrics is
	// unavailable).
	Server map[string]int64 `json:"server"`
}

func main() {
	var cfg loadConfig
	flag.StringVar(&cfg.baseURL, "url", "http://localhost:8080", "endpoint base URL")
	flag.Float64Var(&cfg.qps, "qps", 100, "offered load in queries per second (open loop)")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "run length")
	flag.StringVar(&cfg.mix, "mix", "mixed", "workload shape: mixed, star, chain, tree or flower")
	flag.IntVar(&cfg.people, "people", 2000, "social-graph size (people)")
	flag.IntVar(&cfg.queries, "queries", 200, "distinct queries in the rotation")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload RNG seed")
	flag.IntVar(&cfg.maxOutstanding, "max-outstanding", 256, "in-flight request bound; excess scheduled sends are dropped")
	flag.BoolVar(&cfg.insert, "insert", false, "generate the social graph and POST it to /insert before the run")
	flag.DurationVar(&cfg.timeout, "timeout", 10*time.Second, "per-request client timeout")
	flag.Parse()
	rep, err := runLoad(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nsload:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rep)
}

// buildQueries draws the query rotation for the configured mix.
func buildQueries(cfg loadConfig) (*workload.Social, []string, error) {
	s := workload.NewSocial(workload.SocialOpts{People: cfg.people, Seed: cfg.seed})
	rng := rand.New(rand.NewSource(cfg.seed))
	var mix map[workload.Shape]int
	switch cfg.mix {
	case "mixed", "":
		mix = nil
	case "star", "chain", "tree", "flower":
		mix = map[workload.Shape]int{workload.Shape(cfg.mix): 1}
	default:
		return nil, nil, fmt.Errorf("bad -mix %q (want mixed, star, chain, tree or flower)", cfg.mix)
	}
	pats := s.MixedQueries(rng, cfg.queries, mix)
	qs := make([]string, len(pats))
	for i, p := range pats {
		qs[i] = p.String() // the paper concrete syntax (syntax=paper)
	}
	return s, qs, nil
}

// insertGraph POSTs the social graph to /insert in batches.
func insertGraph(client *http.Client, baseURL string, g *rdf.Graph) error {
	var buf bytes.Buffer
	flush := func() error {
		if buf.Len() == 0 {
			return nil
		}
		resp, err := client.Post(baseURL+"/insert", "text/plain", bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("insert: status %d", resp.StatusCode)
		}
		buf.Reset()
		return nil
	}
	var ferr error
	n := 0
	g.ForEach(func(t rdf.Triple) bool {
		fmt.Fprintf(&buf, "%s %s %s .\n", t.S, t.P, t.O)
		n++
		if n%5000 == 0 {
			if ferr = flush(); ferr != nil {
				return false
			}
		}
		return true
	})
	if ferr != nil {
		return ferr
	}
	return flush()
}

// scrapeMetrics fetches /metrics and flattens the counters nsload
// reports deltas for.  Missing endpoint or fields are not an error —
// the report's server block is simply empty.
func scrapeMetrics(client *http.Client, baseURL string) map[string]int64 {
	out := map[string]int64{}
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	var doc struct {
		Requests       map[string]int64 `json:"requests"`
		GovernorTrips  int64            `json:"governor_trips"`
		PlannerReplans int64            `json:"planner_replans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return out
	}
	for code, n := range doc.Requests {
		out["requests_"+code] = n
	}
	out["governor_trips"] = doc.GovernorTrips
	out["planner_replans"] = doc.PlannerReplans
	return out
}

func runLoad(cfg loadConfig) (report, error) {
	if cfg.qps <= 0 {
		return report{}, fmt.Errorf("-qps must be positive")
	}
	cfg.baseURL = strings.TrimRight(cfg.baseURL, "/")
	client := &http.Client{Timeout: cfg.timeout}
	s, queries, err := buildQueries(cfg)
	if err != nil {
		return report{}, err
	}
	if cfg.insert {
		if err := insertGraph(client, cfg.baseURL, s.G); err != nil {
			return report{}, err
		}
	}
	before := scrapeMetrics(client, cfg.baseURL)

	var (
		sent, completed, errors, dropped atomic.Int64
		outstanding                      atomic.Int64
		mu                               sync.Mutex
		samples                          []sample
		wg                               sync.WaitGroup
	)
	fire := func(q string) {
		defer wg.Done()
		defer outstanding.Add(-1)
		u := cfg.baseURL + "/query?syntax=paper&q=" + url.QueryEscape(q)
		t0 := time.Now()
		resp, err := client.Get(u)
		d := time.Since(t0)
		if err != nil {
			errors.Add(1)
			return
		}
		// The server echoes each request's trace ID; keeping it per
		// sample lets the report name the traces behind the tail.
		tid := resp.Header.Get("NS-Trace-Id")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			errors.Add(1)
			return
		}
		completed.Add(1)
		mu.Lock()
		samples = append(samples, sample{d: d, traceID: tid})
		mu.Unlock()
	}

	interval := time.Duration(float64(time.Second) / cfg.qps)
	if interval <= 0 {
		interval = time.Microsecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.Now().Add(cfg.duration)
	start := time.Now()
	i := 0
	for now := range ticker.C {
		if now.After(deadline) {
			break
		}
		q := queries[i%len(queries)]
		i++
		// Open loop: the tick fires regardless of completions; the
		// outstanding bound converts overload into counted drops.
		if int(outstanding.Load()) >= cfg.maxOutstanding {
			dropped.Add(1)
			continue
		}
		outstanding.Add(1)
		sent.Add(1)
		wg.Add(1)
		go fire(q)
	}
	wg.Wait()
	elapsed := time.Since(start)

	after := scrapeMetrics(client, cfg.baseURL)
	server := map[string]int64{}
	for k, v := range after {
		server[k] = v - before[k]
	}

	rep := report{
		TargetQPS:   cfg.qps,
		DurationSec: elapsed.Seconds(),
		Sent:        sent.Load(),
		Completed:   completed.Load(),
		Errors:      errors.Load(),
		Dropped:     dropped.Load(),
		Server:      server,
	}
	if elapsed > 0 {
		rep.AchievedQPS = float64(rep.Completed) / elapsed.Seconds()
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a].d < samples[b].d })
	latencies := make([]time.Duration, len(samples))
	for i, sm := range samples {
		latencies[i] = sm.d
	}
	rep.P50Ms = quantileMs(latencies, 0.50)
	rep.P95Ms = quantileMs(latencies, 0.95)
	rep.P99Ms = quantileMs(latencies, 0.99)
	if n := len(latencies); n > 0 {
		rep.MaxMs = float64(latencies[n-1]) / float64(time.Millisecond)
	}
	rep.SlowTraces = slowTraces(samples, 10)
	return rep, nil
}

// sample is one completed request: its client latency and the trace ID
// the server echoed (empty when tracing is off).
type sample struct {
	d       time.Duration
	traceID string
}

// slowTraces returns the trace IDs of the samples at or above the p99
// latency, worst first, capped at max.  These are exactly the traces a
// tail-sampling server is most likely to have kept.
func slowTraces(sorted []sample, max int) []string {
	if len(sorted) == 0 {
		return nil
	}
	p99 := sorted[int(0.99*float64(len(sorted)-1))].d
	var out []string
	for i := len(sorted) - 1; i >= 0 && len(out) < max; i-- {
		if sorted[i].d < p99 {
			break
		}
		if tid := sorted[i].traceID; tid != "" {
			out = append(out, tid)
		}
	}
	return out
}

// quantileMs returns the exact q-quantile of the sorted sample in
// milliseconds (0 for an empty sample).
func quantileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}
