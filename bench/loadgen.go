package main

// The HTTP half of the harness: one generator process, a fixed number
// of client goroutines and connections, every answer checked.  It
// knows the servers only by their URLs and their documented HTTP
// surface (/query, /insert, /healthz, /metrics).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const requestTimeout = 20 * time.Second

// op is one request of a pass: a query with the answer it must return,
// or an /insert, whose body is the next unused write of the stream and
// which must add every triple of it.
type op struct {
	url    string
	insert bool
	shape  string
	want   digest
}

func queryOp(base string, q query) op {
	return op{url: base + "/query?syntax=paper&q=" + url.QueryEscape(q.Text), shape: q.Shape, want: q.Want}
}

// sample is one completed (or failed) request.
type sample struct {
	op      int           // index into the pass
	due     time.Time     // open loop: scheduled send time; closed loop: actual send time
	late    time.Duration // open loop: how long after due the request was written
	latency time.Duration // completion − due
	bytes   int
	ok      bool
}

// writeStream hands out the generated /insert bodies, each once, to
// whichever client sends the next write, and keeps the numbers of the
// ones the server acknowledged.  Bodies are made on demand from their
// number, so the stream cannot run out however fast the server is.
type writeStream struct {
	body func(i int) string
	next atomic.Int64
	mu   sync.Mutex
	acks []int
}

func (w *writeStream) ack(i int) {
	w.mu.Lock()
	w.acks = append(w.acks, i)
	w.mu.Unlock()
}

// acknowledged returns the numbers of the writes acknowledged so far.
func (w *writeStream) acknowledged() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]int(nil), w.acks...)
}

type client struct {
	http   *http.Client
	writes *writeStream
	// firstErr keeps the first failure's description for the report.
	errOnce  sync.Once
	firstErr string
}

// newClient bounds the generator to conns connections per server, the
// same number as client goroutines.
func newClient(conns int, writes *writeStream) *client {
	return &client{writes: writes, http: &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
		},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) fail(format string, args ...any) {
	c.errOnce.Do(func() { c.firstErr = fmt.Sprintf(format, args...) })
}

// do issues one op and checks the response: status 200 and, for a
// query, the digest of the decoded answer equal to the expected one;
// for an insert, both triples reported added.
func (c *client) do(o op) (bytesRead int, ok bool) {
	var resp *http.Response
	var err error
	var insertBody string
	write := -1
	if o.insert {
		write = int(c.writes.next.Add(1)) - 1
		insertBody = c.writes.body(write)
		resp, err = c.http.Post(o.url, "text/plain", strings.NewReader(insertBody))
	} else {
		resp, err = c.http.Get(o.url)
	}
	if err != nil {
		c.fail("%s: %v", o.url, err)
		return 0, false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		c.fail("%s: status %d, read error %v, body %.200s", o.url, resp.StatusCode, err, body)
		return len(body), false
	}
	if o.insert {
		var ack struct {
			Added   int  `json:"added"`
			Partial bool `json:"partial"`
		}
		if err := json.Unmarshal(body, &ack); err != nil || ack.Added != strings.Count(insertBody, "\n") || ack.Partial {
			c.fail("%s: bad insert acknowledgement %.200s", o.url, body)
			return len(body), false
		}
		c.writes.ack(write)
		return len(body), true
	}
	got, err := digestBody(resp.Header.Get("Content-Type"), body)
	if err != nil || got != o.want {
		c.fail("%s: answer digest %v, want %v (decode error %v)", o.url, got, o.want, err)
		return len(body), false
	}
	return len(body), true
}

// digestBody digests a /query response: SPARQL JSON results for
// SELECT-like queries, N-Triples text for CONSTRUCT.  A response the
// coordinator marks partial is an error.
func digestBody(contentType string, body []byte) (digest, error) {
	var d digest
	if strings.HasPrefix(contentType, "text/plain") {
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
		for sc.Scan() {
			if line := strings.TrimSpace(sc.Text()); line != "" {
				d.add(line)
			}
		}
		return d, sc.Err()
	}
	var doc struct {
		Results struct {
			Bindings []map[string]struct {
				Value string `json:"value"`
			} `json:"bindings"`
		} `json:"results"`
		Partial bool `json:"partial"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return d, err
	}
	if doc.Partial {
		return d, fmt.Errorf("partial answer")
	}
	pairs := make([]string, 0, 8)
	for _, b := range doc.Results.Bindings {
		pairs = pairs[:0]
		for v, t := range b {
			pairs = append(pairs, v+"="+t.Value)
		}
		d.add(canonicalBinding(pairs))
	}
	return d, nil
}

// closedLoop runs passes whole passes over ops with the given number
// of clients, each sending its next request when the previous one has
// completed, and returns the samples and the wall time.
func (c *client) closedLoop(ops []op, clients, passes int) ([]sample, time.Duration) {
	total := passes * len(ops)
	samples := make([]sample, total)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				s := sample{op: i % len(ops), due: time.Now()}
				s.bytes, s.ok = c.do(ops[s.op])
				s.latency = time.Since(s.due)
				samples[i] = s
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// openLoopBacklog is how far behind its schedule the generator may
// fall before it drops a request instead of sending it late.  It is
// generous because this kind of VM freezes for a second or two now and
// then: that must show as latency, not as failed operations.
const openLoopBacklog = 10 * time.Second

// openLoop sends total requests, round-robin over ops, at rate per
// second on a schedule fixed in advance: request i is due at start + i/rate
// whatever happened to the requests before it, and its latency is
// timed from that due time, so a stall charges every request it
// delays.  conns goroutines, one connection each, take the next due
// request as they become free.  A request more than openLoopBacklog
// late is dropped and counted failed.
func (c *client) openLoop(ops []op, conns int, rate float64, total int) (samples []sample, dropped int) {
	samples = make([]sample, total)
	interval := time.Duration(float64(time.Second) / rate)
	var next, drops atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				s := sample{op: i % len(ops), due: start.Add(time.Duration(i) * interval)}
				time.Sleep(time.Until(s.due))
				s.late = time.Since(s.due)
				if s.late > openLoopBacklog {
					drops.Add(1)
				} else {
					s.bytes, s.ok = c.do(ops[s.op])
				}
				s.latency = time.Since(s.due)
				samples[i] = s
			}
		}()
	}
	wg.Wait()
	return samples, int(drops.Load())
}

// httpFloor is the median round trip of n sequential GET /healthz: the
// cost of HTTP itself on this box, below which no /query can go.
func (c *client) httpFloor(base string, n int) (time.Duration, error) {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		resp, err := c.http.Get(base + "/healthz")
		if err != nil {
			return 0, err
		}
		_, _ = io.Copy(io.Discard, resp.Body) // a short status document
		resp.Body.Close()
		ds[i] = time.Since(t0).Seconds()
	}
	return time.Duration(median(ds) * float64(time.Second)), nil
}

// serverMetrics is the part of a server's /metrics JSON the harness
// reads.
type serverMetrics struct {
	Requests        map[string]int64 `json:"requests"`
	GovernorTrips   int64            `json:"governor_trips"`
	PoolSaturations int64            `json:"pool_saturations"`
	PlannerReplans  int64            `json:"planner_replans"`
	PlanCache       struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"plan_cache"`
	Durable struct {
		WALBytes  int64 `json:"wal_bytes"`
		WALSyncs  int64 `json:"wal_syncs"`
		Snapshots int64 `json:"snapshots"`
	} `json:"durable"`
	Cluster struct {
		Shards []struct {
			Retries      int64 `json:"retries"`
			Hedges       int64 `json:"hedges"`
			HedgesWasted int64 `json:"hedges_wasted"`
			Ejections    int64 `json:"ejections"`
		} `json:"shards"`
	} `json:"cluster"`
}

func (c *client) metrics(base string) (serverMetrics, error) {
	var m serverMetrics
	resp, err := c.http.Get(base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("%s/metrics: status %d", base, resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// load posts the graph in batches and returns when every batch is
// acknowledged.
func (c *client) load(base string, batches []string) error {
	for _, b := range batches {
		resp, err := c.http.Post(base+"/insert", "text/plain", strings.NewReader(b))
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("load: status %d: %.200s", resp.StatusCode, body)
		}
	}
	return nil
}
