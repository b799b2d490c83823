package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// stubQuery answers every /query with an empty result after delay.
func stubQuery(delay time.Duration, hits *atomic.Int64) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		time.Sleep(delay)
		w.Header().Set("Content-Type", "application/sparql-results+json")
		fmt.Fprint(w, `{"head":{"vars":[]},"results":{"bindings":[]}}`)
	}))
}

func TestOpenLoopKeepsItsSchedule(t *testing.T) {
	var hits atomic.Int64
	srv := stubQuery(0, &hits)
	defer srv.Close()
	cl := newClient(2, nil)
	defer cl.close()
	ops := []op{{url: srv.URL + "/query"}, {url: srv.URL + "/query"}}
	const rate, total = 200.0, 40
	start := time.Now()
	samples, dropped := cl.openLoop(ops, 2, rate, total)
	elapsed := time.Since(start)
	if dropped != 0 || countFailed(samples) != 0 || int(hits.Load()) != total {
		t.Fatalf("dropped %d failed %d hits %d: %s", dropped, countFailed(samples), hits.Load(), cl.firstErr)
	}
	for i := 1; i < total; i++ {
		if gap := samples[i].due.Sub(samples[i-1].due); gap != time.Second/rate {
			t.Fatalf("due times %d and %d are %v apart, want %v", i-1, i, gap, time.Second/rate)
		}
		if samples[i].op != i%len(ops) {
			t.Fatalf("sample %d ran op %d", i, samples[i].op)
		}
	}
	if want := time.Duration(float64(total-1) / rate * float64(time.Second)); elapsed < want {
		t.Errorf("%d requests at %v/s took %v, less than the schedule's %v", total, rate, elapsed, want)
	}
}

// A server slower than the schedule makes later requests late, and
// their latency — timed from when they were due — grows with the
// backlog even though each round trip takes the same time.
func TestOpenLoopChargesBacklogToLatency(t *testing.T) {
	var hits atomic.Int64
	const service = 20 * time.Millisecond
	srv := stubQuery(service, &hits)
	defer srv.Close()
	cl := newClient(1, nil)
	defer cl.close()
	ops := []op{{url: srv.URL + "/query"}}
	samples, _ := cl.openLoop(ops, 1, 100, 10) // due every 10 ms, served every 20 ms
	last := samples[len(samples)-1]
	if last.late < 5*service/2 {
		t.Errorf("last request was sent %v late, want at least %v", last.late, 5*service/2)
	}
	if last.latency < last.late+service {
		t.Errorf("latency %v does not include the %v the request waited past its due time", last.latency, last.late)
	}
	if samples[0].late > 5*time.Millisecond {
		t.Errorf("first request %v late on an idle generator", samples[0].late)
	}
}

func TestClosedLoopRunsWholePasses(t *testing.T) {
	var hits atomic.Int64
	srv := stubQuery(0, &hits)
	defer srv.Close()
	cl := newClient(2, nil)
	defer cl.close()
	ops := make([]op, 7)
	for i := range ops {
		ops[i] = op{url: srv.URL + "/query"}
	}
	samples, elapsed := cl.closedLoop(ops, 2, 3)
	if len(samples) != 21 || hits.Load() != 21 || elapsed <= 0 {
		t.Fatalf("%d samples, %d hits", len(samples), hits.Load())
	}
	perOp := make([]int, len(ops))
	for _, s := range samples {
		perOp[s.op]++
	}
	for i, n := range perOp {
		if n != 3 {
			t.Errorf("op %d ran %d times in 3 passes", i, n)
		}
	}
}

func TestWrongAnswerIsAFailure(t *testing.T) {
	var hits atomic.Int64
	srv := stubQuery(0, &hits)
	defer srv.Close()
	cl := newClient(1, nil)
	defer cl.close()
	var one digest
	one.add("x=a")
	if _, ok := cl.do(op{url: srv.URL + "/query", want: one}); ok {
		t.Error("an empty answer passed for a one-row expectation")
	}
	if cl.firstErr == "" {
		t.Error("the failure was not described")
	}
	if _, ok := cl.do(op{url: srv.URL + "/query"}); !ok {
		t.Error("the expected answer was refused")
	}
}

// Only a write the server acknowledged in full counts as written: the
// crash check replays exactly those.
func TestOnlyAcknowledgedWritesCount(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n.Add(1) {
		case 2:
			http.Error(w, "busy", http.StatusServiceUnavailable)
		case 3:
			fmt.Fprint(w, `{"added":1}`)
		default:
			fmt.Fprint(w, `{"added":2}`)
		}
	}))
	defer srv.Close()
	writes := &writeStream{body: func(i int) string { return insertBody(100, 1, i) }}
	cl := newClient(1, writes)
	defer cl.close()
	var oks []bool
	for i := 0; i < 4; i++ {
		_, ok := cl.do(op{url: srv.URL + "/insert", insert: true})
		oks = append(oks, ok)
	}
	if got := writes.acknowledged(); !reflect.DeepEqual(got, []int{0, 3}) || !reflect.DeepEqual(oks, []bool{true, false, false, true}) {
		t.Errorf("acknowledged writes %v, results %v", got, oks)
	}
}

func TestPassOpsInterleavesWrites(t *testing.T) {
	rot := make([]query, 20)
	ops := passOps("http://x", rot, 9)
	writes := 0
	for i, o := range ops {
		if o.insert {
			writes++
			if (i+1)%10 != 0 {
				t.Errorf("insert at position %d", i)
			}
		}
	}
	if writes != 2 || len(ops) != 22 {
		t.Errorf("%d writes among %d ops", writes, len(ops))
	}
}
