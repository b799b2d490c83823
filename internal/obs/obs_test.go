package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilNodeNoOps checks the profiling-off contract: every method on
// a nil *Node records nothing and never panics, and a nil node
// snapshots to a nil profile.
func TestNilNodeNoOps(t *testing.T) {
	var n *Node
	if c := n.Child("and", ""); c != nil {
		t.Fatalf("nil.Child = %v, want nil", c)
	}
	n.AddWall(time.Second)
	n.AddRowsIn(1)
	n.AddRowsOut(1)
	n.AddDedupHits(1)
	n.AddNS(1, 1)
	n.AddNSBucket(3, 1, 1)
	n.AddRangeScans(1)
	n.AddMergeRuns(1)
	n.AddReplans(1)
	n.AddBindProbes(1)
	n.AddBudget(1, 1, 1)
	if s := n.Snapshot(); s != nil {
		t.Fatalf("nil.Snapshot = %v, want nil", s)
	}
	// A nil *Profile walks as an empty tree.
	var p *Profile
	p.Walk(func(*Profile) { t.Fatal("visited a node of a nil profile") })
	if got := p.Sum(func(*Profile) int64 { return 1 }); got != 0 {
		t.Fatalf("nil.Sum = %d", got)
	}
	if p.Find("x") != nil {
		t.Fatal("nil.Find found something")
	}
	if p.Tree() != "" {
		t.Fatal("nil.Tree non-empty")
	}
}

// TestNodeConcurrentCounters hammers one node from many goroutines and
// checks no increment is lost.
func TestNodeConcurrentCounters(t *testing.T) {
	n := NewNode("query", "")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				n.AddRowsOut(1)
				n.AddDedupHits(2)
				n.AddBudget(1, 1, 1)
				n.AddNSBucket(uint64(i%4), 1, 1)
				n.Child("triple", "t")
			}
		}()
	}
	wg.Wait()
	p := n.Snapshot()
	if p.RowsOut != workers*per {
		t.Errorf("rows_out = %d, want %d", p.RowsOut, workers*per)
	}
	if p.DedupHits != 2*workers*per {
		t.Errorf("dedup_hits = %d, want %d", p.DedupHits, 2*workers*per)
	}
	if p.BudgetSteps != workers*per || p.BudgetRows != workers*per || p.BudgetBytes != workers*per {
		t.Errorf("budget = %d/%d/%d, want %d each", p.BudgetSteps, p.BudgetRows, p.BudgetBytes, workers*per)
	}
	if len(p.Children) != workers*per {
		t.Errorf("children = %d, want %d", len(p.Children), workers*per)
	}
	if len(p.NSBuckets) != 4 {
		t.Fatalf("ns buckets = %d, want 4", len(p.NSBuckets))
	}
	var bucketTotal int64
	for i, b := range p.NSBuckets {
		if i > 0 && p.NSBuckets[i-1].Mask >= b.Mask {
			t.Errorf("buckets unsorted at %d", i)
		}
		bucketTotal += b.Candidates
	}
	if bucketTotal != workers*per {
		t.Errorf("bucket candidates = %d, want %d", bucketTotal, workers*per)
	}
}

// TestProfileTreeAndHelpers covers Snapshot structure, Walk order,
// Find, Sum and the text rendering.
func TestProfileTreeAndHelpers(t *testing.T) {
	root := NewNode("query", "q1")
	and := root.Child("and", "")
	l := and.Child("triple", "(?x p ?y)")
	r := and.Child("triple", "(?y q ?z)")
	l.AddRowsOut(3)
	r.AddRowsOut(4)
	and.AddRowsIn(7)
	and.AddRowsOut(5)
	and.AddWall(2 * time.Millisecond)
	ns := root.Child("ns", "")
	ns.AddNS(10, 6)
	ns.AddNSBucket(1, 4, 1)
	ns.AddNSBucket(3, 6, 5)

	p := root.Snapshot()
	var ops []string
	p.Walk(func(n *Profile) { ops = append(ops, n.Op) })
	want := []string{"query", "and", "triple", "triple", "ns"}
	if strings.Join(ops, ",") != strings.Join(want, ",") {
		t.Fatalf("walk order %v, want %v", ops, want)
	}
	if got := p.Sum(func(n *Profile) int64 { return n.RowsOut }); got != 12 {
		t.Errorf("Sum(rows_out) = %d, want 12", got)
	}
	if f := p.Find("ns"); f == nil || f.NSCandidates != 10 || f.NSSurvivors != 6 {
		t.Errorf("Find(ns) = %+v", f)
	}
	if p.Find("opt") != nil {
		t.Error("Find(opt) found a node that is not there")
	}
	tree := p.Tree()
	for _, frag := range []string{"query q1", "(?x p ?y)", "ns=10->6 (2 buckets)", "rows_out=5"} {
		if !strings.Contains(tree, frag) {
			t.Errorf("Tree() missing %q:\n%s", frag, tree)
		}
	}
	// The tree is JSON-serializable with stable field names.
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"op":"query"`, `"rows_out"`, `"ns_candidates":10`, `"ns_buckets"`} {
		if !strings.Contains(string(data), field) {
			t.Errorf("JSON missing %s: %s", field, data)
		}
	}
}

// TestHistogramBuckets checks bucket assignment at and around the
// bounds, including the +Inf bucket.
func TestHistogramBuckets(t *testing.T) {
	h := new(Histogram)
	h.Observe(50 * time.Microsecond)  // <= 100µs
	h.Observe(100 * time.Microsecond) // boundary: still the 100µs bucket
	h.Observe(101 * time.Microsecond) // next bucket (<= 250µs)
	h.Observe(20 * time.Second)       // beyond the last bound: +Inf
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d", s.Count)
	}
	if got := s.Buckets[0].Count; got != 2 {
		t.Errorf("bucket <=100µs = %d, want 2", got)
	}
	if got := s.Buckets[1].Count; got != 1 {
		t.Errorf("bucket <=250µs = %d, want 1", got)
	}
	last := s.Buckets[len(s.Buckets)-1]
	if last.LeUS != -1 || last.Count != 1 {
		t.Errorf("+Inf bucket = %+v", last)
	}
	wantSum := int64(50 + 100 + 101 + 20_000_000)
	if s.SumUS != wantSum {
		t.Errorf("sum_us = %d, want %d", s.SumUS, wantSum)
	}
	// Nil histogram: no-op.
	var hn *Histogram
	hn.Observe(time.Second)
}

// TestMetricsConcurrent checks the registry under concurrent load:
// request counts by code, unknown codes, gauges and trip counters.
func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.IncInFlight()
				m.ObserveRequest("query", 200, time.Millisecond)
				m.ObserveRequest("insert", 413, 2*time.Millisecond)
				m.ObserveRequest("query", 418, 0) // unknown code
				m.GovernorTrip()
				m.Panic()
				m.DecInFlight()
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	total := int64(workers * per)
	if s.Requests["200"] != total || s.Requests["413"] != total {
		t.Errorf("requests = %v", s.Requests)
	}
	if s.Requests["other"] != total {
		t.Errorf("other = %d, want %d", s.Requests["other"], total)
	}
	if s.Requests["503"] != 0 {
		t.Errorf("503 pre-seeded count = %d, want 0", s.Requests["503"])
	}
	if s.InFlight != 0 {
		t.Errorf("in_flight = %d, want 0", s.InFlight)
	}
	if s.GovernorTrips != total || s.Panics != total {
		t.Errorf("trips/panics = %d/%d, want %d", s.GovernorTrips, s.Panics, total)
	}
	if s.Latency["query"].Count != 2*total || s.Latency["insert"].Count != total {
		t.Errorf("latency counts = %d/%d", s.Latency["query"].Count, s.Latency["insert"].Count)
	}
	// Nil registry: every method is a no-op.
	var mn *Metrics
	mn.ObserveRequest("query", 200, 0)
	mn.IncInFlight()
	mn.DecInFlight()
	mn.GovernorTrip()
	mn.Panic()
}
