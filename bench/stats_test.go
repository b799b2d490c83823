package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.01, 1}, {1, 10}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty sample must give 0")
	}
}

func TestMedianOfRounds(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	// One disturbed round does not move the reported figure.
	if got := median([]float64{100, 101, 99, 100.5, 900}); got != 100.5 {
		t.Errorf("median with outlier = %v", got)
	}
}

// The expected values are statistics.quantiles(xs, n=4) of Python 3.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 30, 20, 50, 40})
	if !near(q1, 15) || !near(q3, 45) {
		t.Errorf("quartiles = %v, %v; want 15, 45", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1})
	if !near(q1, 0.5) || !near(q3, 3.5) {
		t.Errorf("two values = %v, %v; want 0.5, 3.5", q1, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 1.0) {
		t.Errorf("spread = %v, want 1.0", s)
	}
}

func TestDigestIgnoresOrder(t *testing.T) {
	var a, b digest
	a.add(canonicalBinding([]string{"x=p1", "e=mail"}))
	a.add(canonicalBinding([]string{"x=p2"}))
	b.add(canonicalBinding([]string{"x=p2"}))
	b.add(canonicalBinding([]string{"e=mail", "x=p1"}))
	if a != b {
		t.Errorf("same solutions in another order digest differently: %v %v", a, b)
	}
	var c digest
	c.add(canonicalBinding([]string{"x=p2"}))
	c.add(canonicalBinding([]string{"x=p1"}))
	if a == c {
		t.Error("dropping a binding must change the digest")
	}
	var d digest
	d.add(canonicalBinding([]string{"x=p2"}))
	if c == d || d.N != 1 {
		t.Error("the solution count is part of the digest")
	}
}

func TestDigestBody(t *testing.T) {
	js := `{"head":{"vars":["e","x"]},"results":{"bindings":[
	 {"x":{"type":"uri","value":"p2"}},
	 {"e":{"type":"uri","value":"mail"},"x":{"type":"uri","value":"p1"}}]}}`
	got, err := digestBody("application/sparql-results+json", []byte(js))
	if err != nil {
		t.Fatal(err)
	}
	var want digest
	want.add(canonicalBinding([]string{"x=p1", "e=mail"}))
	want.add(canonicalBinding([]string{"x=p2"}))
	if got != want {
		t.Errorf("json digest %v, want %v", got, want)
	}
	nt, err := digestBody("text/plain; charset=utf-8", []byte("<a> <b> <c> .\n\n<d> <e> <f> .\n"))
	if err != nil || nt.N != 2 {
		t.Errorf("n-triples digest %v, %v", nt, err)
	}
	if _, err := digestBody("application/json", []byte(`{"results":{"bindings":[]},"partial":true}`)); err == nil {
		t.Error("a partial answer must not digest")
	}
}

func TestResidualSummary(t *testing.T) {
	// Three queries, three passes each: medians 100/40, 200/-10, 700/0.
	request := [][]float64{{100, 90, 500}, {200, 210, 190}, {700, 700, 700}}
	residual := [][]float64{{40, 50, -400}, {-10, 5, -30}, {0, 1, -1}}
	mean, negative := residualSummary(request, residual)
	if mean != 10 || negative != 0.01 {
		t.Errorf("mean residual %v, want 10 (not clamped); negative ratio %v, want 10/1000", mean, negative)
	}
	// Layers that are all of the request and only noisy leave the ratio
	// near zero, whatever the share of negative residuals.
	_, noisy := residualSummary([][]float64{{1000}, {1000}}, [][]float64{{-20}, {20}})
	if noisy != 0.01 {
		t.Errorf("noise: %v", noisy)
	}
}

func TestVerdict(t *testing.T) {
	lower := gate{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := gate{Name: "qps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	if v, _ := verdict(lower, steady, scale(1.05)); v != "ok" {
		t.Errorf("5%% slower within a 10%% bound: %s", v)
	}
	if v, _ := verdict(lower, steady, scale(1.2)); v != "regressed" {
		t.Errorf("20%% slower: %s", v)
	}
	if v, _ := verdict(lower, steady, scale(0.5)); v != "ok" {
		t.Errorf("faster: %s", v)
	}
	if v, _ := verdict(higher, steady, scale(0.8)); v != "regressed" {
		t.Errorf("20%% less throughput: %s", v)
	}
	noisy := []float64{60, 140, 100, 70, 130, 100, 80, 120, 100, 100}
	if v, _ := verdict(lower, steady, noisy); v != "unresolved" {
		t.Errorf("spread wider than the bound: %s", v)
	}
}
