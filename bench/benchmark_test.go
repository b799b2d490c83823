package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// BENCHMARK.json is what the driver reads; metrics.go and workloads.go
// are what the program does.  They must say the same thing, within the
// limits the contract sets.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("keys %v, want %v", keys, want)
	}
	type decl struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []decl `json:"end_to_end"`
		PerLayer   []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "-C", "bench", "."}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	// 4 + 22 runs per workload must fit the driver's 3420 s with room
	// for two cold builds (25 s each, measured) and each run's untimed
	// work (2 to 3 s measured: inputs, expected answers, boot, stop).
	if total := (4+22*len(doc.Workloads))*(doc.RunSeconds+4) + 2*30; total > 3420-120 {
		t.Errorf("%d runs of about %d s do not fit 3420 s", 4+22*len(doc.Workloads), doc.RunSeconds+4)
	}
	if doc.RunSeconds < 30 {
		t.Errorf("run_seconds %d: each workload wants at least 30 s of timed phases", doc.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d decl, gated bool) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("bad declaration %+v", d)
		}
		if seen[d.Name] {
			t.Errorf("name %s used twice", d.Name)
		}
		seen[d.Name] = true
		if gated != (d.Bound != nil) || (gated && (*d.Bound <= 0 || *d.Bound > 0.25)) {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || !name.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), implemented %q", i, w.Name, len(w.Why), specs[i].name)
		}
		seen[w.Name] = true
	}
	compare := func(kind string, got []decl, want []metricDecl, gated bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, %d emitted", kind, len(got), len(want))
		}
		for i, d := range got {
			check(d, gated)
			if (metricDecl{d.Name, d.Unit, d.Better}) != want[i] {
				t.Errorf("%s[%d]: declared %+v, emitted %+v", kind, i, d, want[i])
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
	if len(doc.PerLayer) > 128 || len(doc.EndToEnd) > 16 {
		t.Error("too many metrics")
	}
	var setup, largest float64
	for _, d := range doc.EndToEnd {
		if d.Name == "setup_s" {
			setup = *d.Bound
			if d.Unit != "s" || d.Better != "lower" {
				t.Errorf("setup_s declared as %+v", d)
			}
		}
		if *d.Bound > largest {
			largest = *d.Bound
		}
	}
	if setup == 0 || setup < largest {
		t.Errorf("setup_s bound %v, largest bound %v", setup, largest)
	}
}

func TestResultLineSchema(t *testing.T) {
	res := &result{Correct: true, Attempted: 10, Metrics: map[string]metric{"qps": {1234.5678, "ops/s"}},
		spreads: map[string]float64{"qps": 0.1}, note: "not part of the line"}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]json.RawMessage
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 4 || back["correct"] == nil || back["attempted"] == nil || back["failed"] == nil || back["metrics"] == nil {
		t.Fatalf("result line %s", line)
	}
	var ms map[string]map[string]any
	if err := json.Unmarshal(back["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if q := ms["qps"]; len(q) != 2 || q["value"] != 1234.5678 || q["unit"] != "ops/s" {
		t.Errorf("metric %v", q)
	}
}

func TestPlanRounds(t *testing.T) {
	for _, c := range []struct {
		fit            float64
		traced         bool
		rounds, passes int
	}{
		{27.9, false, 5, 5}, // plenty of passes: five rounds of several
		{7.2, false, 7, 1},  // a pass per round: more rounds, not longer ones
		{40, false, 5, 8},
		{12, false, 6, 2},
		{3.1, false, 5, 1}, // never fewer than five rounds, even past the budget
		{0.4, false, 5, 1},
		{20, false, 5, 4},
		{9, false, 9, 1},
		{6.5, true, 1, 6}, // a traced run measures one round
		{0.2, true, 1, 1},
	} {
		r, p := planRounds(c.fit, c.traced)
		if r != c.rounds || p != c.passes {
			t.Errorf("planRounds(%v, %v) = %d rounds of %d, want %d of %d", c.fit, c.traced, r, p, c.rounds, c.passes)
		}
	}
}

func TestSizeProfile(t *testing.T) {
	got := sizeProfile(10, 0.4, 1, 1000)
	want := []int{0, 0, 0, 0, 1, 4, 16, 63, 251, 1000}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sizeProfile = %v, want %v", got, want)
	}
	if got := sizeProfile(2, 0, 220, 320); !reflect.DeepEqual(got, []int{220, 320}) {
		t.Errorf("two slots: %v", got)
	}
	total := 0
	for _, m := range mixStrata {
		total += m.n
		if len(sizeProfile(m.n, m.empty, m.lo, m.hi)) != m.n {
			t.Errorf("%s: profile length", m.shape)
		}
	}
	if total != 200 {
		t.Errorf("the mix has %d slots, want 200 (it must fit the 256-entry plan cache)", total)
	}
}
