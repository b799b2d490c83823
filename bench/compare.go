package main

// Result sets and their comparison: the self-agreement check of the
// benchmark (-repeat) and the tool a later change uses to compare two
// commits (-compare).  The rules are the driver's: a metric's spread
// is the inter-quartile range of its per-seed values as a share of
// their median, a spread wider than the metric's bound leaves the
// comparison unresolved, and the second set regresses when its median
// is worse than the first's by more than the bound.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

type setRun struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Metrics  map[string]float64 `json:"metrics"`
}

type resultSet struct {
	Seconds float64  `json:"seconds"`
	Runs    []setRun `json:"runs"`
}

func (s resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload == workload {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// gate is one end-to-end metric's entry in BENCHMARK.json.
type gate struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readGates(root string) ([]gate, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []gate `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return doc.EndToEnd, nil
}

// verdict compares one metric's values in two sets.
func verdict(g gate, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if g.Better == "higher" {
		worse = -worse
	}
	switch {
	case len(a) > 1 && spread(a) > g.Bound, len(b) > 1 && spread(b) > g.Bound:
		return "unresolved", worse
	case worse > g.Bound:
		return "regressed", worse
	}
	return "ok", worse
}

// compareSets prints one row per (workload, metric) and reports
// whether every row is ok.
func compareSets(gates []gate, a, b resultSet) bool {
	allOK := true
	fmt.Printf("%-12s %-8s %12s %8s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "spread", "median B", "spread", "worse", "bound", "verdict")
	for _, sp := range specs {
		for _, g := range gates {
			va, vb := a.values(sp.name, g.Name), b.values(sp.name, g.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worse := verdict(g, va, vb)
			if v != "ok" {
				allOK = false
			}
			fmt.Printf("%-12s %-8s %12.4f %8.3f %12.4f %8.3f %+8.3f %6.2f  %s\n",
				sp.name, g.Name, median(va), spread(va), median(vb), spread(vb), worse, g.Bound, v)
		}
	}
	return allOK
}

func readSet(path string) (resultSet, error) {
	var s resultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(data, &s)
}

func compareFiles(root, pathA, pathB string) int {
	gates, err := readGates(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	a, err := readSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	b, err := readSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !compareSets(gates, a, b) {
		return 1
	}
	return 0
}

// runSets runs `repeat` full sets — every workload (or the one named
// by -workload) at seedsPerSet consecutive seeds — writes each to
// bench/.out/set-<n>.json and compares consecutive sets.
func runSets(sup *supervisor, cfg runConfig, repeat int) int {
	gates, err := readGates(cfg.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var sets []resultSet
	for n := 1; n <= repeat; n++ {
		set := resultSet{Seconds: cfg.seconds}
		for _, sp := range specs {
			if cfg.workload != "" && cfg.workload != sp.name {
				continue
			}
			for i := 0; i < seedsPerSet; i++ {
				c := cfg
				c.workload, c.seed, c.trace = sp.name, cfg.seed+int64(i), false
				res, err := runWorkload(sup, c)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: set %d %s seed %d: %v\n", n, c.workload, c.seed, err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: set %d %s seed %d: %d of %d requests failed: %s\n",
						n, c.workload, c.seed, res.Failed, res.Attempted, res.note)
					return 1
				}
				run := setRun{Workload: c.workload, Seed: c.seed, Metrics: map[string]float64{}}
				fmt.Printf("set %d %-12s seed %-3d", n, c.workload, c.seed)
				for _, d := range endToEnd {
					run.Metrics[d.name] = res.Metrics[d.name].Value
					fmt.Printf("  %s=%.4f", d.name, res.Metrics[d.name].Value)
				}
				fmt.Println()
				set.Runs = append(set.Runs, run)
			}
		}
		data, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(filepath.Join(cfg.outDir, fmt.Sprintf("set-%d.json", n)), data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		sets = append(sets, set)
	}
	ok := true
	if repeat == 1 { // nothing to agree with: the table still shows medians and spreads
		ok = compareSets(gates, sets[0], sets[0])
	}
	for n := 1; n < len(sets); n++ {
		fmt.Printf("\nset %d against set %d\n", n+1, n)
		if !compareSets(gates, sets[n-1], sets[n]) {
			ok = false
		}
	}
	if !ok {
		return 1
	}
	return 0
}
