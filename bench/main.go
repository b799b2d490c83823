// Command bench is the repository's benchmark: it builds nsserve and
// nscoord, boots them as supervised children, drives them over HTTP
// with generated traffic, checks every answer and prints the metrics
// BENCHMARK.json declares.  See README.md.
//
//	go run -C bench . --workload single_mix --seed 1 --seconds 30 --trace 0
//	go run -C bench . -repeat 2                  # self-agreement of two full sets
//	go run -C bench . -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// watchdog is the hard limit on one run; the driver allows 180 s.
const watchdog = 150 * time.Second

func main() { os.Exit(realMain()) }

func realMain() int {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "single_mix, analytic_ns, durable_rw or cluster_mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "drives the generated graph, query constants and writes")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the timed phases of a run; BENCHMARK.json runs 30")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics and trace.json")
	compare := flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	repeat := flag.Int("repeat", 0, "run this many full sets (every workload, or the one -workload names, at ten seeds starting at -seed) and require that consecutive sets agree")
	flag.Parse()
	cfg.trace = trace != 0

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cfg.root = root
	cfg.outDir = filepath.Join(root, "bench", ".out")
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result-set files")
			return 2
		}
		return compareFiles(root, flag.Arg(0), flag.Arg(1))
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	sup := newSupervisor()
	watchExits(sup, watchdog*time.Duration(max(1, *repeat*seedsPerSet*len(specs))))
	defer func() {
		if r := recover(); r != nil {
			sup.stopAll()
			panic(r)
		}
	}()

	if *repeat > 0 {
		sup.exit(runSets(sup, cfg, *repeat))
	}
	res, err := runWorkload(sup, cfg)
	left := sup.stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		fmt.Fprintf(os.Stderr, "children_left=%d\n", left)
		return 1
	}
	printSummary(cfg, res, left)
	if res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d of %d requests failed; %s\n", res.Failed, res.Attempted, res.note)
	}
	if left != 0 {
		return 1 // no result line: a run that leaks a process has no result
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// findRoot locates the repository root: the nearest directory above
// the working directory that holds cmd/nsserve.  `go run -C bench .`
// starts the program inside bench/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "nsserve")); err == nil && st.IsDir() {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", errors.New("no cmd/nsserve above the working directory: run from the repository")
		}
		dir = up
	}
}

// printSummary prints every metric of the run by name with its unit,
// before the result line.
func printSummary(cfg runConfig, res *result, left int) {
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Println(res.note)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		if sp, ok := res.spreads[n]; ok && !cfg.trace {
			fmt.Printf("%-34s %14.4f %-6s (median of rounds, IQR/median %.3f)\n", n, m.Value, m.Unit, sp)
		} else {
			fmt.Printf("%-34s %14.4f %s\n", n, m.Value, m.Unit)
		}
	}
	fmt.Printf("attempted=%d failed=%d correct=%t\n", res.Attempted, res.Failed, res.Correct)
	fmt.Printf("children_left=%d\n", left)
}
