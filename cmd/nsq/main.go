// Command nsq evaluates an NS-SPARQL query over an RDF graph and prints
// the result: an aligned mapping table for graph patterns (as in the
// paper's examples) or N-Triples for CONSTRUCT queries.
//
// Usage:
//
//	nsq -graph data.nt -query '(?p founder ?o)'
//	nsq -graph data.nt -query-file q.rq -max
//	echo 'a b c .' | nsq -query '(?x b ?y)'
//	nsq -server http://localhost:8080 -trace 4be1c2d9e0f1a2b3
//
// Queries run the way the servers run them: exec.Compile plans, and
// exec.EvalCompiled evaluates and materialises the answer.  With
// -stats, the recorded plan and the per-operator execution profile
// (wall time, rows in/out, dedup hits, NS candidates vs survivors,
// budget steps) are printed to stderr around the results.
// -optimize=false evaluates SELECT and CONSTRUCT with the reference
// evaluator instead (ASK and -stats always go through the planner).
//
// With -trace <id>, nsq fetches that trace from a server's
// /debug/traces endpoint (-server, default http://localhost:8080) and
// prints the span tree — against nscoord this is the stitched
// distributed trace including the shard-side spans.  The trace ID
// comes from a response's NS-Trace-Id header or a slow-query log line.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// runOpts bundles the command-line switches of one nsq invocation.
type runOpts struct {
	graphPath string // graph file ("" = stdin)
	queryText string
	queryFile string
	maxOnly   bool // wrap the pattern in NS(...)
	showPlan  bool // print the parsed/optimized query first
	optimize  bool // use the query planner
	w3c       bool // W3C SPARQL surface syntax
	stats     bool // print the execution profile to stderr
	traceID   string
	server    string
}

func main() {
	var o runOpts
	flag.StringVar(&o.graphPath, "graph", "", "path to the graph in N-Triples-style format (default: stdin)")
	flag.StringVar(&o.queryText, "query", "", "query text (graph pattern or CONSTRUCT query)")
	flag.StringVar(&o.queryFile, "query-file", "", "read the query from a file instead")
	flag.BoolVar(&o.maxOnly, "max", false, "wrap the pattern in NS(...) to keep only maximal answers")
	flag.BoolVar(&o.showPlan, "ast", false, "print the parsed query before evaluating")
	flag.BoolVar(&o.optimize, "optimize", true, "use the query planner (hash joins, join reordering)")
	flag.BoolVar(&o.w3c, "sparql", false, "parse the query in W3C-style SPARQL surface syntax")
	flag.BoolVar(&o.stats, "stats", false, "print the per-operator execution profile to stderr (implies the planner)")
	flag.StringVar(&o.traceID, "trace", "", "fetch this trace ID from a server's /debug/traces and print the span tree")
	flag.StringVar(&o.server, "server", "http://localhost:8080", "server base URL for -trace")
	flag.Parse()
	if o.traceID != "" {
		if err := fetchTrace(o.server, o.traceID); err != nil {
			fmt.Fprintln(os.Stderr, "nsq:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "nsq:", err)
		os.Exit(1)
	}
}

// fetchTrace pulls one trace by ID from a server's /debug/traces
// endpoint and prints its span tree.  Against nscoord the server
// stitches the shard-side segments in before answering, so the tree
// spans the whole cluster.
func fetchTrace(server, id string) error {
	u := strings.TrimSuffix(server, "/") + "/debug/traces?id=" + url.QueryEscape(id)
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(u)
	if err != nil {
		return fmt.Errorf("fetching trace: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("trace %s not found on %s (sampled out, evicted, or tracing disabled)", id, server)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("fetching trace: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var snap obs.TraceSnapshot
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&snap); err != nil {
		return fmt.Errorf("decoding trace: %w", err)
	}
	fmt.Print(snap.Tree())
	return nil
}

// printStats renders the profile tree to stderr, keeping stdout clean
// for the query results.
func printStats(prof *obs.Node) {
	fmt.Fprint(os.Stderr, prof.Snapshot().Tree())
}

// printPlan renders the planner's recorded decisions (join order,
// index permutations, merge/hash choices) to stderr, above the
// execution profile.
func printPlan(pr plan.Prepared) {
	fmt.Fprint(os.Stderr, pr.Explain().Summary())
}

func run(o runOpts) error {
	if o.queryText == "" && o.queryFile == "" {
		return fmt.Errorf("one of -query or -query-file is required")
	}
	if o.queryText != "" && o.queryFile != "" {
		return fmt.Errorf("-query and -query-file are mutually exclusive")
	}
	queryText := o.queryText
	if o.queryFile != "" {
		data, err := os.ReadFile(o.queryFile)
		if err != nil {
			return err
		}
		queryText = string(data)
	}

	var g *rdf.Graph
	var err error
	if o.graphPath == "" {
		g, err = rdf.ReadGraph(os.Stdin)
	} else {
		var f *os.File
		f, err = os.Open(o.graphPath)
		if err == nil {
			defer f.Close()
			g, err = rdf.ReadGraph(f)
		}
	}
	if err != nil {
		return fmt.Errorf("reading graph: %w", err)
	}

	syntax := "paper"
	if o.w3c {
		syntax = "sparql"
	}
	q, err := parser.ParseAny(syntax, queryText)
	if err != nil {
		return fmt.Errorf("parsing query: %w", err)
	}
	if q.Construct != nil {
		if o.maxOnly {
			q.Construct.Where = sparql.NS{P: q.Construct.Where}
		}
		q.Pattern = q.Construct.Where
		if o.showPlan {
			fmt.Println("#", q.Construct)
		}
	} else {
		if o.maxOnly {
			q.Pattern = sparql.NS{P: q.Pattern}
		}
		if o.showPlan && !q.Ask {
			fmt.Println("#", plan.Optimize(g, q.Pattern))
		}
	}

	var prof *obs.Node // nil unless -stats
	if o.stats {
		prof = obs.NewNode("query", "")
	}
	var res exec.Result
	if o.optimize || o.stats || q.Ask {
		c := exec.Compile(g, q.Pattern, q.Construct, q.Ask)
		if o.stats {
			printPlan(c.Prepared)
		}
		res, err = exec.EvalCompiled(g, c, sparql.NewBudget(context.Background()), plan.Options{Prof: prof})
		if err != nil {
			return err
		}
	} else if q.Construct != nil {
		res.Graph = sparql.EvalConstruct(g, *q.Construct)
	} else {
		res.Rows = sparql.Eval(g, q.Pattern)
	}
	switch {
	case res.Bool != nil:
		fmt.Println(*res.Bool)
	case res.Graph != nil:
		fmt.Print(res.Graph)
	default:
		fmt.Print(res.Rows.Table())
		fmt.Printf("(%d solution%s)\n", res.Rows.Len(), plural(res.Rows.Len()))
	}
	if prof != nil {
		printStats(prof)
	}
	return nil
}

func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}
