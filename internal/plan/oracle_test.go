package plan

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// The row-multiset oracle: every suite in this package runs plans
// through Run, the engine's one exit, and compares the rows it returns
// with the reference evaluator as multisets.  A MappingSet would fold a
// row returned twice into one and hide the duplicate.

// rowKeys renders an answer as its sorted rows, one string a row: a
// multiset, so a row returned twice does not compare equal to a set.
func rowKeys(r sparql.Rows) []string {
	width := len(r.Vars)
	keys := make([]string, 0, r.Len())
	for i := 0; i < r.Len(); i++ {
		var sb strings.Builder
		for j, v := range r.Vars {
			if r.Masks[i*r.Words+j/64]&(1<<uint(j%64)) != 0 {
				fmt.Fprintf(&sb, "%s=%s;", string(v), r.Dict.IRI(r.IDs[i*width+j]))
			}
		}
		keys = append(keys, sb.String())
	}
	sort.Strings(keys)
	return keys
}

// mappingKeys renders a reference answer the way rowKeys does.
func mappingKeys(ms *sparql.MappingSet) []string {
	keys := make([]string, 0, ms.Len())
	for _, mu := range ms.Mappings() {
		vars := make([]string, 0, len(mu))
		for v := range mu {
			vars = append(vars, string(v))
		}
		sort.Strings(vars)
		var sb strings.Builder
		for _, v := range vars {
			fmt.Fprintf(&sb, "%s=%s;", v, mu[sparql.Var(v)])
		}
		keys = append(keys, sb.String())
	}
	sort.Strings(keys)
	return keys
}

// sameRows reports whether rows hold exactly the reference answer,
// each row once.
func sameRows(rows sparql.Rows, want *sparql.MappingSet) bool {
	return strings.Join(rowKeys(rows), "\n") == strings.Join(mappingKeys(want), "\n")
}

// run executes pr on g through Run with no budget, failing the test on
// an error.
func run(t testing.TB, g rdf.Store, pr Prepared, o Options) sparql.Rows {
	t.Helper()
	rows, err := Run(g, pr, nil, o)
	if err != nil {
		t.Fatalf("Run %s: %v", pr.Pattern(), err)
	}
	return rows
}

// checkRun prepares p on g under po, runs it under o and requires
// exactly the reference answer ⟦p⟧_g.
func checkRun(t testing.TB, g rdf.Store, p sparql.Pattern, po PlannerOptions, o Options) {
	t.Helper()
	want := sparql.Eval(g, p)
	if rows := run(t, g, PrepareOpts(g, p, po), o); !sameRows(rows, want) {
		t.Fatalf("%s under %+v / %+v:\ngot  %v\nwant %v", p, po, o, rowKeys(rows), mappingKeys(want))
	}
}
