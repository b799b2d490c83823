package exec

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// The oracle: the response path both servers had before ResultWriter —
// MappingSet → Sorted → one map per row → reflective json.Encoder, and
// rdf.WriteGraph over a built graph.  The writer must reproduce its
// bytes, except that an empty head is [] and not the null a nil slice
// marshals to.

type oracleTerm struct {
	Type  string `json:"type"`
	Value string `json:"value"`
}

type oracleDoc struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results struct {
		Bindings []map[string]oracleTerm `json:"bindings"`
	} `json:"results"`
	Partial *bool    `json:"partial,omitempty"`
	Shards  []string `json:"shards,omitempty"`
}

func oracleBinding(mu sparql.Mapping) map[string]oracleTerm {
	b := make(map[string]oracleTerm, len(mu))
	for v, iri := range mu {
		b[string(v)] = oracleTerm{Type: "uri", Value: string(iri)}
	}
	return b
}

// oracleBindings renders sorted (the mappings in output order) the old
// way.
func oracleBindings(t testing.TB, sorted []sparql.Mapping, partial *bool, shards []string) []byte {
	t.Helper()
	doc := oracleDoc{Partial: partial, Shards: shards}
	doc.Head.Vars = []string{}
	seen := make(map[sparql.Var]bool)
	for _, mu := range sorted {
		for v := range mu {
			if !seen[v] {
				seen[v] = true
				doc.Head.Vars = append(doc.Head.Vars, string(v))
			}
		}
	}
	sort.Strings(doc.Head.Vars)
	doc.Results.Bindings = make([]map[string]oracleTerm, 0, len(sorted))
	for _, mu := range sorted {
		doc.Results.Bindings = append(doc.Results.Bindings, oracleBinding(mu))
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// contractOrder sorts mappings by the ordering contract on
// ResultWriter, written against the string form: bindings in variable
// order, compared variable first, then IRI bytes, a proper prefix
// first.
func contractOrder(ms *sparql.MappingSet) []sparql.Mapping {
	out := append([]sparql.Mapping(nil), ms.Mappings()...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		da, db := a.Domain(), b.Domain()
		for k := 0; k < len(da) && k < len(db); k++ {
			if da[k] != db[k] {
				return da[k] < db[k]
			}
			if a[da[k]] != b[db[k]] {
				return a[da[k]] < b[db[k]]
			}
		}
		return len(da) < len(db)
	})
	return out
}

func writeBindings(t testing.TB, rows sparql.Rows, extra ...Field) []byte {
	t.Helper()
	w := NewResultWriter()
	defer w.Release()
	st, err := w.WriteBindings(rows, extra...)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != rows.Len() || st.Bytes != len(w.Bytes()) {
		t.Fatalf("stats %+v for %d rows, %d bytes", st, rows.Len(), len(w.Bytes()))
	}
	return bytes.Clone(w.Bytes())
}

func writeTriples(t testing.TB, rows sparql.Rows, template []sparql.TriplePattern, b *sparql.Budget) []byte {
	t.Helper()
	w := NewResultWriter()
	defer w.Release()
	if _, err := w.WriteTriples(rows, template, b); err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(w.Bytes())
}

func oracleTriples(t testing.TB, g rdf.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rdf.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var fragments = []struct {
	name string
	ops  []sparql.Op
}{
	{"AND", []sparql.Op{sparql.OpAnd}},
	{"AUF", []sparql.Op{sparql.OpAnd, sparql.OpUnion, sparql.OpFilter}},
	{"AUFS", []sparql.Op{sparql.OpAnd, sparql.OpUnion, sparql.OpFilter, sparql.OpSelect}},
	{"AO", []sparql.Op{sparql.OpAnd, sparql.OpOpt}},
	{"NS-SPARQL", nil},
}

// TestBindingsMatchOracle: on random patterns and graphs of every
// fragment the writer's document is byte for byte the old path's —
// heterogeneous masks from OPT/NS/UNION, projections, empty answers,
// the trailing members — and agrees with the contract order, which on
// IRIs that need no quoting is the old key order.
func TestBindingsMatchOracle(t *testing.T) {
	yes := true
	for _, fr := range fragments {
		t.Run(fr.name, func(t *testing.T) {
			for seed := int64(0); seed < 300; seed++ {
				rng := rand.New(rand.NewSource(seed))
				p := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3, Ops: fr.ops})
				g := workload.RandomGraph(rng, rng.Intn(25), nil)
				c := Compile(g, p, nil, false)
				ans, err := Run(g, c, nil, plan.Options{})
				if err != nil {
					t.Fatal(err)
				}
				ms := ans.Rows.MappingSet()
				if want, got := oracleBindings(t, ms.Sorted(), nil, nil), writeBindings(t, ans.Rows); !bytes.Equal(got, want) {
					t.Fatalf("seed %d, %s on\n%s\ngot  %swant %s", seed, p, g, got, want)
				}
				if !bytes.Equal(oracleBindings(t, contractOrder(ms), nil, nil), oracleBindings(t, ms.Sorted(), nil, nil)) {
					t.Fatalf("seed %d: contract order is not the key order", seed)
				}
				want := oracleBindings(t, ms.Sorted(), &yes, []string{"shard <1>"})
				got := writeBindings(t, ans.Rows, Field{"partial", true}, Field{"shards", []string{"shard <1>"}})
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d with trailing members\ngot  %swant %s", seed, got, want)
				}
			}
		})
	}
}

// TestTriplesMatchOracle: CONSTRUCT through the writer is byte for
// byte rdf.WriteGraph over the graph the library path builds — with
// optional parts, template constants the graph has never seen, template
// variables the pattern does not have, and one budget step per row.
func TestTriplesMatchOracle(t *testing.T) {
	iris := append([]rdf.IRI{"fresh", "new>er", "line\nbreak"}, workload.DefaultIRIs...)
	vars := append([]sparql.Var{"Unbound"}, workload.DefaultVars...)
	for _, fr := range fragments {
		t.Run(fr.name, func(t *testing.T) {
			for seed := int64(0); seed < 300; seed++ {
				rng := rand.New(rand.NewSource(seed))
				where := workload.RandomPattern(rng, workload.PatternOpts{Depth: 3, Ops: fr.ops})
				g := workload.RandomGraph(rng, rng.Intn(25), nil)
				q := sparql.ConstructQuery{Where: where}
				for i := 0; i <= rng.Intn(3); i++ {
					q.Template = append(q.Template, workload.RandomTriplePattern(rng, &workload.PatternOpts{Vars: vars, IRIs: iris, VarProb: 60}))
				}
				c := Compile(g, where, &q, false)
				res, err := EvalCompiled(g, c, nil, plan.Options{})
				if err != nil {
					t.Fatal(err)
				}
				ans, err := Run(g, c, nil, plan.Options{})
				if err != nil {
					t.Fatal(err)
				}
				b := sparql.NewBudget(context.Background())
				if want, got := oracleTriples(t, res.Graph), writeTriples(t, ans.Rows, ans.Template, b); !bytes.Equal(got, want) {
					t.Fatalf("seed %d, %v WHERE %s on\n%s\ngot\n%swant\n%s", seed, q.Template, where, g, got, want)
				}
				if steps := b.Steps(); steps != int64(ans.Rows.Len()) {
					t.Fatalf("seed %d: %d budget steps for %d rows", seed, steps, ans.Rows.Len())
				}
			}
		})
	}
}

// TestTriplesBudget: the step per row is a real charge — a budget
// smaller than the answer stops the instantiation with its typed
// error, and the writer is fit for reuse afterwards.
func TestTriplesBudget(t *testing.T) {
	g := workload.RandomGraph(rand.New(rand.NewSource(1)), 40, nil)
	where := sparql.TP(sparql.V("X"), sparql.V("Y"), sparql.V("Z"))
	c := Compile(g, where, &sparql.ConstructQuery{Where: where, Template: []sparql.TriplePattern{where}}, false)
	ans, err := Run(g, c, nil, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := new(ResultWriter)
	b := sparql.NewBudget(context.Background()).WithMaxSteps(int64(ans.Rows.Len() / 2)).WithStride(1)
	if _, err := w.WriteTriples(ans.Rows, ans.Template, b); err == nil {
		t.Fatal("half the steps were enough")
	}
	w.body = w.body[:0]
	if _, err := w.WriteTriples(ans.Rows, ans.Template, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), oracleTriples(t, g)) {
		t.Fatalf("writer reused after a budget error wrote\n%s", w.Bytes())
	}
}

// TestWideFallbackThroughWriter: a pattern over more than
// sparql.MaxSchemaVars variables runs on the string algebra and leaves
// through the same writer, several mask words per row.
func TestWideFallbackThroughWriter(t *testing.T) {
	g := rdf.NewGraph()
	var arms []sparql.Pattern
	for i := 0; i < 70; i++ {
		s := rdf.IRI(fmt.Sprintf("s%02d", i%7))
		g.Add(s, "p", rdf.IRI(fmt.Sprintf("o%02d", i)))
		arm := sparql.Pattern(sparql.TP(sparql.I(s), sparql.I("p"), sparql.V(sparql.Var(fmt.Sprintf("v%02d", i)))))
		if i%5 == 0 { // a second binding in another mask word
			arm = sparql.Opt{L: arm, R: sparql.TP(sparql.I(s), sparql.V("p69"), sparql.V(sparql.Var(fmt.Sprintf("v%02d", 69-i))))}
		}
		arms = append(arms, arm)
	}
	p := arms[0]
	for _, a := range arms[1:] {
		p = sparql.Union{L: p, R: a}
	}
	if _, ok := sparql.SchemaFor(p); ok {
		t.Fatal("pattern fits the row engine; the test needs the fallback")
	}
	q := sparql.ConstructQuery{Where: p, Template: []sparql.TriplePattern{
		sparql.TP(sparql.V("v00"), sparql.I("seen"), sparql.V("v69")),
		sparql.TP(sparql.V("v64"), sparql.I("p"), sparql.I("s00")),
	}}
	c := Compile(g, p, &q, false)
	ans, err := Run(g, c, nil, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Rows.Words < 2 || ans.Rows.Len() == 0 {
		t.Fatalf("answer has %d mask words, %d rows", ans.Rows.Words, ans.Rows.Len())
	}
	ms := ans.Rows.MappingSet()
	if want, got := oracleBindings(t, ms.Sorted(), nil, nil), writeBindings(t, ans.Rows); !bytes.Equal(got, want) {
		t.Fatalf("got  %swant %s", got, want)
	}
	res, err := EvalCompiled(g, c, nil, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.Len() == 0 {
		t.Fatal("template never instantiated")
	}
	if want, got := oracleTriples(t, res.Graph), writeTriples(t, ans.Rows, ans.Template, nil); !bytes.Equal(got, want) {
		t.Fatalf("got\n%swant\n%s", got, want)
	}
}

// hostileIRIs need every escape there is: JSON's, the HTML-safe ones
// encoding/json adds, N-Triples', and bytes that are not UTF-8.
var hostileIRIs = []rdf.IRI{
	`q"uote`, `back\slash`, "<tag>", "a&b", "tab\there", "nul\x00byte", "new\nline", "sep arator",
	"bad\xffutf8", "trunc\xc3", "line\u2028sep", " space", "!bang", "a", "a b", "a\"", "a#", "é", "plain", "",
}

// TestHostileIRIs: escaping is the old path's byte for byte; the order
// is the contract's.  IRIs with bytes that strconv.Quote rewrites are
// where the old order — a comparison of quoted keys — was an artefact
// of the quoting, so the expected document is built from the contract
// and the old per-row encoding.
func TestHostileIRIs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := workload.RandomGraph(rng, 120, hostileIRIs)
	x, y, z := sparql.V("x"), sparql.V(`y"<`), sparql.V("z")
	tp := sparql.TP(x, y, z)
	for _, p := range []sparql.Pattern{
		tp,
		sparql.Opt{L: tp, R: sparql.TP(z, sparql.I("a"), sparql.V("w"))},
		sparql.NS{P: sparql.Union{L: sparql.TP(x, sparql.I("a"), z), R: tp}},
	} {
		c := Compile(g, p, &sparql.ConstructQuery{Where: p, Template: []sparql.TriplePattern{tp, sparql.TP(z, sparql.I("x>y\n"), x)}}, false)
		ans, err := Run(g, c, nil, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ms := ans.Rows.MappingSet()
		got := writeBindings(t, ans.Rows)
		if want := oracleBindings(t, contractOrder(ms), nil, nil); !bytes.Equal(got, want) {
			t.Fatalf("%s\ngot  %swant %s", p, got, want)
		}
		if !json.Valid(got) {
			t.Fatalf("%s: invalid JSON", p)
		}
		res, err := EvalCompiled(g, c, nil, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want, got := oracleTriples(t, res.Graph), writeTriples(t, ans.Rows, ans.Template, nil); !bytes.Equal(got, want) {
			t.Fatalf("%s\ngot\n%swant\n%s", p, got, want)
		}
	}
}

// TestEmptyAnswerHeadIsArray: SPARQL JSON wants head.vars to be an
// array; a nil slice through encoding/json used to make it null.
func TestEmptyAnswerHeadIsArray(t *testing.T) {
	g := rdf.NewGraph()
	ans, err := Run(g, Compile(g, sparql.TP(sparql.V("x"), sparql.I("p"), sparql.V("y")), nil, false), nil, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"head":{"vars":[]},"results":{"bindings":[]}}` + "\n"
	if got := writeBindings(t, ans.Rows); string(got) != want {
		t.Fatalf("got %s", got)
	}
}

// syntheticRows is n rows over one schema — x and y always bound, z in
// every third row — with ~n distinct IRIs.
func syntheticRows(n int) sparql.Rows {
	sc, _ := sparql.NewVarSchema([]sparql.Var{"x", "y", "z"})
	d := rdf.NewDict()
	rs := sparql.NewRowSet(sc)
	for i := 0; i < n; i++ {
		ids := []rdf.ID{
			d.Intern(rdf.IRI(fmt.Sprintf("person_%d", (i*7919)%n))),
			d.Intern(rdf.IRI(fmt.Sprintf("city_%d", i%50))),
			d.Intern(rdf.IRI(fmt.Sprintf("person_%d@example.org", i))),
		}
		mask := uint64(0b011)
		if i%3 == 0 {
			mask = 0b111
		}
		rs.Add(ids, mask)
	}
	return rs.Rows(d)
}

// TestWriterAllocations: a warm writer allocates a fixed handful of
// objects per answer whatever its size — nothing per row, nothing per
// IRI.
func TestWriterAllocations(t *testing.T) {
	tmpl := []sparql.TriplePattern{
		sparql.TP(sparql.V("x"), sparql.I("livesIn"), sparql.V("y")),
		sparql.TP(sparql.V("x"), sparql.I("contact"), sparql.V("z")),
	}
	for _, n := range []int{100, 10000} {
		rows := syntheticRows(n)
		w := new(ResultWriter)
		bindings := func() {
			w.body = w.body[:0]
			if _, err := w.WriteBindings(rows); err != nil {
				t.Fatal(err)
			}
		}
		triples := func() {
			w.body = w.body[:0]
			if _, err := w.WriteTriples(rows, tmpl, nil); err != nil {
				t.Fatal(err)
			}
		}
		bindings()
		triples()
		if a := testing.AllocsPerRun(10, bindings); a > 4 {
			t.Errorf("WriteBindings, %d rows: %.0f allocations", n, a)
		}
		if a := testing.AllocsPerRun(10, triples); a > 6 {
			t.Errorf("WriteTriples, %d rows: %.0f allocations", n, a)
		}
	}
}

// TestOversizedBufferNotPooled: a body beyond maxPooledBody is dropped
// at Release instead of sitting in the pool.
func TestOversizedBufferNotPooled(t *testing.T) {
	w := NewResultWriter()
	w.Write(make([]byte, maxPooledBody+1))
	big := &w.body[0]
	w.Release()
	for i := 0; i < 64; i++ { // more than the pool could hold of one P's releases
		v := NewResultWriter()
		if cap(v.body) > 0 && &v.body[:1][0] == big {
			t.Fatal("oversized buffer came back from the pool")
		}
		defer v.Release()
	}
}

// Fuzzing.  An input is a variable count and a list of rows, each a
// presence mask and one length-prefixed byte string per bound slot;
// fuzzRows decodes it leniently, so every input is some answer.

func fuzzRows(data []byte) sparql.Rows {
	if len(data) == 0 {
		return sparql.RowsOf(sparql.NewMappingSet())
	}
	n := 1 + int(data[0])%6
	if data[0] >= 0xf0 {
		n = sparql.MaxSchemaVars + 1 + int(data[0])%6 // the wide fallback's layout
	}
	data = data[1:]
	vars := make([]sparql.Var, n)
	for i := range vars {
		vars[i] = sparql.Var(fmt.Sprintf("v%02d", i))
	}
	ms := sparql.NewMappingSet()
	for len(data) >= (n+7)/8 {
		mask := data[:(n+7)/8]
		data = data[len(mask):]
		mu := sparql.Mapping{}
		for i := 0; i < n && len(data) > 0; i++ {
			if mask[i/8]&(1<<uint(i%8)) == 0 {
				continue
			}
			l := min(int(data[0])%24, len(data)-1)
			mu[vars[i]] = rdf.IRI(data[1 : 1+l])
			data = data[1+l:]
		}
		ms.Add(mu)
	}
	if sc, ok := sparql.NewVarSchema(vars); ok {
		d := rdf.NewDict()
		rs, _ := sparql.EncodeMappingSet(ms, sparql.Codec{Schema: sc, Dict: d})
		return rs.Rows(d)
	}
	return sparql.RowsOf(ms)
}

// fuzzInput is the inverse of fuzzRows for the seed corpus.
func fuzzInput(first byte, nvars int, rows ...map[int]string) []byte {
	out := []byte{first}
	for _, r := range rows {
		mask := make([]byte, (nvars+7)/8)
		var vals []byte
		for i := 0; i < nvars; i++ {
			if v, ok := r[i]; ok {
				mask[i/8] |= 1 << uint(i%8)
				vals = append(append(vals, byte(len(v))), v...)
			}
		}
		out = append(append(out, mask...), vals...)
	}
	return out
}

func corpusSeeds() map[string][]byte {
	return map[string][]byte{
		"empty":   {},
		"no-rows": fuzzInput(2, 3),
		"masks": fuzzInput(2, 3, map[int]string{0: "a", 1: "b", 2: "c"}, map[int]string{0: "a"},
			map[int]string{0: "a", 2: "c"}, map[int]string{1: "b"}, map[int]string{}),
		"escapes": fuzzInput(1, 2, map[int]string{0: `q"\<>&`, 1: "\x00\n\t"}, map[int]string{0: " ", 1: "\xff\xc3"},
			map[int]string{0: " ", 1: "!"}, map[int]string{0: "", 1: "é"}),
		"prefixes": fuzzInput(0, 1, map[int]string{0: "a"}, map[int]string{0: "ab"}, map[int]string{0: "a\""}, map[int]string{0: "a "}),
		"wide":     fuzzInput(0xf0, 65, map[int]string{0: "a", 64: "z"}, map[int]string{64: "z"}, map[int]string{0: "a"}, map[int]string{3: "c", 63: "y"}),
	}
}

var updateCorpus = flag.Bool("update", false, "rewrite the committed fuzz seed corpus")

const corpusDir = "testdata/fuzz/FuzzResultsJSON"

// TestFuzzCorpusCurrent holds the committed seed corpus to what
// corpusSeeds builds, so a change of the input format cannot leave the
// fuzzer seeded with inputs that mean something else.  Regenerate with
// `go test ./internal/exec -run TestFuzzCorpusCurrent -update`.
func TestFuzzCorpusCurrent(t *testing.T) {
	for name, b := range corpusSeeds() {
		path := filepath.Join(corpusDir, name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
		if *updateCorpus {
			if err := os.MkdirAll(corpusDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("seed missing (run with -update): %v", err)
		}
		if string(got) != want {
			t.Errorf("seed %s is stale (run with -update)", name)
		}
		if rows := fuzzRows(b); name != "empty" && name != "no-rows" && rows.Len() < 4 {
			t.Errorf("seed %s decodes to %d rows", name, rows.Len())
		}
	}
}

// FuzzResultsJSON: whatever the IRIs' bytes and the rows' masks, the
// document is valid JSON and decodes to exactly the answer's bindings
// in the contract's order (bytes that are not UTF-8 arrive as U+FFFD,
// as encoding/json writes them), and the writer never panics.  The
// seeds are the committed corpus (see TestFuzzCorpusCurrent).
func FuzzResultsJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := fuzzRows(data)
		// A writer of its own, not the pool's: what an input covers must
		// not depend on the inputs before it.  The second pass is the
		// warm path.
		w := new(ResultWriter)
		if _, err := w.WriteBindings(rows, Field{"partial", false}); err != nil {
			t.Fatal(err)
		}
		got := bytes.Clone(w.Bytes())
		w.body = w.body[:0]
		if _, err := w.WriteBindings(rows, Field{"partial", false}); err != nil || !bytes.Equal(w.Bytes(), got) {
			t.Fatalf("second pass: %v, %s, want %s", err, w.Bytes(), got)
		}
		if !json.Valid(got) {
			t.Fatalf("invalid JSON: %s", got)
		}
		var doc struct {
			Head struct {
				Vars *[]string `json:"vars"`
			} `json:"head"`
			Results struct {
				Bindings []map[string]oracleTerm `json:"bindings"`
			} `json:"results"`
			Partial *bool `json:"partial"`
		}
		if err := json.Unmarshal(got, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Head.Vars == nil || doc.Partial == nil {
			t.Fatalf("head.vars or the trailing member missing: %s", got)
		}
		want := contractOrder(rows.MappingSet())
		if len(doc.Results.Bindings) != len(want) {
			t.Fatalf("%d bindings for %d rows", len(doc.Results.Bindings), len(want))
		}
		bound := map[string]bool{}
		for i, mu := range want {
			b := doc.Results.Bindings[i]
			if len(b) != len(mu) {
				t.Fatalf("binding %d is %v, want %v", i, b, mu)
			}
			for v, iri := range mu {
				bound[string(v)] = true
				if term := b[string(v)]; term.Type != "uri" || term.Value != string([]rune(string(iri))) {
					t.Fatalf("binding %d: %s is %+v, want %q", i, v, term, iri)
				}
			}
		}
		if len(*doc.Head.Vars) != len(bound) || !sort.StringsAreSorted(*doc.Head.Vars) {
			t.Fatalf("head.vars %v, bound %v", *doc.Head.Vars, bound)
		}
		for _, v := range *doc.Head.Vars {
			if !bound[v] {
				t.Fatalf("head.vars names %s, which no row binds", v)
			}
		}
	})
}
