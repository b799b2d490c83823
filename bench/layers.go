package main

// The in-process half of the harness, and the only file that calls
// into the engine.  Everything the benchmark needs from the layers —
// expected answers, the reference-evaluator spot check, and the layer
// timers of a traced run — goes through the functions below, so this
// file is the list of engine entry points a refactor must keep
// compiling:
//
//	parser.ParseQuery
//	exec.Compile, exec.EvalCompiled, plan.Options{Parallel}
//	plan.Prepared.Explain (Probes, Estimate)
//	sparql.Eval, sparql.EvalConstruct (the oracle), sparql.TriplePatterns, sparql.NewBudget
//	rdf.Store: Dict().Lookup, MatchIDs, CountMatchIDs, CountMatch, BeginBatch/AddTriple/AddAll/CommitBatch, Triples, ForEach, Len
//	rdf.NewStore, rdf.CloneStore, rdf.ReadGraph
//	durable.Open, durable.ParseFsyncPolicy, (*durable.Store).Close
//	cluster.New, (*Coordinator).Gather/Close, cluster.ScanQuery, cluster.ParseScanBody, cluster.MergeSorted
//	workload.NewSocial, (*Social).Query/City/Org (workloads.go)
//
// The HTTP half (loadgen.go, run.go) imports none of these.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/rdf/durable"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// query is one slot of a rotation: the text the server receives and
// the answer it must give.
type query struct {
	Text  string
	Shape string
	Want  digest
	Size  int // what the rotation was balanced on: rows, or scan volume on the cluster
}

// prepared is a query parsed and compiled against the in-process twin
// of the served graph.
type prepared struct {
	parsed   parser.Query
	pattern  sparql.Pattern
	compiled exec.Compiled
}

func prepare(g rdf.Store, text string) (prepared, error) {
	q, err := parser.ParseQuery(text)
	if err != nil {
		return prepared{}, fmt.Errorf("parse %q: %w", text, err)
	}
	p := prepared{parsed: q, pattern: q.Pattern}
	if q.Construct != nil {
		p.pattern = q.Construct.Where
	}
	p.compiled = exec.Compile(g, p.pattern, q.Construct, false)
	return p, nil
}

func (p prepared) eval(g rdf.Store, parallel int) (exec.Result, error) {
	return exec.EvalCompiled(g, p.compiled, sparql.NewBudget(context.Background()), plan.Options{Parallel: parallel})
}

func digestRows(ms *sparql.MappingSet) digest {
	var d digest
	pairs := make([]string, 0, 8)
	for _, mu := range ms.Mappings() {
		pairs = pairs[:0]
		for v, iri := range mu {
			pairs = append(pairs, string(v)+"="+string(iri))
		}
		d.add(canonicalBinding(pairs))
	}
	return d
}

func digestGraph(g rdf.Store) digest {
	var d digest
	g.ForEach(func(t rdf.Triple) bool {
		d.add(t.NTriples())
		return true
	})
	return d
}

func digestResult(res exec.Result) digest {
	if res.Graph != nil {
		return digestGraph(res.Graph)
	}
	return digestRows(res.Rows)
}

// answer evaluates text on g through the production path.
func answer(g rdf.Store, text string) (digest, error) {
	p, err := prepare(g, text)
	if err != nil {
		return digest{}, err
	}
	res, err := p.eval(g, 0)
	if err != nil {
		return digest{}, fmt.Errorf("eval %q: %w", text, err)
	}
	return digestResult(res), nil
}

// oracleAnswer evaluates text with the reference evaluator of the
// paper's semantics, which shares no code with the production path.
func oracleAnswer(g rdf.Store, text string) (digest, error) {
	q, err := parser.ParseQuery(text)
	if err != nil {
		return digest{}, err
	}
	if q.Construct != nil {
		return digestGraph(sparql.EvalConstruct(g, *q.Construct)), nil
	}
	return digestRows(sparql.Eval(g, q.Pattern)), nil
}

// strata draws the workload's query candidates for a graph.
func strata(sp spec, s *workload.Social, seed int64) []stratum {
	rng := rand.New(rand.NewSource(seed))
	if sp.analytic {
		return analyticCandidates(s, rng)
	}
	return mixCandidates(s, rng, sp.mixDiv, sp.shards == 0)
}

// scanVolume is how many triples the patterns of a query match one by
// one — what a coordinator must pull over the wire to answer it.
func scanVolume(g rdf.Store, p sparql.Pattern) int {
	n := 0
	for _, t := range sparql.TriplePatterns(p) {
		var s, pr, o *rdf.IRI
		for _, b := range []struct {
			v   sparql.Value
			dst **rdf.IRI
		}{{t.S, &s}, {t.P, &pr}, {t.O, &o}} {
			if !b.v.IsVar() {
				iri := b.v.IRI()
				*b.dst = &iri
			}
		}
		n += g.CountMatch(s, pr, o)
	}
	return n
}

// fillSlots picks each stratum's queries.  Candidates answering more
// than maxRows rows (if set) are left out as long as that leaves a
// candidate per slot; the rest are ordered by size — rows of the
// answer on g, or with byScan the query's scan volume.  A stratum with
// wanted sizes gets the nearest candidates (pickNearest), one without
// gets an even spread over the ordered pool (pickSpread).
func fillSlots(g rdf.Store, pools []stratum, byScan bool, maxRows int) ([]query, error) {
	type sized struct {
		candidate
		want digest
		size int
	}
	seen := make(map[string]sized)
	var out []query
	for _, st := range pools {
		ss := make([]sized, 0, len(st.cands))
		for _, c := range st.cands {
			z, ok := seen[c.text]
			if !ok {
				p, err := prepare(g, c.text)
				if err != nil {
					return nil, err
				}
				res, err := p.eval(g, 0)
				if err != nil {
					return nil, fmt.Errorf("eval %q: %w", c.text, err)
				}
				z = sized{want: digestResult(res)}
				z.size = z.want.N
				if byScan {
					z.size = scanVolume(g, p.pattern)
				}
				seen[c.text] = z
			}
			z.candidate = c
			ss = append(ss, z)
		}
		if maxRows > 0 {
			sort.SliceStable(ss, func(i, j int) bool { return ss[i].want.N < ss[j].want.N })
			keep := sort.Search(len(ss), func(i int) bool { return ss[i].want.N > maxRows })
			ss = ss[:max(keep, st.slots)]
		}
		sort.Slice(ss, func(i, j int) bool {
			if ss[i].size != ss[j].size {
				return ss[i].size < ss[j].size
			}
			return ss[i].text < ss[j].text
		})
		sizes := make([]int, len(ss))
		for i, z := range ss {
			sizes[i] = z.size
		}
		picks := pickSpread(len(ss), st.slots)
		if st.sizes != nil {
			picks = pickNearest(sizes, st.sizes)
		}
		for _, i := range picks {
			out = append(out, query{Text: ss[i].text, Shape: ss[i].shape, Want: ss[i].want, Size: ss[i].size})
		}
	}
	return out, nil
}

// pickSpread returns the middle index of each of slots equal shares
// of n ordered candidates.
func pickSpread(n, slots int) []int {
	out := make([]int, slots)
	for k := range out {
		out[k] = (2*k + 1) * n / (2 * slots)
	}
	return out
}

// pickNearest returns, for each wanted size, largest first, the index
// of the unused candidate nearest in size (the smaller one on a tie).
// sizes is ascending and has at least as many entries as wanted.
func pickNearest(sizes, wanted []int) []int {
	used := make([]bool, len(sizes))
	out := make([]int, 0, len(wanted))
	for k := len(wanted) - 1; k >= 0; k-- {
		best := -1
		for i, z := range sizes {
			if !used[i] && (best < 0 || abs(z-wanted[k]) < abs(sizes[best]-wanted[k])) {
				best = i
			}
		}
		used[best] = true
		out = append(out, best)
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// world is what one run serves and checks against: the generated
// graph, the rotation with expected answers, and for durable_rw the
// writes.
type world struct {
	social   *workload.Social
	rotation []query
	insert   func(i int) string // the i-th /insert body, nil without writes
}

// checkedInserts is how many writes buildWorld applies to verify that
// they change no answer: more than a run on the reference box sends.
// Every write a run does send is checked again by recoverDurable.
const checkedInserts = 2000

// spreadBySize orders a rotation so that its expensive queries are
// evenly spaced: rank i by size goes to position i·step mod n, with
// step the golden-ratio stride, which sends neighbouring ranks far
// apart.  A shuffle would put two giants back to back on some seeds
// and not on others, and with two connections that alone moved p95.
func spreadBySize(rot []query) []query {
	n := len(rot)
	sort.SliceStable(rot, func(i, j int) bool { return rot[i].Size > rot[j].Size })
	step := int(math.Round(float64(n) * (math.Sqrt(5) - 1) / 2))
	for gcd(step, n) != 1 {
		step++
	}
	out := make([]query, n)
	for i, q := range rot {
		out[i*step%n] = q
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// buildWorld generates the inputs of a run from its seed: the graph,
// the rotation (see fillSlots and spreadBySize) and, for a writing
// workload, the writes — verifying that they leave every read's answer
// unchanged.
func buildWorld(sp spec, seed int64) (*world, error) {
	w := &world{social: workload.NewSocial(workload.SocialOpts{People: sp.people, Seed: seed})}
	rot, err := fillSlots(w.social.G, strata(sp, w.social, seed), sp.shards > 0, sp.maxRows)
	if err != nil {
		return nil, err
	}
	w.rotation = spreadBySize(rot)
	if sp.writeEvery == 0 {
		return w, nil
	}
	w.insert = func(i int) string { return insertBody(sp.people, seed, i) }
	checked := make([]int, checkedInserts)
	for i := range checked {
		checked[i] = i
	}
	final, err := w.applyInserts(checked)
	if err != nil {
		return nil, err
	}
	for _, q := range rot {
		d, err := answer(final, q.Text)
		if err != nil {
			return nil, err
		}
		if d != q.Want {
			return nil, fmt.Errorf("workload bug: inserts change the answer of %q", q.Text)
		}
	}
	return w, nil
}

// applyInserts returns a copy of the generated graph with the numbered
// writes applied.
func (w *world) applyInserts(numbers []int) (rdf.Store, error) {
	out := rdf.CloneStore(w.social.G)
	for _, i := range numbers {
		g, err := rdf.ReadGraph(strings.NewReader(w.insert(i)))
		if err != nil {
			return nil, err
		}
		out.AddAll(g)
	}
	return out, nil
}

// insertBatches renders the graph as /insert bodies of at most size
// triples.
func insertBatches(g rdf.Store, size int) []string {
	var out []string
	var b strings.Builder
	n := 0
	g.ForEach(func(t rdf.Triple) bool {
		fmt.Fprintf(&b, "%s %s %s .\n", t.S, t.P, t.O)
		if n++; n%size == 0 {
			out = append(out, b.String())
			b.Reset()
		}
		return true
	})
	if b.Len() > 0 {
		out = append(out, b.String())
	}
	return out
}

// oracleSpotCheck compares the production path with the reference
// evaluator on the workload's own generator at 100 people: the
// reference evaluator is quadratic in practice (about 0.8 s per query
// at 2000 people), so it cannot check the served graph itself.  It
// checks a quarter as many candidates as the rotation has slots, and
// every analytic template once.
func oracleSpotCheck(sp spec, seed int64) (checked int, err error) {
	const oraclePeople = 100
	s := workload.NewSocial(workload.SocialOpts{People: oraclePeople, Seed: seed})
	for _, st := range strata(sp, s, seed) {
		for i := 0; i < len(st.cands); i += 4 * poolFactor {
			text := st.cands[i].text
			got, err := answer(s.G, text)
			if err != nil {
				return checked, err
			}
			want, err := oracleAnswer(s.G, text)
			if err != nil {
				return checked, err
			}
			if got != want {
				return checked, fmt.Errorf("production path disagrees with the reference evaluator on %q: %v vs %v", text, got, want)
			}
			checked++
		}
	}
	return checked, nil
}

// recoverDurable reopens a data dir whose server was killed and checks
// it against the in-process replay: same triple count, same answers.
func recoverDurable(dir string, w *world, acked []int) (recoverSeconds float64, err error) {
	pol, err := durable.ParseFsyncPolicy("batch")
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	ds, err := durable.Open(dir, durable.Options{Fsync: pol})
	if err != nil {
		return 0, fmt.Errorf("reopen after kill: %w", err)
	}
	recoverSeconds = time.Since(t0).Seconds()
	defer ds.Close()
	replay, err := w.applyInserts(acked)
	if err != nil {
		return 0, err
	}
	if ds.Len() != replay.Len() {
		return 0, fmt.Errorf("after kill and reopen: %d triples, want %d (base %d + %d acknowledged inserts)",
			ds.Len(), replay.Len(), w.social.G.Len(), len(acked))
	}
	for _, q := range w.rotation {
		got, err := answer(ds, q.Text)
		if err != nil {
			return 0, err
		}
		if got != q.Want {
			return 0, fmt.Errorf("after kill and reopen: wrong answer for %q", q.Text)
		}
	}
	return recoverSeconds, nil
}

func dirBytes(dir string) int64 {
	var total int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !info.IsDir() {
			total += info.Size()
		}
	}
	return total
}

// --- layer timers (traced runs only) ---

// timeEach calls f(i) for i in [0,n) in whole passes until budget is
// spent (at least two passes, so that the first, cold one can be
// discarded) and returns each item's median seconds over the warm
// passes.
func timeEach(n int, budget time.Duration, f func(i int)) []float64 {
	samples := make([][]float64, n)
	deadline := time.Now().Add(budget)
	for pass := 0; pass < 2 || (time.Now().Before(deadline) && pass < 50); pass++ {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			f(i)
			if pass > 0 {
				samples[i] = append(samples[i], time.Since(t0).Seconds())
			}
		}
	}
	out := make([]float64, n)
	for i, s := range samples {
		out[i] = median(s)
	}
	return out
}

const usPerSecond = 1e6

// engineLayers times each engine layer on the rotation, in process, on
// the same graph the server holds.  budget is spread over the timers.
func engineLayers(g rdf.Store, rot []query, budget time.Duration, m map[string]float64) ([]prepared, error) {
	n := len(rot)
	share := budget / 8
	preps := make([]prepared, n)
	for i, q := range rot {
		p, err := prepare(g, q.Text)
		if err != nil {
			return nil, err
		}
		preps[i] = p
	}

	m["parser.parse_us"] = mean(timeEach(n, share, func(i int) {
		_, _ = parser.ParseQuery(rot[i].Text) // parsed once above without error
	})) * usPerSecond
	m["plan.prepare_us"] = mean(timeEach(n, share, func(i int) {
		exec.Compile(g, preps[i].pattern, preps[i].parsed.Construct, false)
	})) * usPerSecond

	rows := make([]float64, n)
	var probes float64
	qerr := make([]float64, n)
	for i, p := range preps {
		rows[i] = float64(rot[i].Want.N)
		if ex := p.compiled.Prepared.Explain(); ex != nil {
			probes += float64(ex.Probes)
			est, act := ex.Estimate, rows[i]
			if est < 1 {
				est = 1
			}
			if act < 1 {
				act = 1
			}
			qerr[i] = est / act
			if qerr[i] < 1 {
				qerr[i] = 1 / qerr[i]
			}
		}
	}
	m["plan.probes"] = probes / float64(n)
	m["plan.qerror_p95"] = percentile(sortedCopy(qerr), 0.95)
	m["exec.rows_out_per_op"] = mean(rows)

	var evalErr error
	run := func(parallel int) func(i int) {
		return func(i int) {
			if _, err := preps[i].eval(g, parallel); err != nil {
				evalErr = err
			}
		}
	}
	par := timeEach(n, 2*share, run(0))
	ser := timeEach(n, 2*share, run(1))
	m["exec.eval_us"] = mean(par) * usPerSecond
	m["exec.eval_p95_us"] = percentile(sortedCopy(par), 0.95) * usPerSecond
	m["exec.serial_eval_us"] = mean(ser) * usPerSecond
	if mean(par) > 0 {
		m["exec.pool_speedup"] = mean(ser) / mean(par)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range preps {
		run(0)(i)
	}
	runtime.ReadMemStats(&after)
	m["exec.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / float64(n)
	m["exec.bytes_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(n)

	// NS cost: what evaluating NS(P) adds over evaluating P, for the
	// queries that are an NS at the root.
	var nsIdx []int
	inner := make(map[int]prepared)
	for i, p := range preps {
		if nsp, ok := p.pattern.(sparql.NS); ok && p.parsed.Construct == nil {
			nsIdx = append(nsIdx, i)
			inner[i] = prepared{pattern: nsp.P, compiled: exec.Compile(g, nsp.P, nil, false)}
		}
	}
	if len(nsIdx) > 0 {
		in := timeEach(len(nsIdx), share, func(k int) {
			if _, err := inner[nsIdx[k]].eval(g, 0); err != nil {
				evalErr = err
			}
		})
		var delta float64
		for k, i := range nsIdx {
			delta += par[i] - in[k]
		}
		m["sparql.ns_delta_us"] = delta / float64(len(nsIdx)) * usPerSecond
	}
	if evalErr != nil {
		return nil, evalErr
	}

	// Index scans: every triple pattern of every query, constants
	// resolved through the dictionary as the engine does.
	type idPattern struct{ s, p, o *rdf.ID }
	pats := make([][]idPattern, n)
	for i, p := range preps {
	pattern:
		for _, t := range sparql.TriplePatterns(p.pattern) {
			var ip idPattern
			for _, b := range []struct {
				v   sparql.Value
				dst **rdf.ID
			}{{t.S, &ip.s}, {t.P, &ip.p}, {t.O, &ip.o}} {
				if b.v.IsVar() {
					continue
				}
				id, ok := g.Dict().Lookup(b.v.IRI())
				if !ok {
					continue pattern // unknown constant: no index is touched
				}
				*b.dst = &id
			}
			pats[i] = append(pats[i], ip)
		}
	}
	scanned := 0
	m["rdf.scan_us"] = mean(timeEach(n, share, func(i int) {
		for _, ip := range pats[i] {
			g.MatchIDs(ip.s, ip.p, ip.o, func(rdf.IDTriple) bool { scanned++; return true })
		}
	})) * usPerSecond
	scanned = 0
	for i := range pats {
		for _, ip := range pats[i] {
			g.MatchIDs(ip.s, ip.p, ip.o, func(rdf.IDTriple) bool { scanned++; return true })
		}
	}
	m["rdf.rows_scanned_per_op"] = float64(scanned) / float64(n)
	m["rdf.count_us"] = mean(timeEach(n, share/2, func(i int) {
		for _, ip := range pats[i] {
			g.CountMatchIDs(ip.s, ip.p, ip.o)
		}
	})) * usPerSecond

	triples := g.Triples()
	loads := timeEach(1, share/2, func(int) {
		st := rdf.NewStore()
		st.BeginBatch()
		for _, t := range triples {
			st.AddTriple(t)
		}
		_ = st.CommitBatch() // the memstore's commit cannot fail
	})
	if loads[0] > 0 {
		m["rdf.load_triples_per_s"] = float64(len(triples)) / loads[0]
	}
	return preps, nil
}

// durableCommitUS times two-triple commits on a fresh durable store
// under parent, with the policy the server runs with.
func durableCommitUS(parent string, commits int) (float64, error) {
	pol, err := durable.ParseFsyncPolicy("batch")
	if err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(parent, "commit-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	ds, err := durable.Open(dir, durable.Options{Fsync: pol})
	if err != nil {
		return 0, err
	}
	defer ds.Close()
	ds.BeginBatch()
	ds.AddAll(workload.NewSocial(workload.SocialOpts{People: 200}).G)
	if err := ds.CommitBatch(); err != nil {
		return 0, err
	}
	ts := make([]float64, commits)
	for i := range ts {
		p := rdf.IRI(fmt.Sprintf("bench_person_%d", i))
		t0 := time.Now()
		ds.BeginBatch()
		ds.Add(p, workload.PredType, workload.ClassPerson)
		ds.Add(p, workload.PredKnows, "person_1")
		if err := ds.CommitBatch(); err != nil {
			return 0, err
		}
		ts[i] = time.Since(t0).Seconds()
	}
	return mean(ts) * usPerSecond, nil
}

// scanCall is one /scan round trip made by the in-process coordinator.
type scanCall struct {
	start, end time.Time
	bytes      int64
}

// scanRecorder is the in-process coordinator's HTTP transport: it
// times every round trip to a shard up to the end of the body and
// counts the bytes, which is the only place the wire cost is visible
// from outside the cluster package.  The connections are its own, so
// that they can be closed before the shards are stopped.
type scanRecorder struct {
	http  *http.Transport
	mu    sync.Mutex
	calls []scanCall
}

func (r *scanRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := r.http.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &recordedBody{ReadCloser: resp.Body, rec: r, call: scanCall{start: start}}
	return resp, nil
}

func (r *scanRecorder) drain() []scanCall {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.calls
	r.calls = nil
	return out
}

type recordedBody struct {
	io.ReadCloser
	rec  *scanRecorder
	call scanCall
	done bool
}

func (b *recordedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.call.bytes += int64(n)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *recordedBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *recordedBody) finish() {
	if b.done {
		return
	}
	b.done = true
	b.call.end = time.Now()
	b.rec.mu.Lock()
	b.rec.calls = append(b.rec.calls, b.call)
	b.rec.mu.Unlock()
}

// clusterTwin is an in-process coordinator over the live shards.
type clusterTwin struct {
	coord  *cluster.Coordinator
	rec    *scanRecorder
	client *http.Client
	shards []string
}

func newClusterTwin(shards []string) (*clusterTwin, error) {
	rec := &scanRecorder{http: &http.Transport{}}
	client := &http.Client{Transport: rec}
	// No Start: the twin needs no health prober, the shards are ours.
	coord, err := cluster.New(cluster.Options{Shards: shards, Client: client})
	if err != nil {
		return nil, err
	}
	return &clusterTwin{coord: coord, rec: rec, client: client, shards: shards}, nil
}

func (c *clusterTwin) close() {
	c.coord.Close()
	c.rec.http.CloseIdleConnections()
}

// gather runs the scatter-gather of one query and returns the
// subgraph it built.
func (c *clusterTwin) gather(p prepared) (rdf.Store, []scanCall, error) {
	c.rec.drain()
	g, _, partial := c.coord.Gather(context.Background(), sparql.TriplePatterns(p.pattern))
	if partial {
		return nil, nil, errors.New("in-process gather was partial")
	}
	return g, c.rec.drain(), nil
}

// clusterLayers times the cluster-only layers on the rotation: the
// gather against the live shards, evaluation over the gathered
// subgraph, and the wire parse and k-way merge on captured /scan
// bodies.
func (c *clusterTwin) clusterLayers(preps []prepared, budget time.Duration, m map[string]float64) error {
	n := len(preps)
	var firstErr error
	gathered := make([]rdf.Store, n)
	var calls, wire int64
	counted := false
	m["cluster.gather_us"] = mean(timeEach(n, budget/2, func(i int) {
		g, sc, err := c.gather(preps[i])
		if err != nil {
			firstErr = err
			return
		}
		gathered[i] = g
		if !counted {
			calls += int64(len(sc))
			for _, s := range sc {
				wire += s.bytes
			}
		}
		if i == n-1 {
			counted = true
		}
	})) * usPerSecond
	if firstErr != nil {
		return firstErr
	}
	m["cluster.scan_rpcs_per_op"] = float64(calls) / float64(n)
	m["cluster.scan_bytes_per_op"] = float64(wire) / float64(n)
	var triples float64
	for _, g := range gathered {
		triples += float64(g.Len())
	}
	m["cluster.gathered_triples_per_op"] = triples / float64(n)
	m["cluster.local_eval_us"] = mean(timeEach(n, budget/4, func(i int) {
		p := preps[i]
		cc := exec.Compile(gathered[i], p.pattern, p.parsed.Construct, false)
		if _, err := exec.EvalCompiled(gathered[i], cc, sparql.NewBudget(context.Background()), plan.Options{}); err != nil {
			firstErr = err
		}
	})) * usPerSecond

	// Captured wire bodies: [query][pattern][shard].
	bodies := make([][][][]byte, n)
	for i, p := range preps {
		for _, t := range sparql.TriplePatterns(p.pattern) {
			var perShard [][]byte
			for _, base := range c.shards {
				resp, err := c.client.Get(base + "/scan?" + cluster.ScanQuery(t).Encode())
				if err != nil {
					return err
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					return err
				}
				perShard = append(perShard, body)
			}
			bodies[i] = append(bodies[i], perShard)
		}
	}
	streams := make([][][][]rdf.Triple, n)
	m["cluster.parse_scan_us"] = mean(timeEach(n, budget/8, func(i int) {
		streams[i] = streams[i][:0]
		for _, perShard := range bodies[i] {
			var ss [][]rdf.Triple
			for _, body := range perShard {
				ts, err := cluster.ParseScanBody(bytes.NewReader(body))
				if err != nil {
					firstErr = err
				}
				ss = append(ss, ts)
			}
			streams[i] = append(streams[i], ss)
		}
	})) * usPerSecond
	m["cluster.merge_us"] = mean(timeEach(n, budget/8, func(i int) {
		for _, ss := range streams[i] {
			cluster.MergeSorted(ss, func(rdf.Triple) bool { return true })
		}
	})) * usPerSecond
	return firstErr
}

// layerSpan is one replayed layer of a traced request.
type layerSpan struct {
	name  string
	start time.Time
	dur   time.Duration
	scans []scanCall // cluster.gather only
}

// replayLayers re-runs the layers one /query went through, in process
// and one after the other: parse and prepare when the server had to
// plan, the gather when there is a cluster, and the evaluation.
func replayLayers(g rdf.Store, twin *clusterTwin, p prepared, text string, planned bool) ([]layerSpan, error) {
	var out []layerSpan
	timed := func(name string, f func()) *layerSpan {
		start := time.Now()
		f()
		out = append(out, layerSpan{name: name, start: start, dur: time.Since(start)})
		return &out[len(out)-1]
	}
	var err error
	if planned {
		timed("parser.parse", func() { _, err = parser.ParseQuery(text) })
	}
	if twin != nil && err == nil {
		var scans []scanCall
		l := timed("cluster.gather", func() { g, scans, err = twin.gather(p) })
		l.scans = scans
	}
	if err != nil {
		return nil, err
	}
	compiled := p.compiled
	if planned {
		timed("plan.prepare", func() { compiled = exec.Compile(g, p.pattern, p.parsed.Construct, false) })
	}
	timed("exec.eval", func() {
		_, err = exec.EvalCompiled(g, compiled, sparql.NewBudget(context.Background()), plan.Options{})
	})
	return out, err
}
