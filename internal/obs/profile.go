// Package obs is the engine's observability layer: per-query execution
// profiles (a tree of per-operator counters collected while the row
// engine evaluates) and process-wide server metrics (request counts,
// latency histograms, gauges) for nsserve's /metrics endpoint.
//
// The paper's complexity map (Theorems 7.1–7.4) says NS-SPARQL cost is
// dominated by pattern shape: evaluation is DP-complete already for
// SPARQL[AUF] and P^NP_∥-complete in general, so two queries of the
// same byte length can differ by orders of magnitude in work.  A
// production service therefore needs per-operator visibility — how
// many rows each AND/OPT/NS node produced, how much NS pruned, where
// the budget went — to diagnose the hard cases.  This package is that
// visibility, engineered to cost nothing when it is off:
//
//   - Every method on a nil *Node is a no-op, so the uninstrumented
//     evaluation path pays one nil check per operator node (not per
//     row) and nothing else.
//   - Live counters are atomics and child creation and NS bucket maps
//     take a mutex, so a snapshot may be taken from any goroutine.  A
//     query's evaluation writes its tree from one goroutine, so none of
//     them is contended, and the mutex is taken once per operator, not
//     per row.
//   - Snapshot decouples collection from reporting: the HTTP layer
//     serializes a plain Profile value, never the live atomics.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Node is a live profile node for one operator of one query's plan.  A
// nil *Node is valid everywhere and records nothing, so evaluation
// code threads nodes unconditionally and profiling is enabled simply
// by passing a non-nil root.
//
// Counters are atomic and children are created under a mutex, so the
// tree may be read while it is written; see the package comment.  The
// evaluators create children in pattern order, which the differential
// tests rely on when they walk the profile tree alongside the pattern
// tree.
type Node struct {
	op     string
	detail string

	wallNS    atomic.Int64
	rowsIn    atomic.Int64
	rowsOut   atomic.Int64
	dedupHits atomic.Int64

	nsCandidates atomic.Int64
	nsSurvivors  atomic.Int64

	rangeScans atomic.Int64
	mergeRuns  atomic.Int64
	replans    atomic.Int64
	bindProbes atomic.Int64

	budgetSteps atomic.Int64
	budgetRows  atomic.Int64
	budgetBytes atomic.Int64

	mu        sync.Mutex
	children  []*Node
	nsBuckets map[uint64]*nsBucket
}

type nsBucket struct{ candidates, survivors int64 }

// NewNode returns a live profile root.  op names the node kind (the
// evaluators use the operator name: "query", "and", "ns", ...);
// detail is free-form context such as the triple pattern text.
func NewNode(op, detail string) *Node {
	return &Node{op: op, detail: detail}
}

// Child creates (and returns) a new child node.  On a nil receiver it
// returns nil, so an uninstrumented evaluation never allocates.
func (n *Node) Child(op, detail string) *Node {
	if n == nil {
		return nil
	}
	c := NewNode(op, detail)
	n.mu.Lock()
	n.children = append(n.children, c)
	n.mu.Unlock()
	return c
}

// AddWall accumulates wall-clock time attributed to this node.
func (n *Node) AddWall(d time.Duration) {
	if n == nil {
		return
	}
	n.wallNS.Add(int64(d))
}

// AddRowsIn accumulates operand rows fed into this operator.
func (n *Node) AddRowsIn(v int64) {
	if n == nil {
		return
	}
	n.rowsIn.Add(v)
}

// AddRowsOut accumulates rows this operator produced.
func (n *Node) AddRowsOut(v int64) {
	if n == nil {
		return
	}
	n.rowsOut.Add(v)
}

// AddDedupHits accumulates the rows the output set's membership table
// rejected (a candidate that was already present) — table rejections
// only: an operator that appends rows the algebra proves distinct has
// no table and reports none.
func (n *Node) AddDedupHits(v int64) {
	if n == nil {
		return
	}
	n.dedupHits.Add(v)
}

// AddNS accumulates an NS operator's candidate rows (input) and
// surviving rows (subsumption-maximal output).
func (n *Node) AddNS(candidates, survivors int64) {
	if n == nil {
		return
	}
	n.nsCandidates.Add(candidates)
	n.nsSurvivors.Add(survivors)
}

// AddNSBucket accumulates per-mask-bucket NS counts: of the candidate
// rows whose presence bitmask is mask, how many survived.
func (n *Node) AddNSBucket(mask uint64, candidates, survivors int64) {
	if n == nil {
		return
	}
	n.mu.Lock()
	if n.nsBuckets == nil {
		n.nsBuckets = make(map[uint64]*nsBucket)
	}
	b := n.nsBuckets[mask]
	if b == nil {
		b = &nsBucket{}
		n.nsBuckets[mask] = b
	}
	b.candidates += candidates
	b.survivors += survivors
	n.mu.Unlock()
}

// AddRangeScans accumulates index range scans this operator issued
// against the sorted permutation store (one per triple-pattern
// evaluation; the merge-join fast path issues one per side).
func (n *Node) AddRangeScans(v int64) {
	if n == nil {
		return
	}
	n.rangeScans.Add(v)
}

// AddMergeRuns accumulates key runs the sort-merge join fast path
// aligned while joining two index scans on their shared leading sort
// key.  Zero on an operator means the hash join handled it.
func (n *Node) AddMergeRuns(v int64) {
	if n == nil {
		return
	}
	n.mergeRuns.Add(v)
}

// AddReplans accumulates mid-query re-optimizations: the adaptive
// chain executor re-planned the remaining operands after observed
// cardinality drifted past the planner's estimate.
func (n *Node) AddReplans(v int64) {
	if n == nil {
		return
	}
	n.replans.Add(v)
}

// AddBindProbes accumulates bind-join index probes: one per
// accumulator row whose bindings were pinned as constants against the
// sorted indexes.
func (n *Node) AddBindProbes(v int64) {
	if n == nil {
		return
	}
	n.bindProbes.Add(v)
}

// AddBudget accumulates governor consumption attributed to this node:
// search steps, result rows and estimated bytes.  The evaluators
// attribute by wall-clock window, so a node's numbers include its
// children; the root's numbers are the query's exact totals.
func (n *Node) AddBudget(steps, rows, bytes int64) {
	if n == nil {
		return
	}
	n.budgetSteps.Add(steps)
	n.budgetRows.Add(rows)
	n.budgetBytes.Add(bytes)
}

// Snapshot copies the live tree into a plain, serializable Profile.
// On a nil receiver it returns nil.  It is safe to call while the
// evaluation is still writing (counters are read atomically), though
// callers normally snapshot after the evaluation returns.
func (n *Node) Snapshot() *Profile {
	if n == nil {
		return nil
	}
	p := &Profile{
		Op:           n.op,
		Detail:       n.detail,
		WallNS:       n.wallNS.Load(),
		RowsIn:       n.rowsIn.Load(),
		RowsOut:      n.rowsOut.Load(),
		DedupHits:    n.dedupHits.Load(),
		NSCandidates: n.nsCandidates.Load(),
		NSSurvivors:  n.nsSurvivors.Load(),
		RangeScans:   n.rangeScans.Load(),
		MergeRuns:    n.mergeRuns.Load(),
		Replans:      n.replans.Load(),
		BindProbes:   n.bindProbes.Load(),
		BudgetSteps:  n.budgetSteps.Load(),
		BudgetRows:   n.budgetRows.Load(),
		BudgetBytes:  n.budgetBytes.Load(),
	}
	n.mu.Lock()
	children := make([]*Node, len(n.children))
	copy(children, n.children)
	for mask, b := range n.nsBuckets {
		p.NSBuckets = append(p.NSBuckets, NSBucketCount{
			Mask: mask, Candidates: b.candidates, Survivors: b.survivors,
		})
	}
	n.mu.Unlock()
	sort.Slice(p.NSBuckets, func(i, j int) bool { return p.NSBuckets[i].Mask < p.NSBuckets[j].Mask })
	for _, c := range children {
		p.Children = append(p.Children, c.Snapshot())
	}
	return p
}

// Profile is one node of a serialized execution profile — the schema
// of the "profile" block in nsserve query responses and of `nsq
// -stats` output.  See DESIGN.md §9 for the field contract.
type Profile struct {
	Op     string `json:"op"`
	Detail string `json:"detail,omitempty"`
	WallNS int64  `json:"wall_ns"`

	RowsIn    int64 `json:"rows_in"`
	RowsOut   int64 `json:"rows_out"`
	DedupHits int64 `json:"dedup_hits,omitempty"`

	NSCandidates int64           `json:"ns_candidates,omitempty"`
	NSSurvivors  int64           `json:"ns_survivors,omitempty"`
	NSBuckets    []NSBucketCount `json:"ns_buckets,omitempty"`

	RangeScans int64 `json:"range_scans,omitempty"`
	MergeRuns  int64 `json:"merge_runs,omitempty"`
	Replans    int64 `json:"replans,omitempty"`
	BindProbes int64 `json:"bind_probes,omitempty"`

	BudgetSteps int64 `json:"budget_steps,omitempty"`
	BudgetRows  int64 `json:"budget_rows,omitempty"`
	BudgetBytes int64 `json:"budget_bytes,omitempty"`

	Children []*Profile `json:"children,omitempty"`
}

// NSBucketCount is the per-presence-mask breakdown of one NS node:
// candidates with that mask, and how many of them were maximal.
type NSBucketCount struct {
	Mask       uint64 `json:"mask"`
	Candidates int64  `json:"candidates"`
	Survivors  int64  `json:"survivors"`
}

// Walk visits p and every descendant in depth-first, child order.  A
// nil profile is an empty tree.
func (p *Profile) Walk(f func(*Profile)) {
	if p == nil {
		return
	}
	f(p)
	for _, c := range p.Children {
		c.Walk(f)
	}
}

// Sum folds f over the tree.
func (p *Profile) Sum(f func(*Profile) int64) int64 {
	var total int64
	p.Walk(func(n *Profile) { total += f(n) })
	return total
}

// Find returns the first node (depth-first) whose Op is op, or nil.
func (p *Profile) Find(op string) *Profile {
	var found *Profile
	p.Walk(func(n *Profile) {
		if found == nil && n.Op == op {
			found = n
		}
	})
	return found
}

// Hottest renders the k nodes with the most attributed wall time among
// p's tree and the extra nodes (nil ones skipped) — stages a server
// times outside the engine, such as result encoding — one per string:
// the slow-query log's hot-span list.
func (p *Profile) Hottest(k int, extra ...*Profile) []string {
	var nodes []*Profile
	collect := func(n *Profile) { nodes = append(nodes, n) }
	p.Walk(collect)
	for _, e := range extra {
		e.Walk(collect)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].WallNS > nodes[j].WallNS })
	if len(nodes) > k {
		nodes = nodes[:k]
	}
	out := make([]string, 0, len(nodes))
	for _, n := range nodes {
		label := n.Op
		if n.Detail != "" {
			label += " " + n.Detail
		}
		out = append(out, fmt.Sprintf("%s wall=%s rows_out=%d", label, time.Duration(n.WallNS), n.RowsOut))
	}
	return out
}

// Tree renders the profile as an indented text tree, one operator per
// line — the `nsq -stats` output format.
func (p *Profile) Tree() string {
	var sb strings.Builder
	p.tree(&sb, 0)
	return sb.String()
}

func (p *Profile) tree(sb *strings.Builder, depth int) {
	if p == nil {
		return
	}
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
	fmt.Fprintf(sb, "%s", p.Op)
	if p.Detail != "" {
		fmt.Fprintf(sb, " %s", p.Detail)
	}
	fmt.Fprintf(sb, "  wall=%s rows_in=%d rows_out=%d", time.Duration(p.WallNS), p.RowsIn, p.RowsOut)
	if p.DedupHits > 0 {
		fmt.Fprintf(sb, " dedup_hits=%d", p.DedupHits)
	}
	if p.NSCandidates > 0 || p.NSSurvivors > 0 {
		fmt.Fprintf(sb, " ns=%d->%d (%d buckets)", p.NSCandidates, p.NSSurvivors, len(p.NSBuckets))
	}
	if p.RangeScans > 0 {
		fmt.Fprintf(sb, " range_scans=%d", p.RangeScans)
	}
	if p.MergeRuns > 0 {
		fmt.Fprintf(sb, " merge_runs=%d", p.MergeRuns)
	}
	if p.Replans > 0 {
		fmt.Fprintf(sb, " replans=%d", p.Replans)
	}
	if p.BindProbes > 0 {
		fmt.Fprintf(sb, " bind_probes=%d", p.BindProbes)
	}
	if p.BudgetSteps > 0 {
		fmt.Fprintf(sb, " steps=%d", p.BudgetSteps)
	}
	sb.WriteByte('\n')
	for _, c := range p.Children {
		c.tree(sb, depth+1)
	}
}
