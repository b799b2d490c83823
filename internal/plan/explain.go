// Plan explanation: the planner's decisions, recorded on the Prepared
// plan and surfaced through nsserve's profile=1 responses and `nsq
// -stats`.  Everything here is immutable after Prepare — runtime
// counters (replans, merge runs) live in the obs profile instead, so
// one cached plan can serve concurrent queries.  A plan served again
// after the graph changed (see Prepared.Drifted) keeps its Explain:
// the estimates are the prepare-time counts, while the profile's
// observed cardinalities are those of the live graph.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/sparql"
)

// PlannerVersion tags plans produced by this planner generation in
// their Explain record.
const PlannerVersion = 2

// PlannerOptions selects the planning algorithm.  The zero value is
// the production default — DP join ordering over pair-probed
// cardinalities with adaptive mid-query re-optimization — and the only
// value the servers use; Greedy and NoReplan are the ablation
// baselines nsbench (E28) and the tests construct.
type PlannerOptions struct {
	// Greedy forces the v1 greedy ordering heuristic on leaf counts
	// alone (no pair probes) and no re-optimization — the ablation
	// baseline.
	Greedy bool
	// NoReplan keeps the v2 ordering but disables the adaptive
	// executor's mid-query re-planning.
	NoReplan bool
	// DPMaxPatterns is the connected-component size above which DP
	// ordering falls back to greedy (0 = DefaultDPMaxPatterns).
	DPMaxPatterns int
	// ReplanFactor is the observed/estimated cardinality drift ratio
	// that triggers a re-plan (0 = DefaultReplanFactor).
	ReplanFactor float64
}

func (po PlannerOptions) dpMax() int {
	if po.DPMaxPatterns <= 0 {
		return DefaultDPMaxPatterns
	}
	return po.DPMaxPatterns
}

func (po PlannerOptions) replanFactor() float64 {
	if po.ReplanFactor <= 0 {
		return DefaultReplanFactor
	}
	return po.ReplanFactor
}

func (po PlannerOptions) name() string {
	if po.Greedy {
		return "greedy"
	}
	return "dp"
}

// ScanChoice records the index permutation one triple pattern scans —
// the leading constants select it (see rdf.Store.MatchIDs) — plus the
// exact scan cardinality the planner ordered by.
type ScanChoice struct {
	Pattern string  `json:"pattern"`
	Index   string  `json:"index"` // "SPO" | "POS" | "OSP"
	Est     float64 `json:"est"`
}

// JoinChoice records, for one binary node whose operands are both
// triple patterns, the join the engine's rule (sparql.BindPays) picks
// on their leaf counts: bind when probing once per left row pays,
// otherwise merge when both scans share their sort variable, otherwise
// hash.  The engine decides again on the counts it sees when it runs.
type JoinChoice struct {
	Op       string  `json:"op"` // "and" | "opt"
	Left     string  `json:"left"`
	Right    string  `json:"right"`
	Strategy string  `json:"strategy"` // "bind" | "merge" | "hash"
	Est      float64 `json:"est"`      // estimated join output
}

// Explain is the recorded plan: what the planner chose and why a
// reader should believe it.  Serialized as the "plan" block of
// profile=1 responses.
type Explain struct {
	Planner      string       `json:"planner"` // "dp" | "greedy"
	Version      int          `json:"version"`
	Estimate     float64      `json:"estimate"`
	Probes       int          `json:"probes"` // index probes during Prepare
	WellDesigned bool         `json:"well_designed"`
	Adaptive     bool         `json:"adaptive"` // adaptive chain executor armed
	JoinOrder    []ScanChoice `json:"join_order,omitempty"`
	Joins        []JoinChoice `json:"joins,omitempty"`
}

// Summary renders the plan as indented text for `nsq -stats`.
func (ex *Explain) Summary() string {
	if ex == nil {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan planner=%s version=%d est=%g probes=%d well_designed=%t adaptive=%t\n",
		ex.Planner, ex.Version, ex.Estimate, ex.Probes, ex.WellDesigned, ex.Adaptive)
	for _, s := range ex.JoinOrder {
		fmt.Fprintf(&sb, "  scan %s index=%s est=%g\n", s.Pattern, s.Index, s.Est)
	}
	for _, j := range ex.Joins {
		fmt.Fprintf(&sb, "  %s %s: %s vs %s est=%g\n", j.Op, j.Strategy, j.Left, j.Right, j.Est)
	}
	return sb.String()
}

// IndexFor names the permutation the sorted store scans for a triple
// pattern, from its constant positions (the mirror of the store's
// chooseIndex contract: S or S,P or none → SPO; P or P,O → POS; O or
// S,O → OSP).
func IndexFor(t sparql.TriplePattern) string {
	cbits := 0
	if !t.S.IsVar() {
		cbits |= 1
	}
	if !t.P.IsVar() {
		cbits |= 2
	}
	if !t.O.IsVar() {
		cbits |= 4
	}
	switch cbits {
	case 0b010, 0b110:
		return "POS"
	case 0b100, 0b101:
		return "OSP"
	default: // none, S, S|P, all
		return "SPO"
	}
}

// wellDesigned evaluates the analysis package's notion on the
// fragments where it is defined: well designedness for SPARQL[AOF],
// well-designed unions for SPARQL[AUOF], false elsewhere.  The flag
// marks plans eligible for the cheaper well-designed OPT strategies
// (Mengel & Skritek); routing on it is future work, recording it is
// not.
func wellDesigned(p sparql.Pattern) bool {
	if sparql.InFragment(p, sparql.FragmentAOF) {
		ok, err := analysis.IsWellDesigned(p)
		return err == nil && ok
	}
	if sparql.InFragment(p, sparql.FragmentAUOF) {
		ok, err := analysis.IsWellDesignedUnion(p)
		return err == nil && ok
	}
	return false
}

// buildExplain assembles the plan record for an optimized pattern:
// scan choices in execution order, and the join rule's pick for every
// binary node over two triple patterns.
func buildExplain(e *estimator, opt sparql.Pattern, po PlannerOptions, adaptive bool) *Explain {
	ex := &Explain{
		Planner:      po.name(),
		Version:      PlannerVersion,
		Estimate:     e.estimate(opt),
		WellDesigned: wellDesigned(opt),
		Adaptive:     adaptive,
	}
	for _, t := range sparql.TriplePatterns(opt) {
		ex.JoinOrder = append(ex.JoinOrder, ScanChoice{
			Pattern: t.String(),
			Index:   IndexFor(t),
			Est:     e.tripleCount(t),
		})
	}
	collectJoins(e, opt, ex)
	ex.Probes = e.Probes()
	return ex
}

// collectJoins records the join rule's pick, and the estimated join
// output, at every And and Opt node over two triple patterns.
func collectJoins(e *estimator, p sparql.Pattern, ex *Explain) {
	switch q := p.(type) {
	case sparql.And, sparql.Opt:
		var l, r sparql.Pattern
		op := "and"
		if a, ok := q.(sparql.And); ok {
			l, r = a.L, a.R
		} else {
			o := q.(sparql.Opt)
			l, r = o.L, o.R
			op = "opt"
		}
		lt, lOK := l.(sparql.TriplePattern)
		rt, rOK := r.(sparql.TriplePattern)
		if lOK && rOK {
			nl, nr := e.tripleCount(lt), e.tripleCount(rt)
			strategy := "hash"
			lv, okL := sparql.ScanLeadVar(lt)
			rv, okR := sparql.ScanLeadVar(rt)
			switch {
			case sparql.BindPays(nl, nr):
				strategy = "bind"
			case okL && okR && lv == rv && sparql.MergeJoinEnabled:
				strategy = "merge"
			}
			ex.Joins = append(ex.Joins, JoinChoice{
				Op: op, Left: lt.String(), Right: rt.String(),
				Strategy: strategy, Est: e.estimate(sparql.And{L: lt, R: rt}),
			})
		}
		collectJoins(e, l, ex)
		collectJoins(e, r, ex)
	case sparql.Union:
		collectJoins(e, q.L, ex)
		collectJoins(e, q.R, ex)
	case sparql.Filter:
		collectJoins(e, q.P, ex)
	case sparql.Select:
		collectJoins(e, q.P, ex)
	case sparql.NS:
		collectJoins(e, q.P, ex)
	}
}
