package main

// The four workloads.  Everything here is data: graph size, server
// topology, client count, the frozen open-loop rate and the query
// generators.  README.md says why each exists and which layer it is
// meant to expose.

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/workload"
)

type spec struct {
	name     string
	people   int
	durable  bool // nsserve -data-dir <tmp> -fsync batch
	shards   int  // >0: nscoord over that many nsserve -shard i/N
	clients  int  // closed-loop clients; the open loop uses the same number of connections
	openRate float64
	// writeEvery > 0 puts one two-triple /insert after every that many
	// reads of the rotation.
	writeEvery int
	analytic   bool // rotation comes from analyticTemplates, not the shape mix
	// mixDiv shrinks the 200-query mix rotation to 200/mixDiv queries
	// where one query takes tens of milliseconds.
	mixDiv int
	// maxRows > 0 leaves queries with larger answers out of the pool.
	maxRows int
}

// Open-loop rates are about a third of the closed-loop capacity
// measured on the 2-CPU reference box when the benchmark was defined;
// they are frozen so that p50_ms/p95_ms of two commits are latencies
// at the same offered load.
var specs = []spec{
	{name: "single_mix", people: 2000, clients: 2, openRate: 300, mixDiv: 1},
	{name: "analytic_ns", people: 4000, clients: 1, openRate: 15, analytic: true},
	{name: "durable_rw", people: 2000, durable: true, clients: 2, openRate: 250, writeEvery: 9, mixDiv: 1},
	{name: "cluster_mix", people: 250, shards: 2, clients: 2, openRate: 16, mixDiv: 5, maxRows: 300},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// mixStrata is the 60/24/10/6 star/chain/tree/flower mix of
// workload.DefaultMix as exact counts of a 200-query rotation — small
// enough to fit nsserve's 256-entry plan cache — together with the
// result sizes each shape's slots must have.
//
// The sizes are pinned because the social graph is zipf-skewed: a
// chain through a celebrity returns 10^4 rows, the median chain 10^1,
// and a request's cost is mostly its rows (encode, ship, decode).  A
// rotation drawn at random is therefore a lottery on how many giants a
// seed hits — its cost varied ±35 % across seeds, with one query
// carrying a third of it.  Pinning the sizes gives every seed the same
// profile — the share of empty answers and the log-spaced range of the
// others follow what the generator produces at 2000 people, cut at
// 2000 rows — realised by a different graph and different constants.
var mixStrata = []struct {
	shape  workload.Shape
	n      int
	empty  float64 // share of slots whose query matches nothing
	lo, hi float64 // result sizes of the other slots, log-spaced
}{
	{workload.ShapeStar, 120, 0.5, 1, 25},
	{workload.ShapeChain, 48, 0.4, 1, 2000},
	{workload.ShapeTree, 20, 0.05, 1, 10},
	{workload.ShapeFlower, 12, 0, 220, 320},
}

// poolFactor is how many candidates are drawn per rotation slot.
const poolFactor = 10

// candidate is one generated query before selection.
type candidate struct {
	text  string // paper syntax
	shape string
}

// stratum is a pool of candidates for some slots of the rotation and,
// optionally, the result size wanted in each slot; see fillSlots.
type stratum struct {
	cands []candidate
	slots int
	sizes []int
}

// sizeProfile is n result sizes: a share of zeros, then lo..hi
// log-spaced.
func sizeProfile(n int, empty, lo, hi float64) []int {
	out := make([]int, int(empty*float64(n)))
	rest := n - len(out)
	for i := 0; i < rest; i++ {
		u := 0.5
		if rest > 1 {
			u = float64(i) / float64(rest-1)
		}
		out = append(out, int(math.Round(lo*math.Pow(hi/lo, u))))
	}
	return out
}

// mixCandidates draws the per-shape candidate pools of the conjunctive
// mix, for a rotation of 200/div queries.  pinSizes is off for the
// cluster, where a query costs what its patterns scan, not what it
// returns: there the slots spread evenly over the pool's scan volumes.
func mixCandidates(s *workload.Social, rng *rand.Rand, div int, pinSizes bool) []stratum {
	var out []stratum
	for _, m := range mixStrata {
		n := m.n / div
		st := stratum{slots: n}
		if pinSizes {
			st.sizes = sizeProfile(n, m.empty, m.lo, m.hi)
		}
		for i := 0; i < n*poolFactor; i++ {
			st.cands = append(st.cands, candidate{text: s.Query(rng, m.shape).String(), shape: string(m.shape)})
		}
		out = append(out, st)
	}
	return out
}

// Paper-syntax combinators for the analytic templates.
func tp(s, p, o string) string  { return "(" + s + " " + p + " " + o + ")" }
func and(ps ...string) string   { return fold("AND", ps) }
func union(ps ...string) string { return fold("UNION", ps) }
func opt(l, r string) string    { return "(" + l + " OPT " + r + ")" }
func ns(p string) string        { return "NS(" + p + ")" }
func fold(op string, ps []string) string {
	out := ps[0]
	for _, p := range ps[1:] {
		out = "(" + out + " " + op + " " + p + ")"
	}
	return out
}

// optAsNS is the paper's rewriting of OPT into the operators that only
// this engine serves: P1 OPT P2 ≡ NS(P1 UNION (P1 AND P2)).
func optAsNS(l, r string) string { return ns(union(l, and(l, r))) }

// analyticTemplate builds one query from a city and an org constant;
// shape groups templates for reporting only.
type analyticTemplate struct {
	name, shape string
	build       func(city, org string) string
}

// analyticTemplates is the traffic only an NS-SPARQL engine serves:
// OPT (plain, nested, not well designed), each OPT's NS rewriting,
// wide UNION under NS, FILTER, SELECT and CONSTRUCT over the social
// vocabulary.  Anchors are chosen so that results have 10^2–10^4 rows:
// large enough that join/left-join/NS and result encoding dominate
// the HTTP floor, small enough that one pass takes well under a
// second.
var analyticTemplates = func() []analyticTemplate {
	person := tp("?x", "type", "Person")
	email := tp("?x", "email", "?e")
	inCity := func(c string) string { return tp("?x", "livesIn", c) }
	atOrg := func(o string) string { return tp("?x", "worksAt", o) }
	knows := tp("?x", "knows", "?y")
	yEmail := tp("?y", "email", "?f")
	yMentors := tp("?y", "mentors", "?m")
	celebFollow := and(tp("?x", "follows", "?y"), tp("?y", "type", "Celebrity"))
	pair := func(name string, l, r func(city, org string) string) []analyticTemplate {
		return []analyticTemplate{
			{name, "opt", func(c, o string) string { return opt(l(c, o), r(c, o)) }},
			{name + "_ns", "ns", func(c, o string) string { return optAsNS(l(c, o), r(c, o)) }},
		}
	}
	k := func(s string) func(string, string) string { return func(string, string) string { return s } }
	var ts []analyticTemplate
	// Well-designed OPT and its NS rewriting, small to large left sides.
	ts = append(ts, pair("opt_person_email", k(person), k(email))...)
	ts = append(ts, pair("opt_city_friends",
		func(c, _ string) string { return and(inCity(c), knows) }, k(yEmail))...)
	ts = append(ts, pair("opt_org_follows",
		func(_, o string) string { return and(atOrg(o), tp("?x", "follows", "?y")) }, k(yMentors))...)
	ts = append(ts, pair("opt_celeb_fans", k(celebFollow), k(email))...)
	// Nested OPT: (P1 OPT P2) OPT P3 and P1 OPT (P2 OPT P3), plus the
	// first one's rewriting with both levels under NS.
	ts = append(ts,
		analyticTemplate{"opt_left_nested", "opt", func(c, _ string) string {
			return opt(opt(and(inCity(c), knows), email), yEmail)
		}},
		analyticTemplate{"opt_left_nested_ns", "ns", func(c, _ string) string {
			inner := optAsNS(and(inCity(c), knows), email)
			return optAsNS(inner, yEmail)
		}},
		analyticTemplate{"opt_right_nested", "opt", func(_, o string) string {
			return opt(atOrg(o), opt(knows, yEmail))
		}},
		analyticTemplate{"opt_right_nested_ns", "ns", func(_, o string) string {
			return optAsNS(atOrg(o), optAsNS(knows, yEmail))
		}},
	)
	// Not well designed: ?x occurs outside the OPT and on its right,
	// but not on its left.
	ts = append(ts,
		analyticTemplate{"opt_not_well_designed", "opt", func(c, _ string) string {
			return and(email, opt(tp("?y", "livesIn", c), tp("?y", "knows", "?x")))
		}},
		analyticTemplate{"opt_not_well_designed_ns", "ns", func(c, _ string) string {
			return and(email, optAsNS(tp("?y", "livesIn", c), tp("?y", "knows", "?x")))
		}},
	)
	// Wide UNION under NS: every subset of optional attributes as its
	// own branch, the maximal answers kept.
	ts = append(ts,
		analyticTemplate{"ns_union_person", "ns", func(string, string) string {
			return ns(union(person, and(person, email), and(person, tp("?x", "mentors", "?m")),
				and(person, email, tp("?x", "mentors", "?m"))))
		}},
		analyticTemplate{"ns_union_city", "ns", func(c, _ string) string {
			b := and(inCity(c), knows)
			return ns(union(b, and(b, yEmail), and(b, yMentors), and(b, tp("?y", "worksAt", "?o")),
				and(b, yEmail, tp("?y", "worksAt", "?o"))))
		}},
		analyticTemplate{"union_three", "union", func(c, o string) string {
			return union(and(inCity(c), knows), and(atOrg(o), knows), and(tp("?x", "type", "Celebrity"), knows))
		}},
	)
	// FILTER and SELECT over optional parts.
	ts = append(ts,
		analyticTemplate{"filter_unbound", "filter", func(string, string) string {
			return "(" + opt(person, email) + " FILTER (!(bound(?e))))"
		}},
		analyticTemplate{"filter_eq", "filter", func(c, _ string) string {
			return "(" + and(tp("?x", "follows", "?y"), tp("?y", "livesIn", "?c")) + " FILTER (?c = " + c + "))"
		}},
		analyticTemplate{"select_project", "select", func(string, string) string {
			return "(SELECT {?x, ?c} WHERE " + and(celebFollow, tp("?x", "livesIn", "?c")) + ")"
		}},
		analyticTemplate{"select_ns", "select", func(_, o string) string {
			return "(SELECT {?y, ?f} WHERE " + optAsNS(and(atOrg(o), knows), yEmail) + ")"
		}},
	)
	// CONSTRUCT, with and without an optional part.
	ts = append(ts,
		analyticTemplate{"construct_colleague", "construct", func(_, o string) string {
			return "CONSTRUCT {(?x colleague ?z)} WHERE " + and(atOrg(o), tp("?z", "worksAt", o))
		}},
		analyticTemplate{"construct_contact", "construct", func(c, _ string) string {
			return "CONSTRUCT {(?x listedIn " + c + "), (?x contact ?e)} WHERE " + opt(inCity(c), email)
		}},
		analyticTemplate{"construct_fof", "construct", func(c, _ string) string {
			return "CONSTRUCT {(?x fof ?z)} WHERE " + and(inCity(c), knows, tp("?y", "knows", "?z"))
		}},
	)
	return ts
}()

// analyticCandidates instantiates every template poolFactor times with
// constants drawn from the graph's entity pools; the rotation keeps
// each template's median-sized instance.
func analyticCandidates(s *workload.Social, rng *rand.Rand) []stratum {
	out := make([]stratum, 0, len(analyticTemplates))
	for _, t := range analyticTemplates {
		st := stratum{slots: 1}
		for i := 0; i < poolFactor; i++ {
			city := string(s.City(rng.Intn(s.Opts.Cities)))
			org := string(s.Org(rng.Intn(s.Opts.Orgs)))
			st.cands = append(st.cands, candidate{text: t.build(city, org), shape: t.shape})
		}
		out = append(out, st)
	}
	return out
}

// insertBody is the i-th write of durable_rw: a new person attached to
// an existing one.  New people have no follows/livesIn/worksAt edges
// and nobody follows them, so no query of the conjunctive mix changes
// its answer and reads stay exactly checkable while the graph epoch
// moves under them (buildWorld verifies this on every run).  The
// existing person is a hash (splitmix64) of seed and i alone, so a
// write can be made when it is sent, in any order.
func insertBody(people int, seed int64, i int) string {
	z := uint64(seed)<<32 + uint64(i) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return fmt.Sprintf("person_%d type Person .\nperson_%d knows person_%d .\n", people+i, people+i, z%uint64(people))
}
