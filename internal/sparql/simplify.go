package sparql

import "fmt"

// SimplifyCond rewrites a condition into an equivalent, usually smaller
// one: double negations are removed, constants are folded through the
// connectives, and trivial (in)equalities collapse.  The rewriting is
// purely logical — it is sound for every mapping, bound or not.
func SimplifyCond(c Condition) Condition {
	switch r := c.(type) {
	case Bound, TrueCond, FalseCond:
		return r
	case EqConst:
		return r
	case EqVars:
		if r.X == r.Y {
			// ?X = ?X holds exactly when ?X is bound.
			return Bound{X: r.X}
		}
		return r
	case Not:
		inner := SimplifyCond(r.R)
		switch i := inner.(type) {
		case Not:
			return i.R
		case TrueCond:
			return FalseCond{}
		case FalseCond:
			return TrueCond{}
		default:
			return Not{R: inner}
		}
	case AndCond:
		l, rr := SimplifyCond(r.L), SimplifyCond(r.R)
		if _, ok := l.(FalseCond); ok {
			return FalseCond{}
		}
		if _, ok := rr.(FalseCond); ok {
			return FalseCond{}
		}
		if _, ok := l.(TrueCond); ok {
			return rr
		}
		if _, ok := rr.(TrueCond); ok {
			return l
		}
		if CondEqual(l, rr) {
			return l
		}
		return AndCond{L: l, R: rr}
	case OrCond:
		l, rr := SimplifyCond(r.L), SimplifyCond(r.R)
		if _, ok := l.(TrueCond); ok {
			return TrueCond{}
		}
		if _, ok := rr.(TrueCond); ok {
			return TrueCond{}
		}
		if _, ok := l.(FalseCond); ok {
			return rr
		}
		if _, ok := rr.(FalseCond); ok {
			return l
		}
		if CondEqual(l, rr) {
			return l
		}
		return OrCond{L: l, R: rr}
	default:
		panic("sparql: unknown condition type")
	}
}

// SimplifyPattern applies SimplifyCond throughout a pattern and removes
// filters whose condition simplified to true.  Filters that simplified
// to false are kept (as FalseCond filters) rather than rewritten to an
// empty pattern, since SPARQL has no empty-pattern constant.
func SimplifyPattern(p Pattern) Pattern {
	switch q := p.(type) {
	case TriplePattern:
		return q
	case And:
		return And{L: SimplifyPattern(q.L), R: SimplifyPattern(q.R)}
	case Union:
		return Union{L: SimplifyPattern(q.L), R: SimplifyPattern(q.R)}
	case Opt:
		return Opt{L: SimplifyPattern(q.L), R: SimplifyPattern(q.R)}
	case Filter:
		body := SimplifyPattern(q.P)
		cond := SimplifyCond(q.Cond)
		if _, ok := cond.(TrueCond); ok {
			return body
		}
		return Filter{P: body, Cond: cond}
	case Select:
		return Select{Vars: q.Vars, P: SimplifyPattern(q.P)}
	case NS:
		return NS{P: SimplifyPattern(q.P)}
	default:
		panic(fmt.Sprintf("sparql: unknown pattern type %T", p))
	}
}
