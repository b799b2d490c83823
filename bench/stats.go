package main

import (
	"math"
	"sort"
	"strings"
)

// percentile returns the q-quantile (0..1) of sorted by the
// nearest-rank rule, 0 for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile by the method of
// Python's statistics.quantiles(values, n=4) — the "exclusive" rule —
// because that is how the driver computes the spread it gates on.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the inter-quartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// digest identifies an answer: the number of solutions and an
// order-independent sum of per-solution hashes.  A SELECT solution is
// canonicalised as its sorted "var=iri" pairs, a CONSTRUCT triple as
// its N-Triples line, so the HTTP body and the in-process result of
// the same query digest alike whatever order either side emits.
type digest struct {
	N   int
	Sum uint64
}

func (d *digest) add(canonical string) {
	h := uint64(14695981039346656037) // FNV-1a, inline: this runs once per row of every response
	for i := 0; i < len(canonical); i++ {
		h = (h ^ uint64(canonical[i])) * 1099511628211
	}
	d.N++
	d.Sum += h
}

// canonicalBinding renders one solution; pairs is consumed (sorted in
// place).
func canonicalBinding(pairs []string) string {
	sort.Strings(pairs)
	return strings.Join(pairs, "\x1f")
}
