package bloom

import "math"

// This file implements the set-cardinality arithmetic the paper borrows
// from Michael et al. ("Improving distributed join efficiency with extended
// bloom filter operations"):
//
//	Eq. 2:  S⁻¹(t) = ln(1 − t/m) / (k · ln(1 − 1/m))
//	Eq. 3:  |S₁∩S₂| ≈ S⁻¹(t₁) + S⁻¹(t₂) − S⁻¹(t_{1∪2})
//	Eq. 4:  Similarity = |RWSet_{t−1} ∩ RWSet_t| / AvgRWSetSize
//
// calcSim in the paper's Example 4 is the literal composition of these.
//
// None of the estimator entry points allocate: the union term streams
// popcounts over the two word arrays instead of materializing a third
// filter, PopCount is maintained incrementally by Add, and the constant
// Eq. 2 denominator k·ln(1−1/m) is computed once per filter geometry
// (matching the paper's SimilarityOps note that it is precomputed).

// EstimateCardinality implements Equation 2 for this filter: an estimate of
// how many distinct keys were inserted, derived from the fill ratio. When
// the filter is saturated (every bit set) the estimate diverges; we return
// the asymptote capped at m, which is the largest set a filter of m bits
// can meaningfully witness.
//
//bfgts:allocfree
func (f *Filter) EstimateCardinality() float64 {
	return f.cardinality(f.pop)
}

// cardinality is Equation 2 using the filter's precomputed denominator.
//
//bfgts:allocfree
func (f *Filter) cardinality(t int) float64 {
	if t <= 0 {
		return 0
	}
	if t >= int(f.m) {
		return float64(f.m)
	}
	return math.Log1p(-float64(t)/float64(f.m)) / f.den
}

// EstimateIntersection implements Equation 3: the estimated cardinality of
// the intersection of the sets encoded by f and other. The union popcount
// is streamed word-by-word, so no filter is materialized.
//
// The estimate can be slightly negative when the true intersection is empty
// (the three estimates carry independent noise); it is clamped at zero
// because a set cannot have negative size.
//
//bfgts:allocfree
func (f *Filter) EstimateIntersection(other *Filter) float64 {
	f.mustMatch(other)
	est := f.cardinality(f.pop) + f.cardinality(other.pop) - f.cardinality(f.UnionPopCount(other))
	if est < 0 {
		return 0
	}
	return est
}

// SimilarityOps reports how many population counts and logarithm
// evaluations one similarity calculation costs for a filter of this
// geometry. The hardware cost model multiplies these by the popcnt and
// fyl2x instruction latencies from Table 2. A similarity calculation pop-
// counts three filters (new, old, union) one 64-bit word at a time and
// evaluates ln(1−t/m) once per filter; the constant denominator k·ln(1−1/m)
// is precomputed.
func (f *Filter) SimilarityOps() (popcnts, logs int) {
	return 3 * len(f.words), 3
}

// EstimateIntersectionErrorInto inserts the two exact sets into the
// caller's scratch filters (reset first; both must share a geometry) and
// returns the Eq. 3 estimator's signed error against the true intersection
// cardinality (estimate − exact). The simulator's profiler records this
// per commit pair, making the estimated-vs-exact accuracy the paper's
// Figure 6 relies on a measurable quantity rather than an assumption; the
// scratch filters keep that off the allocator.
//
//bfgts:allocfree
func EstimateIntersectionErrorInto(a, b *ExactSet, fa, fb *Filter) float64 {
	fa.Reset()
	for key := range a.keys {
		fa.Add(key)
	}
	fb.Reset()
	for key := range b.keys {
		fb.Add(key)
	}
	return fa.EstimateIntersection(fb) - float64(a.IntersectionLen(b))
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
