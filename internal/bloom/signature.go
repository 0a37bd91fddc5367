package bloom

import "math"

// Signature abstracts a read/write-set summary. Two implementations exist:
//
//   - *Filter: the Bloom filter used by the deployable BFGTS variants,
//     whose similarity is the Eq. 2/3/4 estimate.
//   - *ExactSet: a perfect signature with exact intersection cardinality,
//     used by BFGTS-NoOverhead ("perfect read/write set signatures") and by
//     the Table 1 profiler, which reports ground-truth similarity.
//
// Signatures of different dynamic types must never be mixed; doing so is a
// programming error and panics.
type Signature interface {
	// Add records one cache-line address in the set.
	Add(key uint64)
	// Reset empties the signature for reuse.
	Reset()
	// IntersectsNonNull reports whether this signature's intersection with
	// other is non-empty (possibly over-approximate for Bloom filters).
	IntersectsNonNull(other Signature) bool
	// OverlapSignificant reports whether the intersection with other is
	// distinguishable from estimator noise — the usable form of the
	// paper's null-intersection test. For exact sets it is exact; for
	// Bloom filters the Eq. 3 estimate must clear a noise floor that
	// shrinks as the filter grows, which is precisely why larger filters
	// make better predictions in the paper's Figure 6 sweep.
	OverlapSignificant(other Signature) bool
	// Similarity is Equation 4 against a previous execution's signature.
	Similarity(prev Signature, avgSetSize float64) float64
	// SimilarityOps reports the (popcnt, log) instruction counts one
	// similarity evaluation costs, for the cycle-cost model.
	SimilarityOps() (popcnts, logs int)
}

// IntersectsNonNull implements Signature for *Filter.
func (f *Filter) IntersectsNonNull(other Signature) bool {
	return f.intersectsFilter(mustFilter(other))
}

// OverlapSignificant implements Signature for *Filter. The Eq. 3 estimate
// is noisy: even for disjoint sets, random bit collisions leave a residual
// estimate with a bias and a variance that both shrink as the filter
// grows. The decision rule computes, from the two observed popcounts, the
// estimate a disjoint pair would be expected to produce (t∪ ≈ t₁+t₂−t₁t₂/m)
// and its standard deviation, and calls the overlap real only when the
// actual estimate clears that expectation by half an element plus half a
// standard deviation. Small filters therefore cannot resolve small true
// overlaps — the prediction-accuracy mechanism behind Figure 6.
func (f *Filter) OverlapSignificant(other Signature) bool {
	o := mustFilter(other)
	m := float64(f.m)
	k := float64(f.k)
	t1 := float64(f.PopCount())
	t2 := float64(o.PopCount())
	if t1 == 0 || t2 == 0 {
		return false
	}
	est := f.EstimateIntersection(o)

	tUnionDisjoint := t1 + t2 - t1*t2/m
	bias := f.cardinality(int(t1)) +
		f.cardinality(int(t2)) -
		f.cardinality(int(tUnionDisjoint+0.5))
	if bias < 0 {
		bias = 0
	}
	// Std dev of the shared-bit count for disjoint sets is ~sqrt(t₁t₂/m);
	// each shared bit moves the estimate by ~1/(k·(1−t∪/m)) elements.
	fill := tUnionDisjoint / m
	if fill > 0.99 {
		fill = 0.99
	}
	sd := math.Sqrt(t1*t2/m) / (k * (1 - fill))
	return est >= bias+0.5+0.5*sd
}

// Similarity implements Signature for *Filter: Equation 4, the estimated
// overlap between the current read/write set (f) and the previous one,
// normalized by the historical average read/write-set size and clamped to
// [0, 1].
func (f *Filter) Similarity(prev Signature, avgSetSize float64) float64 {
	if avgSetSize <= 0 {
		return 0
	}
	return clamp01(f.EstimateIntersection(mustFilter(prev)) / avgSetSize)
}

func mustFilter(sig Signature) *Filter {
	o, ok := sig.(*Filter)
	if !ok {
		panic("bloom: mixed signature types (Filter vs non-Filter)")
	}
	return o
}

// ExactSet is a perfect signature: the literal set of line addresses.
type ExactSet struct {
	keys map[uint64]struct{}
}

// NewExactSet returns an empty perfect signature.
func NewExactSet() *ExactSet {
	return &ExactSet{keys: make(map[uint64]struct{})}
}

// Add implements Signature.
func (s *ExactSet) Add(key uint64) { s.keys[key] = struct{}{} }

// Reset implements Signature.
func (s *ExactSet) Reset() { clear(s.keys) }

// Len returns the exact set cardinality.
func (s *ExactSet) Len() int { return len(s.keys) }

// IntersectsNonNull implements Signature.
func (s *ExactSet) IntersectsNonNull(other Signature) bool {
	o := mustExact(other)
	small, large := s.keys, o.keys
	if len(large) < len(small) {
		small, large = large, small
	}
	for k := range small {
		if _, ok := large[k]; ok {
			return true
		}
	}
	return false
}

// OverlapSignificant implements Signature: exact sets have no noise, so
// any shared element is significant.
func (s *ExactSet) OverlapSignificant(other Signature) bool {
	return s.IntersectionLen(mustExact(other)) >= 1
}

// IntersectionLen returns the exact intersection cardinality.
func (s *ExactSet) IntersectionLen(other *ExactSet) int {
	small, large := s.keys, other.keys
	if len(large) < len(small) {
		small, large = large, small
	}
	n := 0
	for k := range small {
		if _, ok := large[k]; ok {
			n++
		}
	}
	return n
}

// Similarity implements Signature with the exact Eq. 1 value (the paper's
// definition of similarity, which Eq. 4 estimates).
func (s *ExactSet) Similarity(prev Signature, avgSetSize float64) float64 {
	if avgSetSize <= 0 {
		return 0
	}
	p := mustExact(prev)
	return clamp01(float64(s.IntersectionLen(p)) / avgSetSize)
}

// SimilarityOps implements Signature. The NoOverhead configuration models
// all bookkeeping as free, and exact sets exist only for that configuration
// and offline profiling, so the op counts are zero.
func (s *ExactSet) SimilarityOps() (popcnts, logs int) { return 0, 0 }

func mustExact(sig Signature) *ExactSet {
	o, ok := sig.(*ExactSet)
	if !ok {
		panic("bloom: mixed signature types (ExactSet vs non-ExactSet)")
	}
	return o
}
