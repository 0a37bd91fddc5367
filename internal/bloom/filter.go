package bloom

import (
	"fmt"
	"math"
	"math/bits"
)

// Filter is a fixed-size Bloom filter over 64-bit keys (cache-line
// addresses in this codebase). The paper evaluates sizes from 512 to 8192
// bits with a small number of hash functions; both are configurable here.
//
// The filter keeps an incremental population count (updated by Add) and the
// precomputed Eq. 2 denominator k·ln(1−1/m) for its geometry, so
// PopCount/EstimateCardinality are O(1) and the Eq. 3 estimator never
// recomputes the logarithm of a constant.
type Filter struct {
	words []uint64
	m     uint64 // size in bits; power of two
	k     uint64 // number of hash functions
	pop   int    // set-bit count, maintained incrementally
	den   float64
}

// DefaultHashes is the number of hash functions used throughout the
// reproduction when the caller does not override it. The paper does not
// report k explicitly; 4 is the conventional choice for signature filters
// of this size (Sanchez et al.) and keeps false-positive rates in the
// regime where the cardinality estimator is accurate.
const DefaultHashes = 4

// NewFilter returns an empty filter of mBits bits using k hash functions.
// mBits must be a power of two and at least 64; k must be at least 1.
func NewFilter(mBits, k int) *Filter {
	checkGeometry(mBits, k)
	f := new(Filter)
	f.init(make([]uint64, mBits/64), k)
	return f
}

// checkGeometry panics unless mBits is a power of two of at least 64 and k
// is at least 1.
func checkGeometry(mBits, k int) {
	if mBits < 64 || mBits&(mBits-1) != 0 {
		panic(fmt.Sprintf("bloom: filter size %d is not a power of two >= 64", mBits))
	}
	if k < 1 {
		panic("bloom: need at least one hash function")
	}
}

// init makes f an empty filter over words (which must be zero) with k
// hash functions.
func (f *Filter) init(words []uint64, k int) {
	m := len(words) * 64
	*f = Filter{
		words: words,
		m:     uint64(m),
		k:     uint64(k),
		den:   float64(k) * math.Log1p(-1/float64(m)),
	}
}

// Bits returns the filter size in bits (the paper's m).
func (f *Filter) Bits() int { return int(f.m) }

// Hashes returns the number of hash functions (the paper's k).
func (f *Filter) Hashes() int { return int(f.k) }

// Words returns the number of 64-bit words backing the filter. The
// hardware cost model charges one popcnt per word when counting bits.
func (f *Filter) Words() int { return len(f.words) }

// Add inserts a key.
func (f *Filter) Add(key uint64) {
	h1, h2 := hashPair(key)
	for i := uint64(0); i < f.k; i++ {
		bit := (h1 + i*h2) & (f.m - 1)
		mask := uint64(1) << (bit & 63)
		if w := f.words[bit>>6]; w&mask == 0 {
			f.words[bit>>6] = w | mask
			f.pop++
		}
	}
}

// Test reports whether a key may be present. False positives are possible,
// false negatives are not.
func (f *Filter) Test(key uint64) bool {
	h1, h2 := hashPair(key)
	for i := uint64(0); i < f.k; i++ {
		bit := (h1 + i*h2) & (f.m - 1)
		if f.words[bit>>6]&(1<<(bit&63)) == 0 {
			return false
		}
	}
	return true
}

// PopCount returns the number of set bits (the paper's t). It is O(1): Add
// maintains the count incrementally.
func (f *Filter) PopCount() int { return f.pop }

// Reset clears all bits.
func (f *Filter) Reset() {
	for i := range f.words {
		f.words[i] = 0
	}
	f.pop = 0
}

// UnionWith ORs other's bits into this filter in place, recomputing the
// population count in the same pass — the Bloofi node-repair primitive,
// allocation-free by construction. Filters must have identical geometry.
//
//bfgts:allocfree
func (f *Filter) UnionWith(other *Filter) {
	f.mustMatch(other)
	pop := 0
	for i, w := range other.words {
		uw := f.words[i] | w
		f.words[i] = uw
		pop += bits.OnesCount64(uw)
	}
	f.pop = pop
}

// UnionPopCount returns the number of set bits in the bitwise union of the
// two filters without materializing it — one OnesCount64 per word. Hot
// paths that only need the union's cardinality (the Eq. 3 estimator) use
// it instead of building a third filter.
func (f *Filter) UnionPopCount(other *Filter) int {
	f.mustMatch(other)
	n := 0
	for i, w := range other.words {
		n += bits.OnesCount64(f.words[i] | w)
	}
	return n
}

// intersectsFilter reports whether the bitwise intersection with other has
// any set bit, without allocating.
func (f *Filter) intersectsFilter(other *Filter) bool {
	f.mustMatch(other)
	for i, w := range other.words {
		if f.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// FillRatio returns t/m, the fraction of set bits.
func (f *Filter) FillRatio() float64 {
	return float64(f.pop) / float64(f.m)
}

func (f *Filter) mustMatch(other *Filter) {
	if f.m != other.m || f.k != other.k {
		panic(fmt.Sprintf("bloom: geometry mismatch (%d/%d bits, %d/%d hashes)",
			f.m, other.m, f.k, other.k))
	}
}
