package bloom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEstimateCardinalityEmpty(t *testing.T) {
	f := NewFilter(512, 4)
	if got := f.EstimateCardinality(); got != 0 {
		t.Fatalf("empty filter cardinality estimate = %v, want 0", got)
	}
}

func TestEstimateCardinalitySaturated(t *testing.T) {
	f := NewFilter(64, 1)
	for i := uint64(0); i < 10000; i++ {
		f.Add(i)
	}
	if f.PopCount() != 64 {
		t.Skip("filter did not saturate; hash layout changed")
	}
	if got := f.EstimateCardinality(); got != 64 {
		t.Fatalf("saturated estimate = %v, want cap at m = 64", got)
	}
}

// Eq. 2 accuracy: for distinct random keys well under capacity, the
// estimate should track the true count within a modest relative error.
func TestEstimateCardinalityAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, tc := range []struct {
		mBits, k, n int
		tolerance   float64
	}{
		{2048, 4, 50, 0.15},
		{2048, 4, 150, 0.15},
		{8192, 4, 400, 0.15},
		{512, 4, 30, 0.25},
	} {
		f := NewFilter(tc.mBits, tc.k)
		seen := make(map[uint64]bool, tc.n)
		for len(seen) < tc.n {
			k := rng.Uint64()
			if !seen[k] {
				seen[k] = true
				f.Add(k)
			}
		}
		est := f.EstimateCardinality()
		relErr := math.Abs(est-float64(tc.n)) / float64(tc.n)
		if relErr > tc.tolerance {
			t.Errorf("m=%d n=%d: estimate %.1f, true %d (rel err %.3f > %.2f)",
				tc.mBits, tc.n, est, tc.n, relErr, tc.tolerance)
		}
	}
}

// Eq. 3 accuracy: intersection estimates of sets with a known overlap.
func TestEstimateIntersectionAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, overlap := range []int{0, 20, 50, 100} {
		a, b := NewFilter(4096, 4), NewFilter(4096, 4)
		// 100 keys each, `overlap` of them shared.
		shared := make([]uint64, overlap)
		for i := range shared {
			shared[i] = rng.Uint64()
			a.Add(shared[i])
			b.Add(shared[i])
		}
		for i := 0; i < 100-overlap; i++ {
			a.Add(rng.Uint64())
			b.Add(rng.Uint64())
		}
		est := a.EstimateIntersection(b)
		if math.Abs(est-float64(overlap)) > 12+0.15*float64(overlap) {
			t.Errorf("overlap %d: estimated %.1f", overlap, est)
		}
	}
}

func TestEstimateIntersectionNeverNegative(t *testing.T) {
	prop := func(ka, kb []uint64) bool {
		a, b := NewFilter(512, 4), NewFilter(512, 4)
		for _, k := range ka {
			a.Add(k)
		}
		for _, k := range kb {
			b.Add(k)
		}
		return a.EstimateIntersection(b) >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Similarity of a set with itself should be ~1 when avg set size equals the
// set size; similarity of disjoint sets should be ~0.
func TestSimilarityExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := NewFilter(2048, 4)
	for i := 0; i < 80; i++ {
		f.Add(rng.Uint64())
	}
	self := f.Similarity(clone(f), 80)
	if self < 0.8 {
		t.Errorf("self-similarity = %.3f, want near 1", self)
	}

	g := NewFilter(2048, 4)
	for i := 0; i < 80; i++ {
		g.Add(rng.Uint64())
	}
	cross := f.Similarity(g, 80)
	if cross > 0.2 {
		t.Errorf("disjoint similarity = %.3f, want near 0", cross)
	}
}

func TestSimilarityClampedToUnitInterval(t *testing.T) {
	prop := func(ka, kb []uint64, avg float64) bool {
		a, b := NewFilter(512, 4), NewFilter(512, 4)
		for _, k := range ka {
			a.Add(k)
		}
		for _, k := range kb {
			b.Add(k)
		}
		s := a.Similarity(b, avg)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSimilarityZeroAvgSize(t *testing.T) {
	a := NewFilter(512, 4)
	a.Add(1)
	if got := a.Similarity(clone(a), 0); got != 0 {
		t.Fatalf("similarity with avg size 0 = %v, want 0", got)
	}
	if got := a.Similarity(clone(a), -3); got != 0 {
		t.Fatalf("similarity with negative avg size = %v, want 0", got)
	}
}

func TestSimilarityOps(t *testing.T) {
	f := NewFilter(2048, 4)
	pops, logs := f.SimilarityOps()
	if pops != 3*32 || logs != 3 {
		t.Fatalf("SimilarityOps = (%d, %d), want (96, 3)", pops, logs)
	}
}

func TestExactSetSimilarityGroundTruth(t *testing.T) {
	a, b := NewExactSet(), NewExactSet()
	for i := uint64(0); i < 10; i++ {
		a.Add(i)
	}
	for i := uint64(5); i < 15; i++ {
		b.Add(i)
	}
	if got := a.IntersectionLen(b); got != 5 {
		t.Fatalf("IntersectionLen = %d, want 5", got)
	}
	if got := a.Similarity(b, 10); got != 0.5 {
		t.Fatalf("exact similarity = %v, want 0.5", got)
	}
	if !a.IntersectsNonNull(b) {
		t.Fatal("overlapping exact sets reported disjoint")
	}
	c := NewExactSet()
	c.Add(100)
	if a.IntersectsNonNull(c) {
		t.Fatal("disjoint exact sets reported overlapping")
	}
}

func TestMixedSignatureTypesPanic(t *testing.T) {
	f := NewFilter(512, 4)
	e := NewExactSet()
	defer func() {
		if recover() == nil {
			t.Fatal("mixing Filter and ExactSet did not panic")
		}
	}()
	f.IntersectsNonNull(e)
}

// Bloom-filter similarity should approximate exact similarity on realistic
// read/write-set sizes. This is the property that makes Eq. 4 usable as a
// stand-in for Eq. 1.
func TestBloomSimilarityTracksExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(60)
		overlapN := rng.Intn(n + 1)
		bf1, bf2 := NewFilter(2048, 4), NewFilter(2048, 4)
		ex1, ex2 := NewExactSet(), NewExactSet()
		for i := 0; i < overlapN; i++ {
			k := rng.Uint64()
			bf1.Add(k)
			bf2.Add(k)
			ex1.Add(k)
			ex2.Add(k)
		}
		for i := 0; i < n-overlapN; i++ {
			k1, k2 := rng.Uint64(), rng.Uint64()
			bf1.Add(k1)
			ex1.Add(k1)
			bf2.Add(k2)
			ex2.Add(k2)
		}
		avg := float64(n)
		got := bf1.Similarity(bf2, avg)
		want := ex1.Similarity(ex2, avg)
		if math.Abs(got-want) > 0.2 {
			t.Errorf("trial %d (n=%d overlap=%d): bloom sim %.3f vs exact %.3f",
				trial, n, overlapN, got, want)
		}
	}
}
