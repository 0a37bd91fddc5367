package bloom

import (
	"math/rand"
	"testing"
)

// The noise-floor test must call disjoint sets disjoint and substantially
// overlapping sets overlapping, across the paper's filter-size sweep.
func TestOverlapSignificant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, bits := range []int{512, 1024, 2048, 4096, 8192} {
		disjointWrong, overlapWrong := 0, 0
		const trials = 50
		for trial := 0; trial < trials; trial++ {
			a, b := NewFilter(bits, 4), NewFilter(bits, 4)
			// Disjoint 20-element sets.
			for i := 0; i < 20; i++ {
				a.Add(rng.Uint64())
				b.Add(rng.Uint64())
			}
			if a.OverlapSignificant(b) {
				disjointWrong++
			}
			// Half-overlapping 20-element sets.
			c, d := NewFilter(bits, 4), NewFilter(bits, 4)
			for i := 0; i < 10; i++ {
				k := rng.Uint64()
				c.Add(k)
				d.Add(k)
			}
			for i := 0; i < 10; i++ {
				c.Add(rng.Uint64())
				d.Add(rng.Uint64())
			}
			if !c.OverlapSignificant(d) {
				overlapWrong++
			}
		}
		if disjointWrong > trials/5 {
			t.Errorf("%d bits: %d/%d disjoint pairs called overlapping", bits, disjointWrong, trials)
		}
		if overlapWrong > trials/5 {
			t.Errorf("%d bits: %d/%d half-overlapping pairs called disjoint", bits, overlapWrong, trials)
		}
	}
}

// Exact sets must detect a single shared element — the case Bloom noise
// hides on small filters.
func TestExactOverlapSignificantSingleElement(t *testing.T) {
	a, b := NewExactSet(), NewExactSet()
	for i := uint64(0); i < 20; i++ {
		a.Add(i)
		b.Add(i + 100)
	}
	if a.OverlapSignificant(b) {
		t.Fatal("disjoint exact sets called overlapping")
	}
	b.Add(5)
	if !a.OverlapSignificant(b) {
		t.Fatal("one-element exact overlap not detected")
	}
	if got := a.IntersectionLen(b); got != 1 {
		t.Fatalf("IntersectionLen = %v, want exactly 1", got)
	}
}

// Bigger filters should detect smaller true overlaps — the mechanism
// behind the paper's Figure 6 prediction-accuracy story.
func TestLargerFiltersResolveSmallerOverlaps(t *testing.T) {
	detections := func(bits int) int {
		rng := rand.New(rand.NewSource(7))
		hits := 0
		for trial := 0; trial < 100; trial++ {
			a, b := NewFilter(bits, 4), NewFilter(bits, 4)
			shared := rng.Uint64()
			a.Add(shared)
			b.Add(shared)
			for i := 0; i < 39; i++ { // 40-line transactions sharing 1 line
				a.Add(rng.Uint64())
				b.Add(rng.Uint64())
			}
			if a.OverlapSignificant(b) {
				hits++
			}
		}
		return hits
	}
	small, large := detections(512), detections(8192)
	if large <= small {
		t.Fatalf("1-line overlap detected %d/100 at 8192b vs %d/100 at 512b; want more at 8192b",
			large, small)
	}
}
