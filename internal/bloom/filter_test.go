package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewFilterGeometry(t *testing.T) {
	f := NewFilter(2048, 4)
	if f.Bits() != 2048 || f.Hashes() != 4 || f.Words() != 32 {
		t.Fatalf("geometry = (%d bits, %d hashes, %d words), want (2048, 4, 32)",
			f.Bits(), f.Hashes(), f.Words())
	}
}

func TestNewFilterRejectsBadSizes(t *testing.T) {
	for _, bad := range []int{0, 63, 100, 1000, -512} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFilter(%d, 4) did not panic", bad)
				}
			}()
			NewFilter(bad, 4)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewFilter(512, 0) did not panic")
			}
		}()
		NewFilter(512, 0)
	}()
}

func TestNoFalseNegatives(t *testing.T) {
	f := NewFilter(1024, 4)
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 100)
	for i := range keys {
		keys[i] = rng.Uint64()
		f.Add(keys[i])
	}
	for _, k := range keys {
		if !f.Test(k) {
			t.Fatalf("key %#x inserted but Test reports absent", k)
		}
	}
}

func TestEmptyFilterTestsNegative(t *testing.T) {
	f := NewFilter(512, 4)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		if f.Test(rng.Uint64()) {
			t.Fatal("empty filter reported a member")
		}
	}
	if f.PopCount() != 0 {
		t.Fatalf("empty filter popcount = %d", f.PopCount())
	}
}

func TestFalsePositiveRateReasonable(t *testing.T) {
	// 100 keys in 2048 bits with k=4: theoretical FP rate well under 2%.
	f := NewFilter(2048, 4)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		f.Add(rng.Uint64())
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.Test(rng.Uint64()) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.02 {
		t.Fatalf("false positive rate %.4f too high", rate)
	}
}

func TestResetClears(t *testing.T) {
	f := NewFilter(512, 4)
	f.Add(42)
	f.Reset()
	if f.PopCount() != 0 || f.Test(42) {
		t.Fatal("Reset did not clear the filter")
	}
}

func TestUnionContainsBoth(t *testing.T) {
	a, b := NewFilter(1024, 4), NewFilter(1024, 4)
	a.Add(10)
	b.Add(20)
	u := union(a, b)
	if !u.Test(10) || !u.Test(20) {
		t.Fatal("union missing a member of an input")
	}
	if a.Test(20) || b.Test(10) {
		t.Fatal("Union mutated its inputs")
	}
}

func TestIntersectNullWhenDisjointBits(t *testing.T) {
	a, b := NewFilter(8192, 2), NewFilter(8192, 2)
	a.Add(1)
	b.Add(2)
	// With 8192 bits and 2 hashes, keys 1 and 2 land on disjoint bits with
	// overwhelming probability; verify against the concrete layout.
	inter := intersect(a, b)
	if got, want := inter.PopCount(), 0; a.intersectsFilter(b) && got == want {
		t.Fatal("IntersectsNonNull true but intersection empty")
	}
	if !a.intersectsFilter(b) && inter.PopCount() != 0 {
		t.Fatal("IntersectsNonNull false but intersection non-empty")
	}
}

func TestIntersectsNonNullMatchesIntersectPopCount(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		a, b := NewFilter(512, 4), NewFilter(512, 4)
		for i := 0; i < rng.Intn(30); i++ {
			a.Add(rng.Uint64())
		}
		for i := 0; i < rng.Intn(30); i++ {
			b.Add(rng.Uint64())
		}
		if a.IntersectsNonNull(b) != (intersect(a, b).PopCount() > 0) {
			t.Fatal("IntersectsNonNull disagrees with the intersection's popcount")
		}
	}
}

func TestGeometryMismatchPanics(t *testing.T) {
	a, b := NewFilter(512, 4), NewFilter(1024, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("geometry mismatch did not panic")
		}
	}()
	a.UnionPopCount(b)
}

// Property: Test never yields a false negative for any inserted key set.
func TestPropertyNoFalseNegatives(t *testing.T) {
	prop := func(keys []uint64) bool {
		f := NewFilter(1024, 4)
		for _, k := range keys {
			f.Add(k)
		}
		for _, k := range keys {
			if !f.Test(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: union popcount >= max of the individual popcounts, and
// intersection popcount <= min.
func TestPropertyUnionIntersectBounds(t *testing.T) {
	prop := func(ka, kb []uint64) bool {
		a, b := NewFilter(512, 4), NewFilter(512, 4)
		for _, k := range ka {
			a.Add(k)
		}
		for _, k := range kb {
			b.Add(k)
		}
		u, i := union(a, b), intersect(a, b)
		maxPop := a.PopCount()
		if b.PopCount() > maxPop {
			maxPop = b.PopCount()
		}
		minPop := a.PopCount()
		if b.PopCount() < minPop {
			minPop = b.PopCount()
		}
		return u.PopCount() >= maxPop && i.PopCount() <= minPop
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
