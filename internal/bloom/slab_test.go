package bloom

import (
	"math/rand"
	"runtime"
	"testing"
)

// A slab-carved filter behaves exactly like NewFilter's, its bits are its
// own, and a carve after Reset starts empty even where an earlier filter
// of another geometry left bits.
func TestSlabFiltersMatchNewFilter(t *testing.T) {
	var s Slab
	rng := rand.New(rand.NewSource(5))
	for round, sizes := range [][]int{{8192, 512, 2048}, {512, 8192, 1024}} {
		s.Reset(9, 8192)
		var carved, fresh []*Filter
		for _, bits := range sizes {
			for i := 0; i < 3; i++ {
				carved = append(carved, s.Filter(bits, 4))
				fresh = append(fresh, NewFilter(bits, 4))
			}
		}
		for i, f := range carved {
			if f.PopCount() != 0 || f.Bits() != fresh[i].Bits() || f.Words() != fresh[i].Words() {
				t.Fatalf("round %d: carved filter %d not empty or wrong geometry", round, i)
			}
			for k := 0; k < 40; k++ {
				key := rng.Uint64()
				f.Add(key)
				fresh[i].Add(key)
			}
		}
		for i, f := range carved {
			if f.PopCount() != fresh[i].PopCount() || f.EstimateCardinality() != fresh[i].EstimateCardinality() {
				t.Fatalf("round %d: carved filter %d diverged from NewFilter (pop %d vs %d): carves overlap",
					round, i, f.PopCount(), fresh[i].PopCount())
			}
		}
	}
}

// Carving past the reservation panics rather than allocate.
func TestSlabPanicsPastReservation(t *testing.T) {
	var s Slab
	s.Reset(2, 1024)
	s.Filter(2048, 4) // uses the room of both reserved filters
	defer func() {
		if recover() == nil {
			t.Fatal("carve past the reservation did not panic")
		}
	}()
	s.Filter(64, 4)
}

// A slab that reserved room for its carves makes them without allocating,
// whatever their geometry, and hands back exact sets emptied once it has
// made them. Counted exactly: the malloc delta over all the measured
// runs.
func TestSlabReuseAllocFree(t *testing.T) {
	var s Slab
	cell := func() {
		s.Reset(40, 8192) // room for 40 8192-bit filters or 640 512-bit ones
		for i := 0; i < 40; i++ {
			s.Filter(8192, 4)
			e := s.ExactSet()
			if e.Len() != 0 {
				t.Fatal("recarved exact set not empty")
			}
			e.Add(uint64(i))
		}
		s.Reset(40, 8192)
		for i := 0; i < 40; i++ {
			s.Filter(512, 4)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cell() // the first cell makes the exact sets
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 20; i++ {
		cell()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("warm slab allocated %d times over 20 cells, want 0", n)
	}
}
