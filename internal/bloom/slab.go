package bloom

import "fmt"

// Slab carves signatures from storage that outlives them. The bits of every
// filter it carves come from one []uint64 whatever the filter's geometry,
// and the exact sets it carves keep their maps' buckets, so a run of cells
// — a sweep over filter sizes included — reuses the same memory. Reset
// takes everything back at once: signatures carved before a Reset must not
// be used after it.
type Slab struct {
	words   []uint64
	filters []Filter
	exact   []*ExactSet // every exact set carved; the first ne are in use
	nw, nf  int         // words and filter headers carved since Reset
	ne      int
}

// Reset takes back every signature carved so far and makes room for n
// filters of mBits bits, growing the slab only when it holds less. The
// owner reserves here every filter it can hold at once: carving past the
// reservation panics, so a carve never allocates.
func (s *Slab) Reset(n, mBits int) {
	if w := n * mBits / 64; len(s.words) < w {
		s.words = make([]uint64, w)
	}
	if len(s.filters) < n {
		s.filters = make([]Filter, n)
	}
	s.nw, s.nf, s.ne = 0, 0, 0
}

// Filter carves an empty filter of mBits bits and k hash functions, under
// NewFilter's geometry rules.
func (s *Slab) Filter(mBits, k int) *Filter {
	checkGeometry(mBits, k)
	n := mBits / 64
	if s.nw+n > len(s.words) || s.nf == len(s.filters) {
		panic(fmt.Sprintf("bloom: slab exhausted carving a %d-bit filter after %d filters", mBits, s.nf))
	}
	w := s.words[s.nw : s.nw+n : s.nw+n]
	clear(w)
	s.nw += n
	f := &s.filters[s.nf]
	s.nf++
	f.init(w, k)
	return f
}

// ExactSet carves an empty exact set.
func (s *Slab) ExactSet() *ExactSet {
	if s.ne == len(s.exact) {
		s.exact = append(s.exact, NewExactSet())
	} else {
		s.exact[s.ne].Reset()
	}
	s.ne++
	return s.exact[s.ne-1]
}
