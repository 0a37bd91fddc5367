package bloom

import "math/bits"

// clone returns an independent copy of f.
func clone(f *Filter) *Filter {
	c := NewFilter(f.Bits(), f.Hashes())
	c.UnionWith(f)
	return c
}

// union returns the bitwise union of two filters as a new filter.
func union(a, b *Filter) *Filter {
	u := clone(a)
	u.UnionWith(b)
	return u
}

// intersect returns the bitwise intersection of two filters as a new
// filter: an over-approximation of the sets' intersection.
func intersect(a, b *Filter) *Filter {
	a.mustMatch(b)
	c := NewFilter(a.Bits(), a.Hashes())
	for i, w := range b.words {
		c.words[i] = a.words[i] & w
		c.pop += bits.OnesCount64(c.words[i])
	}
	return c
}
