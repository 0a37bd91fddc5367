// Package seqlock is the analysistest fixture for the seqlock analyzer:
// //bfgts:seqlock retry readers and //bfgts:seqlock-pub published-index
// readers.
package seqlock

import "sync/atomic"

type cell struct {
	version atomic.Uint64
	val     atomic.Pointer[int]
	data    int
}

//bfgts:seqlock version
func okRead(c *cell) (int, bool) {
	v1 := c.version.Load()
	if v1&1 == 1 {
		return 0, false
	}
	p := c.val.Load()
	if c.version.Load() != v1 {
		return 0, false
	}
	return *p, true
}

//bfgts:seqlock version
func badSingleLoad(c *cell) int { // want `loads epoch field version 1 time\(s\)` `never compares version against a recorded value` `never tests version for odd`
	v1 := c.version.Load()
	_ = v1
	return c.data
}

//bfgts:seqlock version
func badEarlyDeref(c *cell) (int, bool) {
	v1 := c.version.Load()
	if v1&1 == 1 {
		return 0, false
	}
	p := c.val.Load()
	out := *p // want `dereferences p loaded at the start of the critical section without rechecking version in between`
	if c.version.Load() != v1 {
		return 0, false
	}
	return out, true
}

//bfgts:seqlock version
func badFailedDeref(c *cell) (int, bool) {
	v1 := c.version.Load()
	if v1&1 == 1 {
		return 0, false
	}
	p := c.val.Load()
	if c.version.Load() != v1 {
		return *p, false // want `dereferences p on the failed version-check path`
	}
	return *p, true
}

type node struct {
	cur  atomic.Uint32
	pair [2][]byte
}

//bfgts:seqlock-pub cur
func okProbe(n *node) []byte {
	return n.pair[n.cur.Load()]
}

//bfgts:seqlock-pub cur
func okRepublish(n *node) {
	cur := n.cur.Load()
	n.pair[1-cur] = n.pair[1-cur][:0]
	n.cur.Store(1 - cur)
}

//bfgts:seqlock-pub cur
func badDoubleLoad(n *node) int {
	a := len(n.pair[n.cur.Load()])
	b := len(n.pair[n.cur.Load()]) // want `published index n\.cur loaded 2 times in badDoubleLoad`
	return a + b
}

//bfgts:seqlock-pub cur
func badReset(n *node) {
	n.cur.Store(0) // want `published index cur stored without deriving from its loaded value in badReset`
}

//bfgts:seqlock-pub cur
func badDeadPub(n *node) int { // want `never loads or stores cur; drop or fix the directive`
	return len(n.pair[0])
}

// The STM's read loop is a method on a generic receiver: the epoch lives
// in a type-erased core, the guarded pointer is an atomic.Pointer[T], and
// a doomed read leaves through a helper that never returns.

type core struct {
	version atomic.Uint64
}

type typed[T any] struct {
	c   core
	val atomic.Pointer[T]
}

func (c *core) abort() { panic("doomed") }

//bfgts:seqlock version
func (tv *typed[T]) okGenericRead(limit uint64) T {
	c := &tv.c
	for {
		v1 := c.version.Load()
		if v1&1 == 1 || v1 > limit {
			c.abort()
		}
		cell := tv.val.Load()
		if c.version.Load() == v1 {
			return *cell
		}
	}
}

//bfgts:seqlock version
func (tv *typed[T]) badGenericEarlyDeref(limit uint64) T {
	c := &tv.c
	for {
		v1 := c.version.Load()
		if v1&1 == 1 || v1 > limit {
			c.abort()
		}
		cell := tv.val.Load()
		out := *cell // want `dereferences cell loaded at the start of the critical section without rechecking version in between`
		if c.version.Load() == v1 {
			return out
		}
	}
}

//bfgts:seqlock version
func (tv *typed[T]) badGenericFailedDeref() (T, bool) {
	v1 := tv.c.version.Load()
	if v1&1 == 1 {
		var zero T
		return zero, false
	}
	cell := tv.val.Load()
	if tv.c.version.Load() == v1 {
		return *cell, true
	} else {
		return *cell, false // want `dereferences cell on the failed version-check path`
	}
}
