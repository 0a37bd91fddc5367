// Package atomicfield is the analysistest fixture for the atomicfield
// analyzer. Fields and globals reached through sync/atomic free functions
// must never be accessed plainly; typed atomic cells must never be copied
// or overwritten.
package atomicfield

import "sync/atomic"

type counters struct {
	hits   int64
	misses int64
}

var inflight int64

func okAtomic(c *counters) int64 {
	atomic.AddInt64(&c.hits, 1)
	return atomic.LoadInt64(&c.hits)
}

func okUntouched(c *counters) int64 {
	return c.misses // never accessed atomically: plain reads are fine
}

func badPlainRead(c *counters) int64 {
	return c.hits // want `hits is accessed with atomic\.AddInt64 elsewhere`
}

func badPlainWrite(c *counters) {
	c.hits = 0 // want `hits is accessed with atomic\.AddInt64 elsewhere`
}

func okGlobalAtomic() {
	atomic.StoreInt64(&inflight, 1)
}

func badGlobalPlain() int64 {
	return inflight // want `inflight is accessed with atomic\.StoreInt64 elsewhere`
}

type slot struct {
	cur  atomic.Uint32
	pair [2]int
}

func okMethod(s *slot) int {
	return s.pair[s.cur.Load()]
}

func okFlip(s *slot) {
	cur := s.cur.Load()
	s.cur.Store(1 - cur)
}

func badCopy(s *slot) atomic.Uint32 {
	return s.cur // want `copies atomic\.Uint32 by value`
}

func badCopyAssign(s *slot) {
	c := s.cur // want `copies atomic\.Uint32 by value`
	c.Load()
}

func badOverwrite(s *slot) {
	s.cur = atomic.Uint32{} // want `plainly overwrites atomic\.Uint32; use its Store method`
}

func okDeclare() uint32 {
	var local atomic.Uint32 // a fresh cell declaration is not a copy
	local.Store(3)
	return local.Load()
}

// The STM's epoch slots: a typed atomic padded to a cache line, kept in a
// slice that every reclamation scan walks. The cell must be reached
// through the slice's own storage.

type epochSlot struct {
	at atomic.Uint64
	_  [56]byte
}

func okScan(slots []epochSlot) uint64 {
	low := ^uint64(0)
	for i := range slots {
		if e := slots[i].at.Load(); e < low {
			low = e
		}
	}
	return low
}

func okAnnounce(s *epochSlot, v uint64) {
	s.at.Store(v)
}

func badScanByValue(slots []epochSlot) uint64 {
	low := ^uint64(0)
	for _, s := range slots { // want `range copies atomicfield\.epochSlot by value`
		if e := s.at.Load(); e < low {
			low = e
		}
	}
	return low
}

func badSlotCopy(slots []epochSlot) uint64 {
	s := slots[0] // want `copies atomicfield\.epochSlot by value`
	return s.at.Load()
}

func badSlotReset(slots []epochSlot) {
	slots[0] = epochSlot{} // want `plainly overwrites atomicfield\.epochSlot; use its Store method`
}
