package stm

// Read/write-set storage for the pooled Tx. Both sets are entry slices
// reused across attempts (truncated, never freed), searched linearly while
// small and through a pooled open-addressing index once they outgrow the
// scan threshold — the same inline-then-spill shape as internal/tm's
// lineSet, applied to TVar identities. The slow paths that actually touch
// the allocator (index build and growth) are unannotated helpers; the hot
// lookup/append paths are allocation-free once capacities have warmed up.

// readEntry records a TVar read and the version observed at first read.
type readEntry struct {
	v   *tvar
	ver uint64
}

// writeEntry buffers a pending value for a TVar (lazy versioning: nothing
// is published until commit). cell is the *T the attempt filled, carried
// as an any — pointer-shaped, so nothing is boxed — because the write set
// is shared by TVars of every type; only v.own knows T again.
type writeEntry struct {
	v    *tvar
	cell any
}

// scanLimit is the set size up to which a linear scan beats the index.
const scanLimit = 24

// idxTable is an open-addressing map from TVar key to entry slot. Slots
// hold entryIndex+1; 0 marks an empty probe slot. len(slots) is a power of
// two. The table is pooled with its Tx: reset clears in place.
type idxTable struct {
	slots []uint32
}

//bfgts:allocfree
func (ix *idxTable) reset() {
	for i := range ix.slots {
		ix.slots[i] = 0
	}
}

// place inserts val at the first free probe slot for hash h. The caller
// guarantees a free slot exists (load factor is capped at 3/4).
//
//bfgts:allocfree
func (ix *idxTable) place(h uint64, val uint32) {
	mask := uint64(len(ix.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if ix.slots[i] == 0 {
			ix.slots[i] = val
			return
		}
	}
}

// keyHash scrambles a sequential TVar key into a probe hash (splitmix64
// finalizer, same family as the bloom package's mixer).
//
//bfgts:allocfree
func keyHash(key uint64) uint64 {
	key ^= key >> 30
	key *= 0xbf58476d1ce4e5b9
	key ^= key >> 27
	key *= 0x94d049bb133111eb
	return key ^ key>>31
}

// lookupRead returns the read-set slot holding v, or -1.
//
//bfgts:allocfree
func (t *Tx) lookupRead(v *tvar) int {
	if len(t.rIdx.slots) == 0 {
		for i := range t.reads {
			if t.reads[i].v == v {
				return i
			}
		}
		return -1
	}
	mask := uint64(len(t.rIdx.slots) - 1)
	for i := keyHash(v.key) & mask; ; i = (i + 1) & mask {
		s := t.rIdx.slots[i]
		if s == 0 {
			return -1
		}
		if t.reads[s-1].v == v {
			return int(s - 1)
		}
	}
}

// lookupWrite returns the write-set slot holding v, or -1. Only valid
// before commit's in-place sort (afterwards use writeSetHas).
//
//bfgts:allocfree
func (t *Tx) lookupWrite(v *tvar) int {
	if len(t.wIdx.slots) == 0 {
		for i := range t.writes {
			if t.writes[i].v == v {
				return i
			}
		}
		return -1
	}
	mask := uint64(len(t.wIdx.slots) - 1)
	for i := keyHash(v.key) & mask; ; i = (i + 1) & mask {
		s := t.wIdx.slots[i]
		if s == 0 {
			return -1
		}
		if t.writes[s-1].v == v {
			return int(s - 1)
		}
	}
}

// appendRead records a first read of v. The append is a self-append into
// pooled storage: it allocates only while the set outgrows its retained
// capacity, then never again.
//
//bfgts:allocfree
func (t *Tx) appendRead(v *tvar, ver uint64) {
	t.reads = append(t.reads, readEntry{v: v, ver: ver})
	n := len(t.reads)
	if len(t.rIdx.slots) == 0 {
		if n > scanLimit {
			t.rebuildReadIndex()
		}
		return
	}
	if 4*n > 3*len(t.rIdx.slots) {
		t.rebuildReadIndex()
		return
	}
	t.rIdx.place(keyHash(v.key), uint32(n))
}

// appendWrite buffers a first write to v; indexing mirrors appendRead.
//
//bfgts:allocfree
func (t *Tx) appendWrite(v *tvar, cell any) {
	t.writes = append(t.writes, writeEntry{v: v, cell: cell})
	n := len(t.writes)
	if len(t.wIdx.slots) == 0 {
		if n > scanLimit {
			t.rebuildWriteIndex()
		}
		return
	}
	if 4*n > 3*len(t.wIdx.slots) {
		t.rebuildWriteIndex()
		return
	}
	t.wIdx.place(keyHash(v.key), uint32(n))
}

// indexSize picks a probe table of 4× the entry count (power of two, min
// 64), capping the load factor at 1/4 right after a rebuild.
func indexSize(entries int) int {
	want := 64
	for want < 4*entries {
		want <<= 1
	}
	return want
}

// rebuildReadIndex (re)sizes and reindexes the read-set probe table.
// Deliberately unannotated: this is the pooled set's growth slow path,
// amortized away once retained capacity is warm.
func (t *Tx) rebuildReadIndex() {
	if want := indexSize(len(t.reads)); want > len(t.rIdx.slots) {
		t.rIdx.slots = make([]uint32, want)
	} else {
		t.rIdx.reset()
	}
	for i := range t.reads {
		t.rIdx.place(keyHash(t.reads[i].v.key), uint32(i+1))
	}
}

// rebuildWriteIndex mirrors rebuildReadIndex for the write set.
func (t *Tx) rebuildWriteIndex() {
	if want := indexSize(len(t.writes)); want > len(t.wIdx.slots) {
		t.wIdx.slots = make([]uint32, want)
	} else {
		t.wIdx.reset()
	}
	for i := range t.writes {
		t.wIdx.place(keyHash(t.writes[i].v.key), uint32(i+1))
	}
}

// sortWrites orders the write set by TVar key in place — the canonical,
// process-wide commit lock order. Shell sort with Knuth gaps: in-place and
// allocation-free (no sort.Slice closure), and effectively insertion sort
// at the small write-set sizes transactions actually have.
//
//bfgts:allocfree
func sortWrites(ws []writeEntry) {
	gap := 1
	for gap < len(ws)/3 {
		gap = 3*gap + 1
	}
	for ; gap >= 1; gap /= 3 {
		for i := gap; i < len(ws); i++ {
			e := ws[i]
			j := i
			for ; j >= gap && ws[j-gap].v.key > e.v.key; j -= gap {
				ws[j] = ws[j-gap]
			}
			ws[j] = e
		}
	}
}
