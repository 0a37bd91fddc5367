package bloofi

import (
	"fmt"

	"repro/internal/bloom"
)

// node is one pooled tree node. Interior nodes aggregate (OR) the filters
// of their children; a leaf's filter contains exactly its occupant's
// identity key, also stored verbatim in key for exact comparison and
// repair.
type node struct {
	filter *bloom.Filter
	key    uint64 // leaf occupant's identity key (leaves only)
	count  int32  // occupied leaves in this subtree
}

// Tree is the deterministic, single-goroutine directory variant (see the
// package comment). Nodes live in a preallocated arena recycled through a
// free list: empty subtrees hold no node at all, insert materializes the
// path to a new leaf from the free list, and remove-with-repair returns
// emptied nodes to it — so the steady state allocates nothing and a
// probe never visits a node with an empty subtree.
type Tree struct {
	branch int
	// levels[l][pos] is the arena index of the node at position pos of
	// level l (level 0 = leaves, last level = root), or -1 while that
	// subtree is empty.
	levels [][]int32
	// span[l] is branch^l, the number of leaf slots under one level-l
	// node: the ancestor of slot s at level l sits at position s/span[l].
	span  []int
	arena []node
	free  []int32
}

// New builds an empty directory. The whole arena — one node per tree
// position, the worst case when every slot is occupied — is allocated
// here, so no later operation touches the allocator.
func New(cfg Config) *Tree {
	if cfg.Capacity <= 0 {
		panic("bloofi: Config.Capacity must be positive")
	}
	cfg = cfg.withDefaults()
	spans, counts := cfg.geometry()
	total := 0
	for _, n := range counts {
		total += n
	}
	t := &Tree{
		branch: cfg.Branch,
		levels: make([][]int32, len(counts)),
		span:   spans,
		arena:  make([]node, total),
		free:   make([]int32, 0, total),
	}
	for l, n := range counts {
		t.levels[l] = make([]int32, n)
		for i := range t.levels[l] {
			t.levels[l][i] = -1
		}
	}
	for i := range t.arena {
		t.arena[i].filter = bloom.NewFilter(cfg.Bits, cfg.Hashes)
		t.free = append(t.free, int32(i))
	}
	return t
}

// Capacity returns the number of leaf slots.
func (t *Tree) Capacity() int { return len(t.levels[0]) }

// Len returns the number of occupied slots.
//
//bfgts:allocfree
func (t *Tree) Len() int {
	root := t.levels[len(t.levels)-1][0]
	if root < 0 {
		return 0
	}
	return int(t.arena[root].count)
}

// Occupied reports whether a slot holds a key.
//
//bfgts:allocfree
func (t *Tree) Occupied(slot int) bool { return t.levels[0][slot] >= 0 }

// Key returns the identity key stored at an occupied slot.
func (t *Tree) Key(slot int) uint64 {
	li := t.levels[0][slot]
	if li < 0 {
		panic(fmt.Sprintf("bloofi: Key on empty slot %d", slot))
	}
	return t.arena[li].key
}

// alloc pops a pooled node from the free list. The arena covers every
// tree position, so exhaustion means the occupancy bookkeeping broke.
//
//bfgts:allocfree
func (t *Tree) alloc() int32 {
	n := len(t.free)
	if n == 0 {
		panic("bloofi: node pool exhausted")
	}
	ni := t.free[n-1]
	t.free = t.free[:n-1]
	return ni
}

// release clears a node's position and returns it — reset, so a pooled
// node can never leak bits into its next incarnation — to the free list.
//
//bfgts:allocfree
func (t *Tree) release(level, pos int) {
	ni := t.levels[level][pos]
	t.levels[level][pos] = -1
	n := &t.arena[ni]
	n.filter.Reset()
	n.key = 0
	n.count = 0
	t.free = append(t.free, ni)
}

// Insert places key at an empty slot, materializing the root-to-leaf path
// from the node pool and folding the key's bits into every node on it —
// the incremental Bloofi insert.
//
//bfgts:allocfree
func (t *Tree) Insert(slot int, key uint64) {
	if t.levels[0][slot] >= 0 {
		panic(fmt.Sprintf("bloofi: Insert on occupied slot %d", slot))
	}
	for l := len(t.levels) - 1; l >= 0; l-- {
		pos := slot / t.span[l]
		ni := t.levels[l][pos]
		if ni < 0 {
			ni = t.alloc()
			t.levels[l][pos] = ni
		}
		n := &t.arena[ni]
		n.filter.Add(key)
		n.count++
		if l == 0 {
			n.key = key
		}
	}
}

// Remove clears an occupied slot and repairs the path above it: each
// ancestor either empties (and returns to the node pool) or has its
// aggregate rebuilt as the OR of its remaining children — a full repair,
// not a lazy one, so no stale bits of the removed key survive anywhere.
//
//bfgts:allocfree
func (t *Tree) Remove(slot int) {
	if t.levels[0][slot] < 0 {
		panic(fmt.Sprintf("bloofi: Remove on empty slot %d", slot))
	}
	t.release(0, slot)
	for l := 1; l < len(t.levels); l++ {
		pos := slot / t.span[l]
		n := &t.arena[t.levels[l][pos]]
		n.count--
		if n.count == 0 {
			t.release(l, pos)
			continue
		}
		n.filter.Reset()
		first := pos * t.branch
		last := first + t.branch
		if m := len(t.levels[l-1]); last > m {
			last = m
		}
		for c := first; c < last; c++ {
			if ci := t.levels[l-1][c]; ci >= 0 {
				n.filter.UnionWith(t.arena[ci].filter)
			}
		}
	}
}

// Set makes slot hold key regardless of its current state: a no-op when
// the key is already there, otherwise remove-then-insert.
//
//bfgts:allocfree
func (t *Tree) Set(slot int, key uint64) {
	if li := t.levels[0][slot]; li >= 0 {
		if t.arena[li].key == key {
			return
		}
		t.Remove(slot)
	}
	t.Insert(slot, key)
}

// Reset empties the directory in place, returning every node to the pool,
// so a Tree of unchanged capacity serves a new run without rebuilding its
// arena. Probes over the Tree stay valid.
//
//bfgts:allocfree
func (t *Tree) Reset() {
	for l, level := range t.levels {
		for pos, ni := range level {
			if ni >= 0 {
				t.release(l, pos)
			}
		}
	}
}

// OccupiedBefore returns how many occupied slots have an index strictly
// below slot — an O(depth·branch) prefix count off the subtree counters,
// used to price what a linear scan would have walked.
//
//bfgts:allocfree
func (t *Tree) OccupiedBefore(slot int) int {
	n := 0
	for l := len(t.levels) - 1; l >= 1; l-- {
		first := (slot / t.span[l]) * t.branch
		stop := slot / t.span[l-1]
		for c := first; c < stop; c++ {
			if ci := t.levels[l-1][c]; ci >= 0 {
				n += int(t.arena[ci].count)
			}
		}
	}
	return n
}

// probeFrame is one suspended level of a probe's descent: the node at
// (level, pos) matched the suspect set, and child is the next child
// position to examine.
type probeFrame struct {
	level int32
	pos   int32
	child int32
}

// Probe is a reusable cursor over one Tree. Reset starts a query; Next
// returns candidate slots in ascending order. The cursor owns its stack
// (capacity = tree depth), so a query performs no allocation; a Tree may
// have any number of Probes, but the Tree and its Probes share one
// goroutine.
type Probe struct {
	t     *Tree
	keys  []uint64
	stack []probeFrame
	nodes int
	cands int
}

// NewProbe returns a cursor bound to t.
func NewProbe(t *Tree) *Probe {
	return &Probe{t: t, stack: make([]probeFrame, 0, len(t.levels))}
}

// Reset starts a new query for the given identity keys, which must be in
// ascending order (the leaf comparison binary-searches them). The slice
// is retained until the next Reset.
//
//bfgts:allocfree
func (p *Probe) Reset(keys []uint64) {
	p.keys = keys
	p.stack = p.stack[:0]
	p.nodes, p.cands = 0, 0
	if len(keys) == 0 {
		return
	}
	top := len(p.t.levels) - 1
	ri := p.t.levels[top][0]
	if ri < 0 {
		return
	}
	if top == 0 {
		// Single-slot tree: the root is the leaf; visit it via a
		// sentinel frame so Next's leaf handling stays uniform.
		p.stack = append(p.stack, probeFrame{level: 1, pos: 0, child: 0})
		return
	}
	p.nodes++
	if p.matchesAny(p.t.arena[ri].filter) {
		p.stack = append(p.stack, probeFrame{level: int32(top), pos: 0, child: 0})
	}
}

// Next resumes the descent and returns the next slot whose occupant's key
// is in the suspect set, in ascending slot order. ok is false when the
// probe is exhausted.
//
//bfgts:allocfree
func (p *Probe) Next() (slot int, ok bool) {
	t := p.t
	for len(p.stack) > 0 {
		f := &p.stack[len(p.stack)-1]
		childLevel := int(f.level) - 1
		first := int(f.pos) * t.branch
		width := len(t.levels[childLevel])
		pushed := false
		for int(f.child) < t.branch {
			c := first + int(f.child)
			f.child++
			if c >= width {
				f.child = int32(t.branch)
				break
			}
			ci := t.levels[childLevel][c]
			if ci < 0 {
				continue
			}
			n := &t.arena[ci]
			p.nodes++
			if childLevel == 0 {
				if p.hasKey(n.key) {
					p.cands++
					return c, true
				}
				continue
			}
			if p.matchesAny(n.filter) {
				p.stack = append(p.stack, probeFrame{level: int32(childLevel), pos: int32(c), child: 0})
				// Descend depth-first so candidates surface in slot order.
				pushed = true
				break
			}
		}
		// The loop exits either by pushing a matching child (descend into
		// it) or by exhausting the children (pop this frame) — never pop
		// the frame a push just placed on top.
		if !pushed {
			p.stack = p.stack[:len(p.stack)-1]
		}
	}
	return 0, false
}

// Nodes returns how many tree nodes the query has visited so far (the
// probe-depth signal surfaced in the metrics histograms).
//
//bfgts:allocfree
func (p *Probe) Nodes() int { return p.nodes }

// Candidates returns how many candidate slots the query has returned.
//
//bfgts:allocfree
func (p *Probe) Candidates() int { return p.cands }

// matchesAny reports whether any suspect key may be under this aggregate.
//
//bfgts:allocfree
func (p *Probe) matchesAny(f *bloom.Filter) bool {
	for _, k := range p.keys {
		if f.Test(k) {
			return true
		}
	}
	return false
}

// hasKey binary-searches the (ascending) suspect keys for an exact match,
// eliminating Bloom false positives at the leaf level.
//
//bfgts:allocfree
func (p *Probe) hasKey(key uint64) bool {
	lo, hi := 0, len(p.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(p.keys) && p.keys[lo] == key
}
