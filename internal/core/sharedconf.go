package core

import "sync/atomic"

// SharedConf is a confidence table safe for concurrent use: the real STM's
// rendering of the paper's per-CPU confidence-table copies. In hardware,
// each CPU snoops broadcast updates into a private copy so the begin-time
// scan reads local registers; under the Go memory model the equivalent is
// one shared table of word-sized cells read with atomic loads (no lock,
// no inter-scan coordination) and updated with bounded compare-and-swap.
//
// Confidence values live in [0, 1] and are stored as 16.16 fixed point, so
// a cell is one aligned 32-bit word: begin-time prediction costs exactly
// one atomic load per running transaction, mirroring the single table
// lookup per CPU-table entry of the hardware scan (Example 1).
//
// Aliasing (the fold of static IDs into a bounded table, Config.AliasBuckets)
// is honored the same way as Runtime's sequential table.
type SharedConf struct {
	dim   int
	cells []atomic.Uint32

	// incs/decs count clamped updates for the metrics snapshot.
	incs, decs atomic.Int64
}

// confFixedOne is 1.0 in the table's 16.16 fixed-point encoding.
const confFixedOne = 1 << 16

// NewSharedConf allocates a concurrent confidence table for numStatic
// static transactions, folded into aliasBuckets cells per axis when
// 0 < aliasBuckets < numStatic.
func NewSharedConf(numStatic, aliasBuckets int) *SharedConf {
	if numStatic <= 0 {
		panic("core: SharedConf needs a positive static-transaction count")
	}
	dim := numStatic
	if aliasBuckets > 0 && aliasBuckets < numStatic {
		dim = aliasBuckets
	}
	return &SharedConf{
		dim:   dim,
		cells: make([]atomic.Uint32, dim*dim),
	}
}

// Dim returns the per-axis size of the table after aliasing.
func (c *SharedConf) Dim() int { return c.dim }

// Fold returns the cell index a static ID aliases to, letting callers
// detect when two IDs share a cell (e.g. to avoid double-pumping a
// symmetric update).
//
//bfgts:allocfree
func (c *SharedConf) Fold(stx int) int { return c.idx(stx) }

// idx folds a static ID per the aliasing configuration.
//
//bfgts:allocfree
func (c *SharedConf) idx(stx int) int {
	if stx >= c.dim {
		return stx % c.dim
	}
	return stx
}

// Load returns the confidence that static transactions a and b conflict.
// One atomic load — the begin-time scan's per-entry cost.
//
//bfgts:allocfree
func (c *SharedConf) Load(a, b int) float64 {
	return float64(c.cells[c.idx(a)*c.dim+c.idx(b)].Load()) / confFixedOne
}

// Add folds delta into the (a, b) cell, clamped to [0, 1], retrying the
// compare-and-swap under contention. Lost-update-free: concurrent
// increments from different aborting workers all land.
//
//bfgts:allocfree
func (c *SharedConf) Add(a, b int, delta float64) {
	cell := &c.cells[c.idx(a)*c.dim+c.idx(b)]
	d := int64(delta * confFixedOne)
	for {
		old := cell.Load()
		v := int64(old) + d
		if v < 0 {
			v = 0
		} else if v > confFixedOne {
			v = confFixedOne
		}
		if cell.CompareAndSwap(old, uint32(v)) {
			break
		}
	}
	if delta >= 0 {
		c.incs.Add(1)
	} else {
		c.decs.Add(1)
	}
}

// Mean returns the mean confidence across the table — the phase-dynamics
// signal (high mean = serialized phase, low mean = optimistic phase).
func (c *SharedConf) Mean() float64 {
	if len(c.cells) == 0 {
		return 0
	}
	var sum float64
	for i := range c.cells {
		sum += float64(c.cells[i].Load())
	}
	return sum / confFixedOne / float64(len(c.cells))
}

// Updates reports the clamped increment and decrement counts applied so
// far, for metrics snapshots.
func (c *SharedConf) Updates() (incs, decs int64) {
	return c.incs.Load(), c.decs.Load()
}
