package stm

import (
	"sync/atomic"
	"time"
)

// workerState is one worker's shard of System state: the pooled Tx (with
// its read/write sets and probe indexes), the commit-time line buffers,
// the value-cell pools and hazard slot of cells.go, and a private jitter
// generator. Pooling per worker instead of through a free list works
// because Atomic is single-flight per worker slot (the busy guard
// enforces it), so nothing is ever contended — the retry loop reuses the
// same storage attempt after attempt with zero allocator traffic once
// capacities are warm.
type workerState struct {
	tx  Tx
	rng uint64 // xorshift64 state for jitter; never zero

	// lineBuf/writeBuf are OnCommit's scratch: distinct read/write-set
	// keys, rebuilt per commit, retained across commits.
	lineBuf  []uint64
	writeBuf []uint64

	// hazard is this worker's slot in the process-wide registry: the id of
	// the cell it last read.
	hazard *hazardSlot
	// pools holds one *cellPool[T] per value type this worker has written.
	pools []any
	// cells counts this worker's takes and drops; only the owner writes
	// it, SnapshotMetrics reads it between workloads.
	cells cellCounts

	// busy rejects concurrent Atomic calls on the same worker slot, which
	// would silently corrupt the pooled Tx.
	busy atomic.Bool

	// Pad the shard to a whole number of cache lines so adjacent workers'
	// hot fields do not false-share.
	_ [24]byte
}

// cellCounts is one worker's cell traffic: takes served from its pools,
// takes that made a fresh cell, and cells dropped to the garbage collector
// because a pool was full.
type cellCounts struct {
	reused, fresh, dropped int64
}

// init seeds the worker's private RNG (any fixed odd constant works; the
// worker index decorrelates streams) and binds its hazard slot.
func (w *workerState) init(worker int, hazard *hazardSlot) {
	w.tx.w = w
	w.hazard = hazard
	w.rng = 0x9e3779b97f4a7c15 ^ uint64(worker+1)*0x2545f4914f6cdd1d
}

// jitter returns a uniform duration in [0, n) nanoseconds from the
// worker-private xorshift64 stream — no locked global rand on the abort
// path, and no cross-worker cache traffic.
//
//bfgts:allocfree
func (w *workerState) jitter(n int64) time.Duration {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return time.Duration(int64(x % uint64(n)))
}
