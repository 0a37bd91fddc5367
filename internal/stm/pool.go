package stm

import (
	"sync/atomic"
	"time"
)

// workerState is one worker's shard of System state: the pooled Tx (with
// its read/write sets and probe indexes), the commit-time line buffers,
// the value-cell pools and epoch slot of cells.go, and a private jitter
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

	// epoch is this worker's slot in the process-wide registry: the
	// running attempt's readVersion, or epochIdle. Non-idle is also what
	// marks an attempt as open (see System.abandon).
	epoch *epochSlot
	// safe caches the largest scanEpochs result this worker has seen.
	safe uint64
	// pools holds one *cellPool[T] per value type this worker has written.
	pools []any

	// busy rejects concurrent Atomic calls on the same worker slot, which
	// would silently corrupt the pooled Tx.
	busy atomic.Bool

	// Pad the shard to a whole number of cache lines so adjacent workers'
	// hot fields do not false-share.
	_ [40]byte
}

// init seeds the worker's private RNG (any fixed odd constant works; the
// worker index decorrelates streams) and binds its epoch slot.
func (w *workerState) init(worker int, epoch *epochSlot) {
	w.tx.w = w
	w.epoch = epoch
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
