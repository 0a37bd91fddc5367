package stm

// Typed value cells and their reclamation.
//
// A TVar[T] publishes its value as a *T — a cell. A transaction's Write
// fills a cell it owns exclusively, commit installs it with a pointer
// Swap, and the cell it displaces is retired into a small FIFO owned by
// the committing worker, stamped with the commit version cv. Write reuses
// the FIFO head instead of allocating, so a steady-state commit touches
// the allocator not at all. What follows is the argument that reuse never
// overwrites a cell some reader may still dereference. It is written once,
// here; the code below only points back at it.
//
// Who can hold a displaced cell. A reader loads a TVar's cell pointer only
// between two loads of the TVar's version that return the same even value
// (TVar.Read, TVar.Peek). commit locks the TVar (version made odd) before
// it draws cv from globalClock and swaps the pointer only after, unlocking
// with version = cv; a successful commit never brings an old version back.
// So a reader that obtained the pre-cv pointer passed its recheck before
// the lock, hence before the clock moved to cv:
//
//	(1) a cell displaced at cv can only be picked up by a pointer load
//	    that precedes globalClock reaching cv.
//
// Announcements. Before an attempt's first read its worker stores the
// attempt's readVersion — a clock value read just before — in its epoch
// slot, and stores epochIdle when the attempt is over (commit, abort,
// error, panic). Peek instead raises the process-wide peeker count for
// the duration of its read. Neither keeps a cell pointer afterwards: Read
// and Peek copy the value out.
//
// The scan. scanEpochs loads globalClock first (call the result c0), then
// the list of registered blocks, every slot in it and the peeker count,
// and returns the minimum s of c0 and the slot values — or 0 if a Peek is
// in flight. All of these are sequentially consistent atomics. Claim:
//
//	(2) once a scan has returned s, every attempt (or Peek) that ever held
//	    a cell displaced at a version cv <= s is over, and no other will
//	    ever pick that cell up.
//
// Take an attempt that holds such a cell. By (1) its pointer load precedes
// the clock reaching cv <= c0, hence the scan's clock load. The attempt
// announced in a registered slot before that pointer load, so when the
// scan, later still, loaded the block list and the slot, it found the
// slot and read either that announcement or a later store by the same
// worker. Had it read the announcement, s <= readVersion <= the clock at
// the pointer load < cv, contradicting cv <= s (for a Peek: the scan read
// a non-zero count and returned 0). So it read a later store — the
// attempt was over. And nothing picks the cell up after the scan, because
// by (1) picking it up means loading it before the clock reached cv.
//
// Caching. (2) is about all future time, and a retirement that happens
// after a scan carries a version above that scan's c0, so the scan's s
// never covers it. A worker may therefore keep the largest s it has seen
// (workerState.safe) and reuse any FIFO entry stamped <= it without
// scanning again; it rescans — at most once per attempt — only when the
// head entry is newer than the cached value.
//
// The stamp belongs to the retirement, not the cell: a reused cell that is
// installed and displaced again re-enters a FIFO with the new version.
// Cells of an attempt that did not commit were never visible to anyone
// and go back stamped 0, ready at once.
//
// Bounds. Each (worker, value type) FIFO holds at most cellPoolDepth
// cells; a retirement that finds it full drops the cell to the garbage
// collector. A reader stalled mid-attempt therefore costs the others
// fresh cells (Write falls back to new) and nothing else. A pooled cell
// keeps the value it last held reachable until it is reused.
//
// Epoch slots live in a process-wide registry because TVars, and so the
// cells readers hold, may be shared by transactions of different Systems.
// A System's slots leave the registry when the System is collected.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

const (
	// cellPoolDepth bounds one worker's FIFO of one value type.
	cellPoolDepth = 64
	// epochIdle is an epoch slot's value between attempts: it never lowers
	// a scan's minimum.
	epochIdle = ^uint64(0)
)

// epochSlot is one worker's announcement, alone on its cache line: every
// attempt stores to it twice and every scan of another worker loads it.
type epochSlot struct {
	at atomic.Uint64
	_  [56]byte
}

// epochRegistry is the set of live Systems' slot blocks. Scans load the
// list lock-free; registration and release copy it under mu.
var epochRegistry struct {
	mu     sync.Mutex
	blocks atomic.Pointer[[][]epochSlot]
}

// peekers counts Peek calls in flight; a scan that sees one reclaims
// nothing new.
var peekers atomic.Int64

// epochLease is one System's block of slots and ties its registration to
// the System's lifetime. The System is the lease's only referrer and the
// lease points at nothing that points back, so — unlike the System, which
// sits in a cycle with its manager — a finalizer on it is guaranteed to
// run. The registry holds the slots, not the lease.
type epochLease struct {
	slots []epochSlot
}

// leaseEpochs registers a block of idle slots, released when the returned
// lease is collected.
func leaseEpochs(workers int) *epochLease {
	l := &epochLease{slots: make([]epochSlot, workers)}
	for i := range l.slots {
		l.slots[i].at.Store(epochIdle)
	}
	epochRegistry.mu.Lock()
	var blocks [][]epochSlot
	if old := epochRegistry.blocks.Load(); old != nil {
		blocks = append(blocks, *old...)
	}
	blocks = append(blocks, l.slots)
	epochRegistry.blocks.Store(&blocks)
	epochRegistry.mu.Unlock()

	runtime.SetFinalizer(l, func(l *epochLease) { releaseEpochs(l.slots) })
	return l
}

// registeredAs reports whether a registry entry is the block slots.
func registeredAs(entry, slots []epochSlot) bool { return &entry[0] == &slots[0] }

func releaseEpochs(slots []epochSlot) {
	epochRegistry.mu.Lock()
	defer epochRegistry.mu.Unlock()
	old := *epochRegistry.blocks.Load()
	blocks := make([][]epochSlot, 0, len(old))
	for _, b := range old {
		if !registeredAs(b, slots) {
			blocks = append(blocks, b)
		}
	}
	epochRegistry.blocks.Store(&blocks)
}

// scanEpochs returns a version s such that every cell displaced at a
// version <= s is out of every reader's reach for good — claim (2) above.
// The clock load must come first.
//
//bfgts:allocfree
func scanEpochs() uint64 {
	safe := globalClock.Load()
	for _, b := range *epochRegistry.blocks.Load() {
		for i := range b {
			if e := b[i].at.Load(); e < safe {
				safe = e
			}
		}
	}
	if peekers.Load() != 0 {
		return 0
	}
	return safe
}

// reclaimable reports whether a cell retired at version ver may be reused
// by this attempt, rescanning the epochs at most once per attempt.
//
//bfgts:allocfree
func (t *Tx) reclaimable(ver uint64) bool {
	w := t.w
	if ver > w.safe && !t.scanned {
		t.scanned = true
		if s := scanEpochs(); s > w.safe {
			w.safe = s
		}
	}
	return ver <= w.safe
}

// retiredCell is a FIFO entry: a cell and the commit version that
// displaced it (0 for a cell that was never published).
type retiredCell[T any] struct {
	cell *T
	ver  uint64
}

// cellPool is one worker's FIFO of cells of one value type: a ring whose
// entries' versions never decrease from head to tail, because a worker's
// commit versions only grow and unpublished cells re-enter at the head.
type cellPool[T any] struct {
	ring    [cellPoolDepth]retiredCell[T]
	head, n int
}

// poolOf returns the worker's pool for T. A worker meets a handful of
// value types, so the lookup is a scan comparing type words.
//
//bfgts:allocfree
func poolOf[T any](w *workerState) *cellPool[T] {
	for _, p := range w.pools {
		if cp, ok := p.(*cellPool[T]); ok {
			return cp
		}
	}
	return addPool[T](w)
}

// addPool is poolOf's first-use slow path, unannotated like the set
// growth helpers in txset.go.
func addPool[T any](w *workerState) *cellPool[T] {
	cp := new(cellPool[T])
	w.pools = append(w.pools, cp)
	return cp
}

// newCell is take's fallback: the pool is empty, or a reader still
// announces an epoch older than its head.
func newCell[T any]() *T { return new(T) }

// take hands the attempt a cell nobody else can reach.
//
//bfgts:allocfree
func (p *cellPool[T]) take(t *Tx) *T {
	if p.n == 0 || !t.reclaimable(p.ring[p.head].ver) {
		return newCell[T]()
	}
	e := &p.ring[p.head]
	cell := e.cell
	e.cell = nil
	p.head = (p.head + 1) % cellPoolDepth
	p.n--
	return cell
}

// retire files a cell displaced by a commit at version ver; overflow goes
// to the garbage collector.
//
//bfgts:allocfree
func (p *cellPool[T]) retire(cell *T, ver uint64) {
	if p.n == cellPoolDepth {
		return
	}
	p.ring[(p.head+p.n)%cellPoolDepth] = retiredCell[T]{cell: cell, ver: ver}
	p.n++
}

// unwind returns a cell the attempt took but never published.
//
//bfgts:allocfree
func (p *cellPool[T]) unwind(cell *T) {
	if p.n == cellPoolDepth {
		return
	}
	p.head = (p.head + cellPoolDepth - 1) % cellPoolDepth
	p.ring[p.head] = retiredCell[T]{cell: cell}
	p.n++
}

// cellOwner is the typed face of a type-erased tvar: what commit and an
// abandoned attempt must do with a cell they hold only as an any.
type cellOwner interface {
	// install publishes the cell as the TVar's value and retires the one
	// it displaces at version ver. The caller holds the TVar's lock.
	install(w *workerState, cell any, ver uint64)
	// discard takes back a cell that will not be published.
	discard(w *workerState, cell any)
}

//bfgts:allocfree
func (tv *TVar[T]) install(w *workerState, cell any, ver uint64) {
	poolOf[T](w).retire(tv.val.Swap(cell.(*T)), ver)
}

//bfgts:allocfree
func (tv *TVar[T]) discard(w *workerState, cell any) {
	poolOf[T](w).unwind(cell.(*T))
}

// unwindCells returns every cell of the write set to the worker's pools:
// the attempt ended without publishing them.
//
//bfgts:allocfree
func (t *Tx) unwindCells() {
	for i := range t.writes {
		e := &t.writes[i]
		e.v.own.discard(t.w, e.cell)
	}
	t.writes = t.writes[:0]
}
