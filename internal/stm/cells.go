package stm

// Typed value cells and their reclamation.
//
// A TVar[T] publishes its value as a *cell[T]. A transaction's Write fills
// a cell it owns exclusively, commit installs it with a pointer Swap, and
// the cell it displaces goes into a small pool owned by the committing
// worker. Write reuses pooled cells instead of allocating, so a
// steady-state commit touches the allocator not at all. What follows is
// the argument that reuse never overwrites a cell some reader may still
// copy from. It is written once, here; the code below only points back at
// it.
//
// Hazards. Every worker owns one hazard slot in a process-wide registry.
// A transactional read (TVar.Read, first read and re-read alike) loads the
// TVar's cell pointer, stores the cell's id in its slot, and only then
// rechecks the TVar's version; it copies the value out only if the recheck
// passes. A cell's id is written when the cell is made and never again, so
// loading it before the recheck is safe even while a writer refills the
// value. That is one atomic store per read, and a slot is never cleared:
// it names the last cell its worker read. Peek has no slot; it raises the
// process-wide peeker count before its first load and lowers it after its
// copy.
//
// Who can hold a displaced cell. commit locks the TVar (version made odd)
// before it swaps the pointer, and a version, once left, never comes back:
// the unlock stores a fresh clock value, and a failed commit restores the
// version it locked without swapping anything. So a read whose recheck saw
// the version it expected made that recheck, and its hazard store before
// it, before the displacing commit took the lock:
//
//	(1) a read that copies from a cell displaced by a commit stored the
//	    cell's id before the cell was displaced.
//
// The vet. A take that finds no ready cell may vet its pool
// (cellPool.vet): load every other registered slot and the peeker count
// once, and mark the pooled cells no slot names as ready. A cell enters a
// pool only after it was displaced (or given back unpublished), so the vet
// runs after that. The vetting worker skips its own slot: its own copies
// are over before it vets. Claim:
//
//	(2) a pooled cell that a vet found unnamed while the peeker count read
//	    zero is out of every reader's reach for good.
//
// Take a read that copies from such a cell c. By (1) its hazard store
// precedes c's displacement, hence the vet, so the vet read either c's
// id — and c stays unvetted — or a later store to the same slot. A worker
// stores to its slot again only on its next read, after it has copied
// from c, so that copy is over. No read can start copying from c
// afterwards: c is no longer any TVar's value, so a read that loaded its
// pointer before the displacement and stores its id after the vet fails
// its recheck. For a Peek the same order puts its increment before the
// vet, so a zero count means its decrement came first, after its copy; a
// vet that reads a non-zero count marks nothing ready. All of these are
// sequentially consistent atomics. Because (2) holds for all future time,
// a ready cell stays ready until it is taken, whatever attempt takes it.
//
// Batching. A vet costs one load per registered slot, so a pool vets only
// once it holds cellBatch cells beyond those the last vet found pinned,
// and hands out fresh cells until then: the loads are shared by a batch
// of takes, as hazard-pointer schemes share their scan.
//
// Cells an attempt took but never published were visible to no one; they
// go back to the pool like displaced ones. A stale hazard may still name
// one (a read that lost its recheck), which costs a skip, nothing more.
//
// Bounds. A slot names one cell, so a reader parked anywhere — even in the
// middle of an attempt, between its hazard store and its copy — pins at
// most one cell: writers skip it and take the next. A writer's fresh cells
// per value type are therefore bounded by cellBatch plus the number of
// registered workers, however long a reader stalls. Each (worker, value
// type) pool holds at most cellPoolDepth cells; a cell that finds it full
// is dropped to the garbage collector. A pooled cell keeps the value it
// last held reachable until it is reused.
//
// Hazard slots live in a process-wide registry because TVars, and so the
// cells readers hold, may be shared by transactions of different Systems.
// A System's slots leave the registry when the System is collected.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

const (
	// cellPoolDepth bounds one worker's pool of one value type.
	cellPoolDepth = 64
	// cellBatch is how many unvetted cells a pool collects before a vet.
	cellBatch = 16
)

// cell is a TVar's published value. Only val is ever rewritten.
type cell[T any] struct {
	val T
	// id names the cell in hazard slots: process-unique, never 0, and
	// immutable, so a reader may load it before its version recheck.
	id uint64
}

// cellIDs mints cell ids.
var cellIDs atomic.Uint64

// newCell makes a cell: a TVar's first value, or take's fallback when no
// pooled cell is ready.
func newCell[T any]() *cell[T] { return &cell[T]{id: cellIDs.Add(1)} }

// hazardSlot is one worker's hazard, alone on its cache line: every read
// stores to it and every vet by another worker loads it. 0 names no
// cell.
type hazardSlot struct {
	id atomic.Uint64
	_  [56]byte
}

// hazardRegistry is the set of live Systems' slot blocks. Vets load the
// list lock-free; registration and release copy it under mu.
var hazardRegistry struct {
	mu     sync.Mutex
	blocks atomic.Pointer[[][]hazardSlot]
}

// peekers counts Peek calls in flight; a vet that sees one readies no
// cell.
var peekers atomic.Int64

// hazardLease is one System's block of slots and ties its registration to
// the System's lifetime. The System is the lease's only referrer and the
// lease points at nothing that points back, so — unlike the System, which
// sits in a cycle with its manager — a finalizer on it is guaranteed to
// run. The registry holds the slots, not the lease.
type hazardLease struct {
	slots []hazardSlot
}

// leaseHazards registers a block of empty slots, released when the
// returned lease is collected.
func leaseHazards(workers int) *hazardLease {
	l := &hazardLease{slots: make([]hazardSlot, workers)}
	hazardRegistry.mu.Lock()
	var blocks [][]hazardSlot
	if old := hazardRegistry.blocks.Load(); old != nil {
		blocks = append(blocks, *old...)
	}
	blocks = append(blocks, l.slots)
	hazardRegistry.blocks.Store(&blocks)
	hazardRegistry.mu.Unlock()

	runtime.SetFinalizer(l, func(l *hazardLease) { releaseHazards(l.slots) })
	return l
}

// registeredAs reports whether a registry entry is the block slots.
func registeredAs(entry, slots []hazardSlot) bool { return &entry[0] == &slots[0] }

func releaseHazards(slots []hazardSlot) {
	hazardRegistry.mu.Lock()
	defer hazardRegistry.mu.Unlock()
	old := *hazardRegistry.blocks.Load()
	blocks := make([][]hazardSlot, 0, len(old))
	for _, b := range old {
		if !registeredAs(b, slots) {
			blocks = append(blocks, b)
		}
	}
	hazardRegistry.blocks.Store(&blocks)
}

// cellPool is one worker's pool of cells of one value type: a ring taken
// from the head and refilled at the tail. Its first ready cells were found
// unpinned by a vet; held is how many the last vet found pinned.
type cellPool[T any] struct {
	ring        [cellPoolDepth]*cell[T]
	head, n     int
	ready, held int
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

// take hands the worker a cell nobody else can reach: a ready one,
// vetting the pool first once a batch has collected, or a fresh one.
//
//bfgts:allocfree
func (p *cellPool[T]) take(w *workerState) *cell[T] {
	if p.ready == 0 && (p.n-p.held >= cellBatch || p.n == cellPoolDepth) {
		p.vet(w)
	}
	if p.ready == 0 {
		w.cells.fresh++
		return newCell[T]()
	}
	c := p.ring[p.head]
	p.ring[p.head] = nil
	p.head = (p.head + 1) % cellPoolDepth
	p.n--
	p.ready--
	w.cells.reused++
	return c
}

// vet loads every other worker's hazard slot and the peeker count once and
// moves the pooled cells no slot names to the head as ready — claim (2).
//
//bfgts:allocfree
func (p *cellPool[T]) vet(w *workerState) {
	var pinned uint64 // bit i: the cell i places from the head is named
	for _, b := range *hazardRegistry.blocks.Load() {
		for j := range b {
			s := &b[j]
			if s == w.hazard {
				continue
			}
			id := s.id.Load()
			if id == 0 {
				continue
			}
			for i := 0; i < p.n; i++ {
				if p.ring[(p.head+i)%cellPoolDepth].id == id {
					pinned |= 1 << i
					break
				}
			}
		}
	}
	if peekers.Load() != 0 {
		p.ready, p.held = 0, p.n
		return
	}
	p.ready = 0
	for i := 0; i < p.n; i++ {
		if pinned&(1<<i) == 0 {
			a, b := (p.head+p.ready)%cellPoolDepth, (p.head+i)%cellPoolDepth
			p.ring[a], p.ring[b] = p.ring[b], p.ring[a]
			p.ready++
		}
	}
	p.held = p.n - p.ready
}

// put files a cell that a commit displaced or an attempt gave back;
// overflow goes to the garbage collector.
//
//bfgts:allocfree
func (p *cellPool[T]) put(w *workerState, c *cell[T]) {
	if p.n == cellPoolDepth {
		w.cells.dropped++
		return
	}
	p.ring[(p.head+p.n)%cellPoolDepth] = c
	p.n++
}

// cellOwner is the typed face of a type-erased tvar: what commit and an
// abandoned attempt must do with a cell they hold only as an any.
type cellOwner interface {
	// install publishes the cell as the TVar's value and pools the one it
	// displaces. The caller holds the TVar's lock.
	install(w *workerState, c any)
	// discard takes back a cell that will not be published.
	discard(w *workerState, c any)
}

//bfgts:allocfree
func (tv *TVar[T]) install(w *workerState, c any) {
	poolOf[T](w).put(w, tv.val.Swap(c.(*cell[T])))
}

//bfgts:allocfree
func (tv *TVar[T]) discard(w *workerState, c any) {
	poolOf[T](w).put(w, c.(*cell[T]))
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
