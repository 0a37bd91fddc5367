// Package tm implements the simulated hardware transactional memory that
// BFGTS schedules on top of. It follows LogTM (Moore et al.): eager
// version management (old values logged, new values in place, so commits
// are cheap and aborts pay a rollback walk) and eager conflict detection at
// cache-line granularity (a requester whose access conflicts with a running
// transaction is NACKed and stalls).
//
// Deadlock among stalled transactions is resolved with a wait-for graph:
// when adding a stall edge closes a cycle, the youngest transaction in the
// cycle is doomed and must abort. This is the moral equivalent of LogTM's
// possible-cycle heuristic, made exact because the simulator has global
// knowledge.
//
// The package is pure bookkeeping: it owns no notion of time. The runner
// (internal/sim) drives it and charges cycles for stalls and rollbacks.
//
// The hot-path structures are recycled rather than reallocated: finished Tx
// objects (with their open-addressing line sets) and line-directory entries
// go back to per-System free lists, so a steady-state simulation does not
// touch the allocator per transaction attempt. Line sets survive release
// unchanged; callers that keep a *Tx past its release (the prediction-
// quality classifier) must Pin it so the storage is not recycled under
// them.
package tm

import "fmt"

// Tx is one dynamic transaction attempt.
type Tx struct {
	DTx    int // dynamic transaction ID: thread*M + static ID
	STx    int // static transaction ID (position in the code)
	Thread int

	// Seq is the global begin order, used as the age for youngest-aborts
	// deadlock resolution. Lower is older.
	Seq uint64

	// Doomed marks the transaction as killed by deadlock resolution; the
	// runner must abort it at the next step boundary.
	Doomed      bool
	DoomedByTid int // thread of the transaction it conflicted with
	DoomedByStx int

	reads  lineSet
	writes lineSet
	// union counts the distinct lines across reads and writes, maintained
	// incrementally so NumLines is O(1).
	union int

	waitFor *Tx // the transaction this one is stalled behind, if any

	// pins counts Pin holders; released marks the transaction as finished.
	// A released transaction is recycled once its last pin drops.
	pins     int
	released bool
}

// NumWrites returns the number of distinct lines written (rollback cost is
// proportional to this, per LogTM's undo-log walk).
func (t *Tx) NumWrites() int { return t.writes.len() }

// NumLines returns the read/write-set size in distinct cache lines.
func (t *Tx) NumLines() int { return t.union }

// ConflictsWith reports whether the two transactions' line sets overlap
// with a write on at least one side — the ground truth for "would these
// two have conflicted had they run concurrently". Line sets survive
// release, so this can be evaluated after either side has finished (Pin the
// other side if the evaluation happens after the current engine event).
// Each pairwise check probes the larger set with the smaller one.
func (t *Tx) ConflictsWith(o *Tx) bool {
	return t.writes.intersects(&o.writes) ||
		t.writes.intersects(&o.reads) ||
		o.writes.intersects(&t.reads)
}

// Lines calls fn for every distinct line in the read/write set.
func (t *Tx) Lines(fn func(addr uint64)) {
	t.writes.each(fn)
	t.reads.each(func(a uint64) {
		if !t.writes.has(a) {
			fn(a)
		}
	})
}

// AppendLines appends every distinct line of the read/write set to buf and
// returns it — the allocation-free form of Lines for callers that keep a
// scratch buffer.
func (t *Tx) AppendLines(buf []uint64) []uint64 {
	buf = t.writes.appendTo(buf)
	t.reads.each(func(a uint64) {
		if !t.writes.has(a) {
			buf = append(buf, a)
		}
	})
	return buf
}

// AppendWriteLines appends every written line to buf and returns it.
func (t *Tx) AppendWriteLines(buf []uint64) []uint64 {
	return t.writes.appendTo(buf)
}

// AccessResult reports the outcome of a transactional memory access.
type AccessResult struct {
	// OK means the access succeeded and the line is now isolated.
	OK bool
	// Holder, when OK is false, is the transaction the requester must stall
	// behind (it was NACKed). The requester retries after Holder releases
	// its isolation. If the deadlock resolver doomed the requester instead,
	// OK is false, Holder is nil, and the requester's Doomed flag is set.
	Holder *Tx
}

type line struct {
	writer  *Tx
	readers []*Tx
}

// System is the global conflict-detection state: the line directory and the
// set of active transactions.
type System struct {
	// OnDoom, if set, is called when deadlock resolution dooms a
	// transaction other than the current requester, so the runner can
	// interrupt its thread.
	OnDoom func(*Tx)

	nStatic   int
	lines     map[uint64]*line
	active    map[int]*Tx // keyed by DTx
	seq       uint64
	conflicts [][]int64 // conflict counts between static IDs (Table 1)

	commits, aborts int64

	// Free lists: finished transactions and drained directory entries are
	// recycled instead of reallocated.
	txFree   []*Tx
	lineFree []*line
}

// NewSystem creates a TM system for a program with nStatic static
// transactions.
func NewSystem(nStatic int) *System {
	s := &System{
		lines:  make(map[uint64]*line),
		active: make(map[int]*Tx),
	}
	s.Reset(nStatic)
	return s
}

// Reset empties the system for a new program of nStatic static
// transactions, as if it were new: the maps are cleared in place, the
// counters and conflict matrix are zeroed, and the free lists are kept, so
// a recycled system starts with every transaction and directory entry its
// last program finished with. (A program that ran to completion leaves no
// open transaction or directory entry; those of one cut short are dropped.)
// OnDoom is kept. Pointers to the old program's transactions are invalid
// afterwards.
func (s *System) Reset(nStatic int) {
	clear(s.lines)
	clear(s.active)
	s.nStatic, s.seq, s.commits, s.aborts = nStatic, 0, 0, 0
	if cap(s.conflicts) < nStatic {
		s.conflicts = make([][]int64, nStatic)
	}
	s.conflicts = s.conflicts[:nStatic]
	for i, row := range s.conflicts {
		if cap(row) < nStatic {
			row = make([]int64, nStatic)
		}
		s.conflicts[i] = row[:nStatic]
		clear(s.conflicts[i])
	}
}

// Begin starts a transaction for the given thread and static ID. A thread
// may only have one active transaction at a time. The returned Tx may be a
// recycled object from an earlier attempt; pointers to it are only stable
// until its release unless pinned.
//
//bfgts:allocfree
func (s *System) Begin(thread, stx, dtx int) *Tx {
	if _, dup := s.active[dtx]; dup {
		panic(fmt.Sprintf("tm: dtx %d already active", dtx))
	}
	s.seq++
	var tx *Tx
	if n := len(s.txFree); n > 0 {
		tx = s.txFree[n-1]
		s.txFree[n-1] = nil
		s.txFree = s.txFree[:n-1]
		tx.reads.reset()
		tx.writes.reset()
		*tx = Tx{reads: tx.reads, writes: tx.writes}
	} else {
		//bfgts:ignore allocfree pool miss; steady state reuses txFree
		tx = &Tx{}
	}
	tx.DTx = dtx
	tx.STx = stx
	tx.Thread = thread
	tx.Seq = s.seq
	s.active[dtx] = tx
	return tx
}

// Pin prevents tx's storage from being recycled after its release, so its
// line sets stay readable across later engine events. Every Pin must be
// balanced by exactly one Unpin.
func (s *System) Pin(tx *Tx) { tx.pins++ }

// Unpin drops one pin; the last Unpin of a released transaction returns its
// storage to the free list.
//
//bfgts:allocfree
func (s *System) Unpin(tx *Tx) {
	tx.pins--
	if tx.pins == 0 && tx.released {
		s.txFree = append(s.txFree, tx)
	}
}

// Active reports whether the dynamic transaction is currently executing.
func (s *System) Active(dtx int) bool {
	_, ok := s.active[dtx]
	return ok
}

// ActiveTx returns the active transaction with the given dynamic ID, if any.
func (s *System) ActiveTx(dtx int) *Tx { return s.active[dtx] }

// Commits and Aborts return lifetime counters.
func (s *System) Commits() int64 { return s.commits }

// Aborts returns the number of aborted transaction attempts.
func (s *System) Aborts() int64 { return s.aborts }

// ConflictMatrix returns conflict counts between static transaction IDs,
// the raw data behind the paper's Table 1. The matrix is the system's own
// storage: Reset zeroes it.
func (s *System) ConflictMatrix() [][]int64 { return s.conflicts }

// LineWriteHeld reports whether some active transaction holds addr's cache
// line in its write set. Sharded runs use it as the owner-side conflict
// check for cross-shard probe messages: shard-owned address slices are
// only ever read from other shards (the workload.Sharder contract), so a
// write-held line under a foreign probe is a partitioning violation.
//
//bfgts:allocfree
func (s *System) LineWriteHeld(addr uint64) bool {
	ln, ok := s.lines[addr]
	return ok && ln.writer != nil
}

// Access performs a transactional read or write of a cache line.
//
//bfgts:allocfree
func (s *System) Access(tx *Tx, addr uint64, write bool) AccessResult {
	if tx.Doomed {
		return AccessResult{}
	}
	tx.waitFor = nil // a retry clears any previous stall edge

	// Re-access fast path: probe the transaction's own line sets before the
	// line directory. A line this tx already writes cannot conflict (the
	// directory pins ln.writer == tx until release, and no reader can join
	// past a writer), and a line it already reads can only have writer nil
	// or self (a foreign writer would have had to get past this reader).
	// Both re-accesses leave every System and Tx structure untouched, so
	// skipping the directory is state-identical, not just result-identical.
	// Read-after-write intentionally misses here: its first read must still
	// take the slow path to join ln.readers.
	if write {
		if tx.writes.has(addr) {
			return AccessResult{OK: true}
		}
	} else if tx.reads.has(addr) {
		return AccessResult{OK: true}
	}

	ln := s.lines[addr]
	if ln == nil {
		if n := len(s.lineFree); n > 0 {
			ln = s.lineFree[n-1]
			s.lineFree[n-1] = nil
			s.lineFree = s.lineFree[:n-1]
		} else {
			//bfgts:ignore allocfree pool miss; steady state reuses lineFree
			ln = &line{}
		}
		s.lines[addr] = ln
	}

	if ln.writer != nil && ln.writer != tx {
		return s.conflict(tx, ln.writer)
	}
	if write {
		for _, r := range ln.readers {
			if r != tx {
				return s.conflict(tx, r)
			}
		}
		ln.writer = tx
		if tx.writes.add(addr) && !tx.reads.has(addr) {
			tx.union++
		}
		return AccessResult{OK: true}
	}
	// Read: writer is nil or self.
	if tx.reads.add(addr) {
		if !tx.writes.has(addr) {
			tx.union++
		}
		found := false
		for _, r := range ln.readers {
			if r == tx {
				found = true
				break
			}
		}
		if !found {
			ln.readers = append(ln.readers, tx)
		}
	}
	return AccessResult{OK: true}
}

// conflict records a requester/holder conflict, installs the stall edge,
// and resolves any wait-for cycle by dooming the youngest participant.
func (s *System) conflict(req, holder *Tx) AccessResult {
	s.conflicts[req.STx][holder.STx]++
	s.conflicts[holder.STx][req.STx]++

	req.waitFor = holder
	if victim := s.findCycleVictim(req); victim != nil {
		// Identify the enemy as the transaction the victim was waiting on
		// (or the requester, for the holder side of a two-cycle).
		enemy := victim.waitFor
		if enemy == nil || enemy == victim {
			enemy = req
		}
		victim.Doomed = true
		victim.DoomedByTid = enemy.Thread
		victim.DoomedByStx = enemy.STx
		victim.waitFor = nil
		if victim == req {
			return AccessResult{}
		}
		if s.OnDoom != nil {
			s.OnDoom(victim)
		}
	}
	return AccessResult{Holder: holder}
}

// findCycleVictim walks the wait-for chain from req. If the chain loops
// back to req, the youngest transaction on the cycle is returned.
func (s *System) findCycleVictim(req *Tx) *Tx {
	victim := req
	node := req.waitFor
	steps := 0
	for node != nil {
		if node == req {
			return victim
		}
		if node.Seq > victim.Seq {
			victim = node
		}
		node = node.waitFor
		if steps++; steps > len(s.active)+1 {
			panic("tm: wait-for walk did not terminate")
		}
	}
	return nil
}

// Commit finishes a transaction successfully, releasing its isolation.
//
//bfgts:allocfree
func (s *System) Commit(tx *Tx) {
	if tx.Doomed {
		panic("tm: committing a doomed transaction")
	}
	s.commits++
	s.release(tx)
}

// Abort finishes a rolled-back transaction, releasing its isolation. The
// runner calls this after charging the rollback cost.
//
//bfgts:allocfree
func (s *System) Abort(tx *Tx) {
	s.aborts++
	s.release(tx)
}

//bfgts:allocfree
func (s *System) release(tx *Tx) {
	tx.writes.each(func(addr uint64) {
		if ln := s.lines[addr]; ln != nil && ln.writer == tx {
			ln.writer = nil
			if len(ln.readers) == 0 {
				s.retireLine(addr, ln)
			}
		}
	})
	tx.reads.each(func(addr uint64) {
		ln := s.lines[addr]
		if ln == nil {
			return
		}
		for i, r := range ln.readers {
			if r == tx {
				ln.readers[i] = ln.readers[len(ln.readers)-1]
				ln.readers[len(ln.readers)-1] = nil
				ln.readers = ln.readers[:len(ln.readers)-1]
				break
			}
		}
		if ln.writer == nil && len(ln.readers) == 0 {
			s.retireLine(addr, ln)
		}
	})
	tx.waitFor = nil
	delete(s.active, tx.DTx)
	// The line sets stay intact for same-event readers (the commit
	// bookkeeping and the conflict classifier); the object is only handed
	// out again by a later Begin, and never while pinned.
	tx.released = true
	if tx.pins == 0 {
		s.txFree = append(s.txFree, tx)
	}
}

// retireLine removes a drained directory entry and recycles it, keeping the
// readers slice's capacity.
//
//bfgts:allocfree
func (s *System) retireLine(addr uint64, ln *line) {
	delete(s.lines, addr)
	ln.writer = nil
	ln.readers = ln.readers[:0]
	s.lineFree = append(s.lineFree, ln)
}
