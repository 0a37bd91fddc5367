// Package stm is a runnable software transactional memory for Go programs
// with BFGTS-style scheduling. It exists because the paper's system is a
// hardware TM inside a simulator: this package gives the library a real
// concurrent API exercising the same contention-management machinery on
// live goroutines.
//
// The package is layered like the simulator:
//
//   - The TM layer (this file) is an STM in the TL2 tradition over typed
//     value cells: a global version clock, per-TVar versioned locks, lazy
//     versioning (writes buffered until commit), commit-time locking in a
//     canonical order and read-set validation. A TVar[T] publishes its
//     value as a *T; Read copies the value out under a seqlock on the
//     TVar's version, Write fills a cell the attempt owns, and commit
//     installs it with one pointer swap. No value is ever boxed.
//   - The reclamation layer (cells.go) recycles the cells commits
//     displace. Each worker announces its attempt's read version in an
//     epoch slot; a displaced cell is filed under its commit version and
//     reused once every announced epoch in the process has reached that
//     version — from then on no reader can hold it. Each worker keeps at
//     most cellPoolDepth cells per value type, overflow goes to the
//     garbage collector, and a reader stalled mid-attempt costs the other
//     workers fresh allocations, never correctness. A pooled cell keeps
//     the value it last held reachable until the cell is reused: a TVar
//     of large slices or maps can pin up to that many old values per
//     worker.
//   - The pooling layer (pool.go, txset.go) keeps the per-attempt state
//     allocation-free: each worker owns one pooled Tx whose
//     open-addressing read/write sets and commit scratch survive attempts,
//     the PR 3 free-list idiom applied to the real STM. Together with the
//     cells this makes the whole begin→abort→retry→commit cycle
//     allocation-free in steady state under every manager.
//   - The scheduling layer (manager.go and the per-manager files) is a
//     pluggable ContentionManager mirroring internal/sched.Manager's hooks
//     (begin, abort, commit) in real time: Backoff, ATS and a
//     production-grade BFGTS whose begin-time scan takes no lock.
//
// Usage:
//
//	sys := stm.NewSystem(stm.Config{Workers: 8, StaticTxs: 2, Scheduler: stm.SchedBFGTS})
//	acct := stm.NewTVar(100)
//	err := sys.Atomic(workerID, 0, func(tx *stm.Tx) error {
//		bal := acct.Read(tx)
//		acct.Write(tx, bal-10)
//		return nil
//	})
//
// The function passed to Atomic may run several times (on conflict); it
// must not have side effects other than TVar reads and writes.
//
// # Sharing TVars across Systems
//
// TVars may be shared by transactions of different Systems: the version
// clock and the epoch registry are process-wide, TVar identities are
// process-unique, and commit lock order is canonical across Systems, so
// isolation and cell reclamation hold globally.
// The caveat is scheduling, not correctness: conflict attribution stamps
// each TVar with a System-qualified writer ID, and a conflict whose last
// writer belongs to another System is deliberately dropped on the floor
// (counted as stm.foreign_enemies) — one System's contention managers
// cannot learn about, throttle, or serialize behind transactions it does
// not manage. Heavily shared TVars are therefore best owned by one System.
package stm

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/decision"
)

// Config parameterizes a System.
type Config struct {
	// Workers is the number of concurrent transaction slots; each
	// goroutine using the system claims a worker ID in [0, Workers).
	Workers int
	// StaticTxs is the number of distinct atomic blocks in the program.
	StaticTxs int
	Scheduler SchedulerKind
	// BloomBits sizes the BFGTS read/write-set filters (default 1024).
	BloomBits int
	// PressureThreshold tunes SchedATS (default 0.5).
	PressureThreshold float64
	// NewManager, when non-nil, overrides Scheduler with a custom
	// contention manager bound to the System under construction.
	NewManager func(*System) ContentionManager

	// LinearPredict disables the BFGTS manager's Bloofi directory and
	// restores the literal linear walk of the running array at begin
	// time. The directory is a best-effort index re-verified against the
	// authoritative running/confidence state, so this is an escape hatch
	// and differential-test oracle, not a semantic knob.
	LinearPredict bool

	// Decisions, if non-nil, receives one record per scheduling decision
	// (each Atomic attempt's proceed, each BFGTS spin/yield suspension)
	// into the per-worker shards; it must have at least Workers shards.
	// Times are wall nanoseconds since NewSystem. Recording is lock-free
	// and allocation-free: each worker writes only its own shard.
	Decisions *decision.Set
}

// systemIDs mints process-unique System identities for writer stamps.
var systemIDs atomic.Uint64

// System owns the scheduling state shared by all transactions.
type System struct {
	cfg Config
	id  uint64 // process-unique, embedded in TVar writer stamps

	// running[w] holds the dTxID executing on worker w, or core.NoTx.
	// Begin-time prediction scans it with plain atomic loads — this is the
	// paper's CPU table, with snoop traffic replaced by cache coherence.
	running []atomic.Int64

	// workers holds the per-worker shards: pooled Tx, commit scratch, cell
	// pools and jitter state. No worker ever touches another's shard.
	workers []workerState
	// epochs keeps the workers' epoch slots registered for as long as the
	// System is reachable.
	epochs *epochLease

	mgr ContentionManager
	// runObs is mgr when it observes running-slot transitions (the BFGTS
	// Bloofi directory), else nil. Kept as a dedicated field so the hot
	// path pays one nil check instead of a type assertion per store.
	runObs runningObserver
	// leaveObs is mgr when it keeps per-execution state that must be
	// dropped when an execution ends without committing, else nil.
	leaveObs leaveObserver
	met      stmMetrics

	// epoch is the Record.Time zero of the decision trace.
	epoch time.Time
}

// NewSystem builds a System.
func NewSystem(cfg Config) *System {
	if cfg.Workers <= 0 || cfg.StaticTxs <= 0 {
		panic("stm: Config needs positive Workers and StaticTxs")
	}
	if uint64(cfg.Workers)*uint64(cfg.StaticTxs) > dtxStampMask {
		panic("stm: Workers*StaticTxs does not fit a writer stamp")
	}
	if cfg.BloomBits == 0 {
		cfg.BloomBits = 1024
	}
	if cfg.PressureThreshold == 0 {
		cfg.PressureThreshold = 0.5
	}
	s := &System{
		cfg:     cfg,
		id:      systemIDs.Add(1),
		running: make([]atomic.Int64, cfg.Workers),
		workers: make([]workerState, cfg.Workers),
		epochs:  leaseEpochs(cfg.Workers),
		epoch:   time.Now(),
	}
	for i := range s.running {
		s.running[i].Store(int64(core.NoTx))
	}
	for i := range s.workers {
		s.workers[i].init(i, &s.epochs.slots[i])
	}
	switch {
	case cfg.NewManager != nil:
		s.mgr = cfg.NewManager(s)
	case cfg.Scheduler == SchedATS:
		s.mgr = newATSManager(s)
	case cfg.Scheduler == SchedBFGTS:
		s.mgr = newBFGTSManager(s)
	default:
		s.mgr = &backoffManager{sys: s}
	}
	s.runObs, _ = s.mgr.(runningObserver)
	s.leaveObs, _ = s.mgr.(leaveObserver)
	return s
}

// runningObserver is an optional ContentionManager extension notified
// after every running-slot transition, from the goroutine owning the
// worker slot. The BFGTS manager uses it to mirror the running array
// into its Bloofi directory; the notification must be cheap and must
// tolerate redundant clears (the deferred cleanup in Atomic re-clears an
// already cleared slot).
type runningObserver interface {
	onRunning(worker, dtx int)
}

// leaveObserver is an optional ContentionManager extension told, on the
// owning worker's goroutine, that an execution ended without committing —
// fn returned an error or panicked — so state the manager keeps per
// execution (a BFGTS suspension awaiting commit-time validation) must not
// leak into the next Atomic call on that dtx.
type leaveObserver interface {
	onLeave(worker, dtx int)
}

// setRunning publishes the dTxID executing on a worker slot (or
// core.NoTx) and forwards the transition to the manager's observer. All
// mutations of the running array flow through here so any index the
// manager keeps over it can never go stale.
//
//bfgts:allocfree
func (s *System) setRunning(worker, dtx int) {
	s.running[worker].Store(int64(dtx))
	if s.runObs != nil {
		s.runObs.onRunning(worker, dtx)
	}
}

// Manager returns the System's contention manager.
func (s *System) Manager() ContentionManager { return s.mgr }

// Commits returns the number of committed transactions.
func (s *System) Commits() int64 { return s.met.commits.Load() }

// Aborts returns the number of aborted transaction attempts.
func (s *System) Aborts() int64 { return s.met.aborts.Load() }

// decShard returns the worker's decision-trace shard, or nil when
// decision recording is off. Each worker slot is single-flight, so the
// shard needs no lock.
//
//bfgts:allocfree
func (s *System) decShard(worker int) *decision.Recorder {
	if s.cfg.Decisions == nil || worker >= s.cfg.Decisions.Threads() {
		return nil
	}
	return s.cfg.Decisions.Shard(worker)
}

// decNow is the decision-trace clock: wall nanoseconds since NewSystem.
//
//bfgts:allocfree
func (s *System) decNow() int64 { return int64(time.Since(s.epoch)) }

// RunningDTx returns the dynamic transaction executing on a worker, or
// core.NoTx — one atomic load, for managers scanning the CPU table.
//
//bfgts:allocfree
func (s *System) RunningDTx(worker int) int {
	return int(s.running[worker].Load())
}

// Similarity returns the similarity EWMA of a dynamic transaction under
// the BFGTS manager, and 0 under managers that do not track it.
func (s *System) Similarity(dtx int) float64 {
	if m, ok := s.mgr.(*bfgtsManager); ok {
		return m.similarity(dtx)
	}
	return 0
}

// AvgSize returns the historical average read/write-set size of a dynamic
// transaction under the BFGTS manager, and 0 under other managers.
func (s *System) AvgSize(dtx int) float64 {
	if m, ok := s.mgr.(*bfgtsManager); ok {
		return m.avgSize(dtx)
	}
	return 0
}

// globalClock is the TL2 version clock shared by all TVars (they can be
// shared across Systems, so the clock is process-wide).
var globalClock atomic.Uint64

// tvarKeys mints process-unique TVar identities: stable hash keys for the
// read/write-set indexes, Bloom-signature line addresses, and the
// canonical commit lock order (consistent across Systems by construction).
var tvarKeys atomic.Uint64

// tvar is the type-erased TVar core: everything the read/write sets, the
// commit protocol and conflict attribution need without knowing T.
type tvar struct {
	// version is even when unlocked (the commit timestamp of the current
	// value) and odd while a committer holds the write lock.
	version atomic.Uint64
	// lastWriter is the System-qualified stamp of the last committed
	// writer (see writerStamp), or 0 when never written transactionally.
	// Conflict attribution unpacks it and drops stamps minted by other
	// Systems instead of indexing local tables with foreign dTxIDs.
	lastWriter atomic.Int64
	// key is the TVar's process-unique identity.
	key uint64
	// own is the enclosing TVar[T], through which commit installs a
	// buffered cell without knowing its type.
	own cellOwner
}

// TVar is a transactional variable holding a value of type T.
type TVar[T any] struct {
	// val is the published cell. Committers swap it while holding the
	// version lock; a displaced cell is recycled under the epoch rule of
	// cells.go, so a loaded pointer may be dereferenced only after a
	// version recheck and only inside an announced attempt (or Peek).
	// It sits directly before v.version: a TVar is 48 bytes, so it may
	// straddle a cache line, and the two words every Read loads should
	// not be the ones that end up apart.
	val atomic.Pointer[T]
	v   tvar
}

// NewTVar creates a TVar with an initial value.
func NewTVar[T any](initial T) *TVar[T] {
	tv := &TVar[T]{}
	tv.v.key = tvarKeys.Add(1)
	tv.v.own = tv
	tv.val.Store(&initial)
	return tv
}

// Read returns the TVar's value inside a transaction, aborting the attempt
// (via txAbort) when a consistent view no longer exists.
//
//bfgts:allocfree
//bfgts:seqlock version
func (tv *TVar[T]) Read(tx *Tx) T {
	v := &tv.v
	if i := tx.lookupWrite(v); i >= 0 {
		return *tx.writes[i].cell.(*T)
	}
	if i := tx.lookupRead(v); i >= 0 {
		// Re-read: the recorded version was ≤ readVersion when first read;
		// any later commit moved the version past readVersion, so observing
		// a change means this attempt is doomed. The cell load precedes the
		// version check; a committer swaps the cell before unlocking, so an
		// unchanged (even) version proves the cell is the recorded version's.
		cell := tv.val.Load()
		if v.version.Load() != tx.reads[i].ver {
			tx.abortOn(v)
		}
		return *cell
	}
	for {
		v1 := v.version.Load()
		if v1&1 == 1 || v1 > tx.readVersion {
			tx.abortOn(v)
		}
		cell := tv.val.Load()
		if v.version.Load() == v1 {
			tx.appendRead(v, v1)
			return *cell
		}
	}
}

// Write buffers a new value for the TVar inside a transaction, in a cell
// the attempt owns until commit publishes it.
//
//bfgts:allocfree
func (tv *TVar[T]) Write(tx *Tx, val T) {
	v := &tv.v
	if i := tx.lookupWrite(v); i >= 0 {
		*tx.writes[i].cell.(*T) = val
		return
	}
	cell := poolOf[T](tx.w).take(tx)
	*cell = val
	tx.appendWrite(v, cell)
}

// Peek reads the committed value outside any transaction. It is safe from
// any goroutine, concurrently with commits: it waits out a committer
// holding the TVar's lock and returns a value some commit published whole.
//
//bfgts:seqlock version
func (tv *TVar[T]) Peek() T {
	peekers.Add(1)
	defer peekers.Add(-1)
	for {
		v1 := tv.v.version.Load()
		if v1&1 == 0 {
			cell := tv.val.Load()
			if tv.v.version.Load() == v1 {
				return *cell
			}
		}
		runtime.Gosched()
	}
}

// Tx is one transaction attempt. It is pooled per worker: the same object
// (and its read/write-set storage) is reused across attempts and across
// Atomic calls, so the retry path touches the allocator only while a set
// outgrows its retained capacity.
type Tx struct {
	sys    *System
	w      *workerState // the owning shard (this Tx is its tx field)
	worker int
	stx    int
	dtx    int

	readVersion uint64
	reads       []readEntry
	writes      []writeEntry
	rIdx, wIdx  idxTable

	enemy int64 // writer stamp attributed to the last conflict, or 0

	// scanned is set once the attempt has rescanned the epochs for a
	// reusable cell (Tx.reclaimable).
	scanned bool

	// decTok/decT0 identify the attempt's proceed record in the decision
	// trace (-1 when recording is off or the record was dropped) and the
	// time it was taken.
	decTok int
	decT0  int64
}

// begin opens an attempt on the pooled Tx, keeping all storage: it draws
// the read version and announces it in the worker's epoch slot before any
// TVar is touched — the order cells.go's reclamation argument rests on.
//
//bfgts:allocfree
func (t *Tx) begin() {
	t.readVersion = globalClock.Load()
	t.w.epoch.at.Store(t.readVersion)
	t.reads = t.reads[:0]
	t.writes = t.writes[:0]
	t.rIdx.reset()
	t.wIdx.reset()
	t.enemy = 0
	t.scanned = false
}

// abortOn dooms the attempt over a conflict on v, unwinding through the
// user function.
//
//bfgts:allocfree
func (t *Tx) abortOn(v *tvar) {
	t.enemy = v.lastWriter.Load()
	panic(txAbort{})
}

// txAbort unwinds a doomed attempt through the user function.
type txAbort struct{}

// Atomic runs fn transactionally as worker `worker` executing static
// transaction stx, retrying on conflicts until it commits. A non-nil error
// from fn aborts the transaction (its writes are discarded) and is
// returned.
//
// Each worker slot is single-flight: concurrent Atomic calls with the same
// worker ID corrupt the pooled per-worker state, so they panic instead.
func (s *System) Atomic(worker, stx int, fn func(*Tx) error) error {
	if worker < 0 || worker >= s.cfg.Workers {
		panic(fmt.Sprintf("stm: worker %d out of range", worker))
	}
	if stx < 0 || stx >= s.cfg.StaticTxs {
		panic(fmt.Sprintf("stm: static tx %d out of range", stx))
	}
	w := &s.workers[worker]
	if !w.busy.CompareAndSwap(false, true) {
		panic(fmt.Sprintf("stm: worker %d used concurrently", worker))
	}
	dtx := worker*s.cfg.StaticTxs + stx
	tx := &w.tx
	defer func() {
		// Normal exits already closed their attempt and cleared the running
		// slot; this also covers a panic out of fn, so a poisoned worker
		// can wedge neither the other workers' begin-time scans and ATS
		// throttling nor their cell reclamation.
		s.abandon(tx, 0, true)
		s.setRunning(worker, core.NoTx)
		w.busy.Store(false)
	}()
	s.met.begins.Add(1)
	tx.sys, tx.worker, tx.stx, tx.dtx = s, worker, stx, dtx
	dec := s.decShard(worker)
	attempt := 0
	for {
		s.mgr.OnBegin(worker, stx, dtx, attempt)
		tx.begin()
		// Record the optimistic proceed: every attempt that reaches here
		// decided to run. Settled below — committed, or by abandon.
		tx.decTok = -1
		if dec != nil {
			tx.decT0 = s.decNow()
			tx.decTok = dec.Add(decision.Record{
				Time:     tx.decT0,
				Tid:      int32(worker),
				Stx:      int32(stx),
				Attempt:  int32(attempt + 1),
				Point:    decision.PBegin,
				Choice:   decision.CProceed,
				EnemyDTx: -1,
				EnemyStx: -1,
			})
		}
		s.setRunning(worker, dtx)
		err, aborted := tx.run(fn)
		s.setRunning(worker, core.NoTx)
		if !aborted {
			if err != nil {
				s.abandon(tx, 0, true)
				return err
			}
			w.epoch.at.Store(epochIdle)
			if dec != nil {
				dec.Resolve(tx.decTok, decision.OCommitted, 0)
			}
			s.met.commits.Add(1)
			s.commitBookkeeping(w, tx)
			return nil
		}
		s.met.aborts.Add(1)
		attempt++
		enemy := s.enemyDTx(tx.enemy)
		wasted := int64(0)
		if dec != nil {
			if enemy != core.NoTx {
				dec.SetEnemy(tx.decTok, int32(enemy), int32(enemy%s.cfg.StaticTxs))
			}
			wasted = s.decNow() - tx.decT0
		}
		s.abandon(tx, wasted, false)
		s.mgr.OnAbort(worker, stx, dtx, enemy, attempt)
	}
}

// abandon is the one seam through which an attempt ends without
// committing: a conflict abort about to retry, an error returned by fn,
// or a panic unwinding out of Atomic. It returns the attempt's unpublished
// cells to the worker's pools, idles the epoch slot, and settles the
// attempt's proceed record as aborted with `wasted` charged as
// undercaution (0 when no conflict is to blame). leaving marks the end of
// the whole execution rather than a retry; the manager then drops what it
// kept for it. A non-idle epoch slot is what marks an attempt as open, so
// calling this again, or after a commit, does nothing.
//
//bfgts:allocfree
func (s *System) abandon(tx *Tx, wasted int64, leaving bool) {
	w := tx.w
	if w.epoch.at.Load() == epochIdle {
		return
	}
	tx.unwindCells()
	w.epoch.at.Store(epochIdle)
	if dec := s.decShard(tx.worker); dec != nil {
		dec.Resolve(tx.decTok, decision.OAborted, wasted)
	}
	if leaving && s.leaveObs != nil {
		s.leaveObs.onLeave(tx.worker, tx.dtx)
	}
}

// run executes one attempt; aborted reports a conflict retry is needed.
func (t *Tx) run(fn func(*Tx) error) (err error, aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(txAbort); ok {
				aborted = true
				return
			}
			panic(r)
		}
	}()
	if err := fn(t); err != nil {
		return err, false
	}
	if !t.commit() {
		return nil, true
	}
	return nil, false
}

// commitBookkeeping assembles the committed read/write set into the
// worker's pooled line buffers (distinct keys: writes first, then reads
// not also written) and hands it to the manager's commit hook.
//
//bfgts:allocfree
func (s *System) commitBookkeeping(w *workerState, tx *Tx) {
	lines, writes := w.lineBuf[:0], w.writeBuf[:0]
	for i := range tx.writes {
		k := tx.writes[i].v.key
		lines = append(lines, k)
		writes = append(writes, k)
	}
	for i := range tx.reads {
		if v := tx.reads[i].v; !tx.writeSetHas(v) {
			lines = append(lines, v.key)
		}
	}
	w.lineBuf, w.writeBuf = lines, writes
	s.mgr.OnCommit(tx.worker, tx.stx, tx.dtx, lines, writes, len(lines))
}

// commit performs TL2 commit: lock the write set in canonical (TVar key)
// order, validate the read set, install the buffered cells. The write
// entries are sorted in place — pooled per-worker storage serving as its
// own scratch — and each displaced cell goes to the worker's pool, so the
// commit path allocates nothing.
//
//bfgts:allocfree
//bfgts:lock-rank writes
func (t *Tx) commit() bool {
	if len(t.writes) == 0 {
		// Read-only: the read set was validated incrementally against a
		// fixed readVersion; nothing to publish.
		return true
	}
	sortWrites(t.writes)
	// The write-set index maps TVars to pre-sort slots, so it is stale from
	// here on; commit is the attempt's last act, and the lookups below
	// (writeSetHas) binary-search the now-sorted entries instead.
	nLocked := 0
	for i := range t.writes {
		v := t.writes[i].v
		ver, recorded := t.readVersionOf(v)
		if !recorded {
			ver = v.version.Load()
			if ver&1 == 1 || ver > t.readVersion {
				return t.commitFail(nLocked, v)
			}
		}
		if !v.version.CompareAndSwap(ver, ver+1) {
			return t.commitFail(nLocked, v)
		}
		nLocked++
	}
	// Validate reads not covered by write locks.
	for i := range t.reads {
		e := &t.reads[i]
		if t.writeSetHas(e.v) {
			continue
		}
		if e.v.version.Load() != e.ver {
			return t.commitFail(nLocked, e.v)
		}
	}
	// Every written TVar is locked before the clock moves: the ordering
	// cells.go's claim (1) is built on.
	commitVersion := globalClock.Add(2)
	stamp := t.sys.writerStamp(t.dtx)
	for i := range t.writes {
		e := &t.writes[i]
		e.v.own.install(t.w, e.cell, commitVersion)
		e.v.lastWriter.Store(stamp)
		e.v.version.Store(commitVersion)
	}
	return true
}

// commitFail rolls back the locked prefix (restoring pre-lock versions),
// attributes the conflict to v's last writer, and reports failure.
//
//bfgts:allocfree
func (t *Tx) commitFail(nLocked int, v *tvar) bool {
	for i := 0; i < nLocked; i++ {
		lv := t.writes[i].v
		lv.version.Store(lv.version.Load() - 1)
	}
	t.enemy = v.lastWriter.Load()
	return false
}

// writeSetHas reports membership in the write set after sortWrites has
// ordered it by key: a binary search, valid only during and after commit.
//
//bfgts:allocfree
func (t *Tx) writeSetHas(v *tvar) bool {
	lo, hi := 0, len(t.writes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.writes[mid].v.key < v.key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(t.writes) && t.writes[lo].v == v
}

// readVersionOf returns the version recorded when v was first read.
//
//bfgts:allocfree
func (t *Tx) readVersionOf(v *tvar) (ver uint64, recorded bool) {
	if i := t.lookupRead(v); i >= 0 {
		return t.reads[i].ver, true
	}
	return 0, false
}
