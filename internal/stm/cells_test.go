package stm

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// Reclamation safety (cells.go). The concurrent tests are meant for
// -race: a cell reused while a reader can still dereference it is a plain
// write racing a plain read, which the detector reports even when the
// values happen to agree. check.sh runs them in its bounded race lane.

// linked is a multi-word value whose fields must always agree; a cell
// overwritten under a reader shows up as a value that fails ok, or as two
// TVars written together that differ.
type linked struct {
	n, triple, inverse uint64
}

func link(n uint64) linked { return linked{n: n, triple: 3 * n, inverse: ^n} }

func (l linked) ok() bool { return l.triple == 3*l.n && l.inverse == ^l.n }

// reclaimStress runs writers on wsys that keep x and y equal, and readers
// on rsys (possibly another System) that assert, inside their
// transactions, that every value is whole, that x and y agree, and that a
// re-read of x returns what the first read did. Each
// writer commits at least minCommits times and then goes on until its
// worker has reused a pooled cell — the recycling the test exists to
// exercise — or the deadline passes. It returns the writers' reuses.
func reclaimStress(t *testing.T, wsys, rsys *System, writers, readers int) int64 {
	t.Helper()
	minCommits := stressCommits()
	deadline := time.Now().Add(20 * time.Second)
	x, y := NewTVar(link(0)), NewTVar(link(0))
	var stop atomic.Bool
	var commits atomic.Int64
	var wg, rg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cells := &wsys.workers[w].cells // owner-written: this goroutine's
			for i := 0; i < minCommits || cells.reused == 0 && time.Now().Before(deadline); i++ {
				err := wsys.Atomic(w, 0, func(tx *Tx) error {
					v := link(x.Read(tx).n + 1)
					x.Write(tx, v)
					y.Write(tx, v)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				commits.Add(1)
			}
		}(w)
	}
	// Readers take the worker slots after the writers' when both run on
	// one System.
	first := 0
	if rsys == wsys {
		first = writers
	}
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(w int) {
			defer rg.Done()
			for !stop.Load() {
				err := rsys.Atomic(w, 1, func(tx *Tx) error {
					xv, yv := x.Read(tx), y.Read(tx)
					// The re-read goes through Read's second path.
					if again := x.Read(tx); !xv.ok() || !yv.ok() || xv != yv || again != xv {
						t.Errorf("reader saw x=%+v y=%+v, then x=%+v", xv, yv, again)
						stop.Store(true)
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				// Leave the running table between calls: a BFGTS writer
				// that predicts a conflict with a reader stalls until the
				// reader's slot changes, and a reader that never leaves it
				// holds the writer for the whole spin budget, again and
				// again up to the escape limit.
				runtime.Gosched()
			}
		}(first + r)
	}
	wg.Wait()
	stop.Store(true)
	rg.Wait()
	if got, want := x.Peek(), link(uint64(commits.Load())); got != want {
		t.Fatalf("x = %+v after %d commits, want %+v", got, commits.Load(), want)
	}
	var reused int64
	for w := 0; w < writers; w++ {
		reused += wsys.workers[w].cells.reused
	}
	return reused
}

func stressCommits() int {
	if testing.Short() {
		return 1500
	}
	return 6000
}

// TestReclaimKeepsReadersConsistent: writers recycling at full speed never
// overwrite a cell under a reader of the same System, under any manager.
func TestReclaimKeepsReadersConsistent(t *testing.T) {
	for _, kind := range []SchedulerKind{SchedBackoff, SchedATS, SchedBFGTS} {
		t.Run(kind.String(), func(t *testing.T) {
			sys := NewSystem(Config{Workers: 4, StaticTxs: 2, Scheduler: kind})
			if reused := reclaimStress(t, sys, sys, 2, 2); reused == 0 {
				t.Fatal("no cell was ever recycled; the test exercised nothing")
			}
		})
	}
}

// TestReclaimHonoursForeignReaders: the readers belong to a second System,
// so the writers' snapshots must find their hazards through the
// process-wide registry.
func TestReclaimHonoursForeignReaders(t *testing.T) {
	for _, kind := range []SchedulerKind{SchedBackoff, SchedATS, SchedBFGTS} {
		t.Run(kind.String(), func(t *testing.T) {
			wsys := NewSystem(Config{Workers: 2, StaticTxs: 2, Scheduler: kind})
			rsys := NewSystem(Config{Workers: 2, StaticTxs: 2, Scheduler: kind})
			if reused := reclaimStress(t, wsys, rsys, 2, 2); reused == 0 {
				t.Fatal("no cell was ever recycled; the test exercised nothing")
			}
		})
	}
}

// TestPeekDuringCommits hammers Peek from a goroutine that owns no worker
// slot while writers commit and recycle. Every peeked value must be whole,
// and since x is written before y is peeked, y can never be behind it.
func TestPeekDuringCommits(t *testing.T) {
	sys := NewSystem(Config{Workers: 2, StaticTxs: 1, Scheduler: SchedBackoff})
	x, y := NewTVar(link(0)), NewTVar(link(0))
	var stop atomic.Bool
	var peeks int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			xv := x.Peek()
			yv := y.Peek()
			if !xv.ok() || !yv.ok() || yv.n < xv.n {
				t.Errorf("peeked x=%+v then y=%+v", xv, yv)
				return
			}
			peeks++
		}
	}()
	commits := stressCommits()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				if err := sys.Atomic(w, 0, func(tx *Tx) error {
					v := link(x.Read(tx).n + 1)
					x.Write(tx, v)
					y.Write(tx, v)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	<-done
	if peeks == 0 {
		t.Fatal("the peeker never completed a round")
	}
	if got := peekers.Load(); got != 0 {
		t.Fatalf("peeker count = %d after every Peek returned, want 0", got)
	}
}

// TestParkedReaderCostsPeersNoFreshCells parks a reader mid-attempt, on a
// channel inside fn, while a writer commits ten pool depths' worth of
// values. The reader's worker has read before, as a live worker has, so
// the writer's pool has grown around the one cell its hazard pins; parking
// it on another cell moves the pin and costs the writer nothing: no fresh
// cell, no dropped one. The reader, resumed, must abort or see a
// consistent snapshot.
func TestParkedReaderCostsPeersNoFreshCells(t *testing.T) {
	sys := NewSystem(Config{Workers: 2, StaticTxs: 1, Scheduler: SchedBackoff})
	x, y := NewTVar(link(0)), NewTVar(link(0))
	bump := func() {
		if err := sys.Atomic(1, 0, func(tx *Tx) error {
			v := link(x.Read(tx).n + 1)
			x.Write(tx, v)
			y.Write(tx, v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Atomic(0, 0, func(tx *Tx) error { x.Read(tx); return nil }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4*cellBatch; i++ {
		bump() // grow the writer's pool to steady state
	}

	parked, resume := make(chan struct{}), make(chan struct{})
	readerDone := make(chan struct{})
	attempts := 0
	go func() {
		defer close(readerDone)
		err := sys.Atomic(0, 0, func(tx *Tx) error {
			attempts++
			xv := x.Read(tx)
			if attempts == 1 {
				close(parked)
				<-resume
			}
			if yv := y.Read(tx); !xv.ok() || !yv.ok() || xv != yv {
				t.Errorf("attempt %d saw x=%+v y=%+v", attempts, xv, yv)
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}()
	<-parked

	cells := &sys.workers[1].cells
	before, was := x.Peek().n, *cells
	if allocs := testing.AllocsPerRun(10*cellPoolDepth, bump); allocs != 0 {
		t.Fatalf("writer allocates %.1f objects/op behind a parked reader, want 0", allocs)
	}
	if got := x.Peek().n - before; got != 10*cellPoolDepth+1 {
		t.Fatalf("writer advanced x by %d behind a parked reader, want %d", got, 10*cellPoolDepth+1)
	}
	if fresh, dropped := cells.fresh-was.fresh, cells.dropped-was.dropped; fresh != 0 || dropped != 0 {
		t.Fatalf("behind a parked reader the writer made %d fresh cells and dropped %d, want 0 and 0", fresh, dropped)
	}
	if got := cells.reused - was.reused; got != 2*(10*cellPoolDepth+1) {
		t.Fatalf("writer reused %d cells over %d two-write commits, want one per write", got, 10*cellPoolDepth+1)
	}
	close(resume)
	<-readerDone
	if attempts < 2 {
		t.Fatalf("reader committed its parked attempt (attempts = %d); y had moved past its snapshot", attempts)
	}
}

// TestNoInstalledCellHandedOut is the single-worker property: whatever
// sequence of commits, conflict aborts and user errors a worker goes
// through, Write never hands it a cell that is still some TVar's
// published value.
func TestNoInstalledCellHandedOut(t *testing.T) {
	failure := errors.New("fn gave up")
	prop := func(ops []uint8) bool {
		sys := NewSystem(Config{Workers: 2, StaticTxs: 1, Scheduler: SchedBackoff})
		vars := make([]*TVar[linked], 5)
		for i := range vars {
			vars[i] = NewTVar(link(uint64(i)))
		}
		guard := NewTVar(0) // worker 1 bumps it to doom worker 0's attempt
		ok := true
		check := func(tx *Tx) {
			for i := range tx.writes {
				c, isVar := tx.writes[i].cell.(*cell[linked])
				if !isVar {
					continue // the guard's *int
				}
				for _, v := range vars {
					if v.val.Load() == c {
						ok = false
					}
				}
			}
		}
		for _, op := range ops {
			nWrites := 1 + int(op>>2)%len(vars)
			doomed := false
			err := sys.Atomic(0, 0, func(tx *Tx) error {
				g := guard.Read(tx)
				for i := 0; i < nWrites; i++ {
					v := vars[(int(op)+i)%len(vars)]
					v.Write(tx, link(v.Read(tx).n+1))
				}
				check(tx)
				switch op % 3 {
				case 1: // conflict abort on the first attempt, then commit
					if !doomed {
						doomed = true
						if err := sys.Atomic(1, 0, func(tx *Tx) error {
							guard.Write(tx, g+1)
							vars[int(op)%len(vars)].Write(tx, link(uint64(op)))
							check(tx)
							return nil
						}); err != nil {
							ok = false
						}
						guard.Read(tx) // doomed: unwinds here
						ok = false     // not reached
					}
				case 2:
					return failure
				}
				return nil
			})
			if (op%3 == 2) != errors.Is(err, failure) {
				ok = false
			}
			for _, v := range vars {
				if !v.Peek().ok() {
					ok = false
				}
			}
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestHazardSlotsReleasedWithSystem: a collected System takes its slots
// out of the process-wide registry, so dead Systems do not lengthen every
// later snapshot.
func TestHazardSlotsReleasedWithSystem(t *testing.T) {
	registered := func(slots []hazardSlot) bool {
		for _, b := range *hazardRegistry.blocks.Load() {
			if registeredAs(b, slots) {
				return true
			}
		}
		return false
	}
	kept := NewSystem(Config{Workers: 1, StaticTxs: 1})
	// The slots alone keep neither their System nor its lease reachable.
	var blocks [][]hazardSlot
	for i := 0; i < 16; i++ {
		sys := NewSystem(Config{Workers: 3, StaticTxs: 1, Scheduler: SchedBFGTS})
		v := NewTVar(i)
		if err := sys.Atomic(0, 0, func(tx *Tx) error { v.Write(tx, v.Read(tx)+1); return nil }); err != nil {
			t.Fatal(err)
		}
		if !registered(sys.hazards.slots) {
			t.Fatal("a live System's slots are not in the registry")
		}
		blocks = append(blocks, sys.hazards.slots)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, b := range blocks {
		for registered(b) {
			if time.Now().After(deadline) {
				t.Fatal("an unreachable System's slots are still registered")
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
	}
	if !registered(kept.hazards.slots) {
		t.Fatal("a reachable System lost its registration")
	}
}
