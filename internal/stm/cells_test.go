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
// transactions, that every value is whole and that x and y agree. It
// returns how many times a writer was handed a cell it had been handed
// before — the recycling the test exists to exercise.
func reclaimStress(t *testing.T, wsys, rsys *System, writers, readers, commits int) int64 {
	t.Helper()
	x, y := NewTVar(link(0)), NewTVar(link(0))
	var stop atomic.Bool
	var reused atomic.Int64
	var wg, rg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seen := map[*linked]bool{}
			for i := 0; i < commits; i++ {
				var cell *linked
				err := wsys.Atomic(w, 0, func(tx *Tx) error {
					v := link(x.Read(tx).n + 1)
					x.Write(tx, v)
					y.Write(tx, v)
					cell = tx.writes[tx.lookupWrite(&x.v)].cell.(*linked)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if seen[cell] {
					reused.Add(1)
				}
				seen[cell] = true
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
					if !xv.ok() || !yv.ok() || xv != yv {
						t.Errorf("reader saw x=%+v y=%+v", xv, yv)
						stop.Store(true)
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				// Yield between attempts, with the epoch idle: on a host
				// with fewer processors than goroutines a reader preempted
				// mid-attempt would hold every writer to fresh cells for
				// its whole time off the processor.
				runtime.Gosched()
			}
		}(first + r)
	}
	wg.Wait()
	stop.Store(true)
	rg.Wait()
	if got, want := x.Peek(), link(uint64(writers*commits)); got != want {
		t.Fatalf("x = %+v after %d commits, want %+v", got, writers*commits, want)
	}
	return reused.Load()
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
			if reused := reclaimStress(t, sys, sys, 2, 2, stressCommits()); reused == 0 {
				t.Fatal("no cell was ever recycled; the test exercised nothing")
			}
		})
	}
}

// TestReclaimHonoursForeignReaders: the readers belong to a second System,
// so the writers' scans must find their epochs through the process-wide
// registry.
func TestReclaimHonoursForeignReaders(t *testing.T) {
	for _, kind := range []SchedulerKind{SchedBackoff, SchedATS, SchedBFGTS} {
		t.Run(kind.String(), func(t *testing.T) {
			wsys := NewSystem(Config{Workers: 2, StaticTxs: 2, Scheduler: kind})
			rsys := NewSystem(Config{Workers: 2, StaticTxs: 2, Scheduler: kind})
			if reused := reclaimStress(t, wsys, rsys, 2, 2, stressCommits()); reused == 0 {
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

// TestParkedReaderCostsOnlyFreshCells parks a reader mid-attempt, on a
// channel inside fn, while a writer commits ten pool depths' worth of
// values. The writer must keep going on fresh cells with a bounded pool;
// the reader, resumed, must abort or see a consistent snapshot; and once
// it is out of the way the writer's commits are allocation-free again.
func TestParkedReaderCostsOnlyFreshCells(t *testing.T) {
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
	for i := 0; i < 8; i++ {
		bump() // warm the writer's pool
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

	pool := poolOf[linked](&sys.workers[1])
	before := x.Peek().n
	for i := 0; i < 10*cellPoolDepth; i++ {
		bump()
		if pool.n > cellPoolDepth {
			t.Fatalf("pool holds %d cells, bound is %d", pool.n, cellPoolDepth)
		}
	}
	if pool.n != cellPoolDepth {
		t.Fatalf("pool holds %d cells behind a parked reader, want it full (%d): overflow must go to the GC", pool.n, cellPoolDepth)
	}
	if got := x.Peek().n - before; got != 10*cellPoolDepth {
		t.Fatalf("writer advanced x by %d behind a parked reader, want %d", got, 10*cellPoolDepth)
	}
	close(resume)
	<-readerDone
	if attempts < 2 {
		t.Fatalf("reader committed its parked attempt (attempts = %d); y had moved past its snapshot", attempts)
	}
	bump() // first commit after the reader left rescans and finds the pool ready
	if allocs := testing.AllocsPerRun(100, bump); allocs != 0 {
		t.Fatalf("writer allocates %.1f objects/op after the parked reader left, want 0", allocs)
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
				cell, isVar := tx.writes[i].cell.(*linked)
				if !isVar {
					continue // the guard's *int
				}
				for _, v := range vars {
					if v.val.Load() == cell {
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

// TestEpochSlotsReleasedWithSystem: a collected System takes its slots out
// of the process-wide registry, so dead Systems do not lengthen every
// later scan.
func TestEpochSlotsReleasedWithSystem(t *testing.T) {
	registered := func(slots []epochSlot) bool {
		for _, b := range *epochRegistry.blocks.Load() {
			if registeredAs(b, slots) {
				return true
			}
		}
		return false
	}
	kept := NewSystem(Config{Workers: 1, StaticTxs: 1})
	// The slots alone keep neither their System nor its lease reachable.
	var blocks [][]epochSlot
	for i := 0; i < 16; i++ {
		sys := NewSystem(Config{Workers: 3, StaticTxs: 1, Scheduler: SchedBFGTS})
		v := NewTVar(i)
		if err := sys.Atomic(0, 0, func(tx *Tx) error { v.Write(tx, v.Read(tx)+1); return nil }); err != nil {
			t.Fatal(err)
		}
		if !registered(sys.epochs.slots) {
			t.Fatal("a live System's slots are not in the registry")
		}
		blocks = append(blocks, sys.epochs.slots)
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
	if !registered(kept.epochs.slots) {
		t.Fatal("a reachable System lost its registration")
	}
}
