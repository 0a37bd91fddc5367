package stm

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func newTestSystem(sched SchedulerKind, workers int) *System {
	return NewSystem(Config{Workers: workers, StaticTxs: 2, Scheduler: sched})
}

func TestReadWriteRoundTrip(t *testing.T) {
	sys := newTestSystem(SchedBackoff, 1)
	v := NewTVar(41)
	err := sys.Atomic(0, 0, func(tx *Tx) error {
		v.Write(tx, v.Read(tx)+1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Peek(); got != 42 {
		t.Fatalf("value = %d, want 42", got)
	}
	if sys.Commits() != 1 {
		t.Fatalf("commits = %d, want 1", sys.Commits())
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	sys := newTestSystem(SchedBackoff, 1)
	v := NewTVar("a")
	sys.Atomic(0, 0, func(tx *Tx) error {
		v.Write(tx, "b")
		if got := v.Read(tx); got != "b" {
			t.Fatalf("read-own-write = %q, want b", got)
		}
		return nil
	})
}

func TestErrorAbortsWithoutSideEffects(t *testing.T) {
	sys := newTestSystem(SchedBackoff, 1)
	v := NewTVar(1)
	sentinel := errors.New("nope")
	err := sys.Atomic(0, 0, func(tx *Tx) error {
		v.Write(tx, 99)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("error = %v, want sentinel", err)
	}
	if v.Peek() != 1 {
		t.Fatal("failed transaction published a write")
	}
}

// TestUserPanicPropagates: a panic out of fn reaches the caller, and the
// poisoned worker leaves nothing behind that the others would pay for —
// its epoch slot is idle and the cell it had taken is back in its pool, so
// another worker's write-commit loop still recycles (0 allocs/op) instead
// of waiting on an attempt that will never end.
func TestUserPanicPropagates(t *testing.T) {
	sys := newTestSystem(SchedBackoff, 2)
	v := NewTVar(1 << 20)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("user panic swallowed")
			}
		}()
		sys.Atomic(0, 0, func(tx *Tx) error {
			v.Write(tx, v.Read(tx)+1)
			panic("boom")
		})
	}()
	if v.Peek() != 1<<20 {
		t.Fatal("panicked transaction published a write")
	}
	if got := sys.workers[0].epoch.at.Load(); got != epochIdle {
		t.Fatalf("poisoned worker still announces epoch %d", got)
	}
	if n := poolOf[int](&sys.workers[0]).n; n != 1 {
		t.Fatalf("poisoned worker's pool holds %d cells, want the 1 its attempt had taken", n)
	}
	commit := func() {
		if err := sys.Atomic(1, 0, func(tx *Tx) error {
			v.Write(tx, v.Read(tx)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		commit()
	}
	if allocs := testing.AllocsPerRun(100, commit); allocs != 0 {
		t.Fatalf("write-commit loop allocates %.1f objects/op beside a poisoned worker, want 0", allocs)
	}
	// The slot itself is usable again.
	if err := sys.Atomic(0, 0, func(tx *Tx) error { v.Write(tx, 7); return nil }); err != nil || v.Peek() != 7 {
		t.Fatalf("worker 0 unusable after a panic: err=%v value=%d", err, v.Peek())
	}
}

func TestTVarTypes(t *testing.T) {
	sys := newTestSystem(SchedBackoff, 1)
	type pair struct{ a, b int }
	v := NewTVar(pair{1, 2})
	s := NewTVar([]int{1, 2, 3})
	sys.Atomic(0, 0, func(tx *Tx) error {
		p := v.Read(tx)
		p.a = 10
		v.Write(tx, p)
		s.Write(tx, append(s.Read(tx), 4))
		return nil
	})
	if v.Peek().a != 10 || len(s.Peek()) != 4 {
		t.Fatal("struct/slice TVars broken")
	}
}

// counters: every scheduler must produce exact counts under heavy
// concurrent increments of one hot TVar.
func TestConcurrentCounterExact(t *testing.T) {
	for _, kind := range []SchedulerKind{SchedBackoff, SchedATS, SchedBFGTS} {
		const workers = 8
		const perWorker = 200
		sys := newTestSystem(kind, workers)
		counter := NewTVar(0)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					sys.Atomic(w, 0, func(tx *Tx) error {
						counter.Write(tx, counter.Read(tx)+1)
						return nil
					})
				}
			}(w)
		}
		wg.Wait()
		if got := counter.Peek(); got != workers*perWorker {
			t.Fatalf("scheduler %v: counter = %d, want %d (lost updates)", kind, got, workers*perWorker)
		}
		if sys.Commits() != workers*perWorker {
			t.Fatalf("scheduler %v: commits = %d", kind, sys.Commits())
		}
	}
}

// Bank invariant: total money conserved under random transfers.
func TestBankTransferInvariant(t *testing.T) {
	const workers = 8
	const accounts = 16
	const perWorker = 300
	sys := NewSystem(Config{Workers: workers, StaticTxs: 1, Scheduler: SchedBFGTS})
	accts := make([]*TVar[int], accounts)
	for i := range accts {
		accts[i] = NewTVar(1000)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*2654435761 + 1
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}
			for i := 0; i < perWorker; i++ {
				from, to := next(accounts), next(accounts)
				if from == to {
					continue
				}
				sys.Atomic(w, 0, func(tx *Tx) error {
					bf := accts[from].Read(tx)
					bt := accts[to].Read(tx)
					accts[from].Write(tx, bf-10)
					accts[to].Write(tx, bt+10)
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, a := range accts {
		total += a.Peek()
	}
	if total != accounts*1000 {
		t.Fatalf("money not conserved: total = %d, want %d", total, accounts*1000)
	}
}

// Isolation: a transaction never observes another's partial writes (two
// TVars always updated together must always be read equal).
func TestIsolationPairInvariant(t *testing.T) {
	const workers = 6
	sys := NewSystem(Config{Workers: workers, StaticTxs: 2, Scheduler: SchedBackoff})
	x, y := NewTVar(0), NewTVar(0)
	stop := make(chan struct{})
	var bad sync.Once
	violated := false
	var wg sync.WaitGroup
	for w := 0; w < workers/2; w++ {
		wg.Add(2)
		go func(w int) { // writers keep x == y
			defer wg.Done()
			for i := 0; i < 400; i++ {
				sys.Atomic(w, 0, func(tx *Tx) error {
					v := x.Read(tx) + 1
					x.Write(tx, v)
					y.Write(tx, v)
					return nil
				})
			}
		}(w)
		go func(w int) { // readers check the invariant
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sys.Atomic(w, 1, func(tx *Tx) error {
					if x.Read(tx) != y.Read(tx) {
						bad.Do(func() { violated = true })
					}
					return nil
				})
			}
		}(workers/2 + w)
	}
	// Wait for the writers to finish their quota, then stop the readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for sys.Commits() < int64(workers/2)*400 {
	}
	close(stop)
	<-done
	if violated {
		t.Fatal("reader observed torn write (x != y)")
	}
}

func TestAbortsAreCounted(t *testing.T) {
	const workers = 8
	sys := newTestSystem(SchedBackoff, workers)
	hot := NewTVar(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sys.Atomic(w, 0, func(tx *Tx) error {
					hot.Write(tx, hot.Read(tx)+1)
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	if sys.Aborts() == 0 {
		t.Skip("no conflicts observed (machine too serial); nothing to assert")
	}
}

func TestBFGTSRuntimeLearns(t *testing.T) {
	const workers = 8
	sys := newTestSystem(SchedBFGTS, workers)
	hot := NewTVar(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				sys.Atomic(w, 0, func(tx *Tx) error {
					hot.Write(tx, hot.Read(tx)+1)
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	if got := hot.Peek(); got != workers*300 {
		t.Fatalf("counter = %d, want %d", got, workers*300)
	}
	// The manager should have accumulated statistics for the hot block.
	if sys.AvgSize(0) <= 0 {
		t.Fatal("BFGTS manager recorded no transaction sizes")
	}
}

func TestWorkerRangePanics(t *testing.T) {
	sys := newTestSystem(SchedBackoff, 2)
	for _, fn := range []func(){
		func() { sys.Atomic(-1, 0, func(*Tx) error { return nil }) },
		func() { sys.Atomic(2, 0, func(*Tx) error { return nil }) },
		func() { sys.Atomic(0, 7, func(*Tx) error { return nil }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range worker/stx did not panic")
				}
			}()
			fn()
		}()
	}
}

// Property: sequential transactions compose like plain assignments.
func TestPropertySequentialSemantics(t *testing.T) {
	prop := func(vals []int16) bool {
		sys := newTestSystem(SchedBackoff, 1)
		v := NewTVar(0)
		sum := 0
		for _, x := range vals {
			sum += int(x)
			x := int(x)
			sys.Atomic(0, 0, func(tx *Tx) error {
				v.Write(tx, v.Read(tx)+x)
				return nil
			})
		}
		return v.Peek() == sum
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
