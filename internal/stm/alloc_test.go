package stm

import (
	"runtime"
	"testing"

	"repro/internal/core"
)

// The runtime halves of the package's allocation discipline (the static
// half is bfgtsvet's allocfree analyzer over the annotated hot paths).
// All the gates warm the pooled per-worker state first: the pools are
// explicitly allowed to allocate while growing to steady state.

// allocsDuring calls fn once to warm it, then runs times more, and returns
// the exact number of heap allocations those runs made: the total that
// testing.AllocsPerRun divides by runs and rounds down, so a gate on it
// sees one allocation in a hundred runs. Like AllocsPerRun it measures on
// one processor.
func allocsDuring(runs int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestReadOnlyPathAllocFree pins the conflict-free read path at zero
// allocations per transaction: pooled Tx, entry-slice read set, no maps.
func TestReadOnlyPathAllocFree(t *testing.T) {
	sys := NewSystem(Config{Workers: 1, StaticTxs: 1, Scheduler: SchedBFGTS})
	vars := make([]*TVar[int], 8)
	for i := range vars {
		vars[i] = NewTVar(i)
	}
	body := func(tx *Tx) error {
		n := 0
		for _, v := range vars {
			n += v.Read(tx)
		}
		if n < 0 {
			t.Fatal("impossible sum")
		}
		return nil
	}
	run := func() {
		if err := sys.Atomic(0, 0, body); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm pooled capacities
	if allocs := allocsDuring(200, run); allocs != 0 {
		t.Fatalf("200 read-only transactions allocated %d objects, want 0", allocs)
	}
}

// wide is a multi-word value type for the gates below: it cannot ride in
// an interface word, and its fields stay above the runtime's cache of
// boxed small integers, so any boxing on the value path shows up as an
// allocation instead of hiding.
type wide struct {
	a, b, c uint64
}

func (w wide) next() wide { return wide{w.a + 1, w.b + 1000, w.c + 1000000} }

// TestAbortRetryPathAllocFree pins the whole begin→abort→retry→commit
// cycle at zero allocations under every manager: a read-only transaction
// deterministically doomed on its first attempt by a nested conflicting
// write-commit. The aborted attempt, the txAbort unwind (a zero-size panic
// value), OnAbort's confidence update, backoff, the retry, and the nested
// bump — its Write takes a recycled cell, its commit retires the one it
// displaces — all contribute nothing.
func TestAbortRetryPathAllocFree(t *testing.T) {
	for _, kind := range []SchedulerKind{SchedBackoff, SchedATS, SchedBFGTS} {
		t.Run(kind.String(), func(t *testing.T) {
			sys := NewSystem(Config{Workers: 2, StaticTxs: 2, Scheduler: kind})
			shared := NewTVar(wide{a: 1 << 20, b: 1 << 21, c: 1 << 22})
			bump := func() {
				err := sys.Atomic(1, 1, func(tx *Tx) error {
					shared.Write(tx, shared.Read(tx).next())
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			attempts := 0
			run := func() {
				attempts = 0
				err := sys.Atomic(0, 0, func(tx *Tx) error {
					attempts++
					got := shared.Read(tx)
					if attempts == 1 {
						bump() // nested same-goroutine commit dooms this attempt
						if again := shared.Read(tx); again != got {
							t.Fatal("doomed re-read returned inconsistent data")
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if attempts < 2 {
					t.Fatal("conflict injection did not force a retry")
				}
			}
			for i := 0; i < 30; i++ {
				run() // warm pools, goroutine timer, signature batching
			}
			if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
				t.Fatalf("abort/retry/commit cycle allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// TestCommitPathAllocs pins the write-commit path at zero allocations for
// word-sized and multi-word values alike: every Write reuses a cell an
// earlier commit displaced.
func TestCommitPathAllocs(t *testing.T) {
	sys := NewSystem(Config{Workers: 1, StaticTxs: 1, Scheduler: SchedBFGTS})
	ints := make([]*TVar[int], 4)
	for i := range ints {
		ints[i] = NewTVar(1000 * (i + 1))
	}
	wides := make([]*TVar[wide], 4)
	for i := range wides {
		wides[i] = NewTVar(wide{a: 300, b: 400, c: 500})
	}
	run := func() {
		err := sys.Atomic(0, 0, func(tx *Tx) error {
			for _, v := range ints {
				v.Write(tx, v.Read(tx)+257)
			}
			for _, v := range wides {
				v.Write(tx, v.Read(tx).next())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		run()
	}
	if allocs := allocsDuring(100, run); allocs != 0 {
		t.Fatalf("100 commits of %d writes allocated %d objects, want 0", len(ints)+len(wides), allocs)
	}
	if got := ints[0].Peek(); got != 1000+257*131 {
		t.Fatalf("ints[0] = %d after 131 commits, want %d", got, 1000+257*131)
	}
}

// TestPredictPathAllocFree pins the BFGTS begin-time prediction at zero
// allocations per call: the walk over the running slots, a hit and a miss,
// with the slot stores between them. The walk is the only predictor; its
// subtest keeps the name it had when it was the linear fallback beside the
// Bloofi directory.
func TestPredictPathAllocFree(t *testing.T) {
	t.Run("linear", func(t *testing.T) {
		sys := NewSystem(Config{Workers: 8, StaticTxs: 4, Scheduler: SchedBFGTS})
		m := sys.mgr.(*bfgtsManager)
		// Learned confidence so the walk has enemies to find.
		m.conf.Add(0, 1, 1.0)
		m.conf.Add(0, 2, 1.0)
		run := func() {
			sys.setRunning(3, 1)
			sys.setRunning(5, 2)
			sys.setRunning(6, 3)
			if enemy := m.predict(0, 0); enemy < 0 {
				t.Fatal("saturated confidence predicted no enemy")
			}
			sys.setRunning(3, core.NoTx)
			sys.setRunning(5, core.NoTx)
			sys.setRunning(6, core.NoTx)
			if m.predict(0, 0) >= 0 {
				t.Fatal("empty machine predicted an enemy")
			}
		}
		run() // warm
		if allocs := allocsDuring(200, run); allocs != 0 {
			t.Fatalf("200 predict cycles allocated %d objects, want 0", allocs)
		}
	})
}
