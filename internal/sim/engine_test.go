package sim

import "testing"

// at and after schedule a one-off func through a freshly registered
// handle.
func at(e *Engine, t int64, fn func()) { e.AtHandle(t, e.Register(fn)) }

func after(e *Engine, d int64, fn func()) { e.AfterHandle(d, e.Register(fn)) }

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	after(e, 30, func() { got = append(got, 3) })
	after(e, 10, func() { got = append(got, 1) })
	after(e, 20, func() { got = append(got, 2) })
	e.Run(nil)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fire order = %v, want [1 2 3]", got)
	}
	if e.Now() != 30 {
		t.Fatalf("final time = %d, want 30", e.Now())
	}
}

func TestEngineTiesBreakOnInsertionOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		at(e, 5, func() { got = append(got, i) })
	}
	e.Run(nil)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order = %v, want ascending", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []int64
	after(e, 10, func() {
		trace = append(trace, e.Now())
		after(e, 5, func() { trace = append(trace, e.Now()) })
	})
	e.Run(nil)
	if len(trace) != 2 || trace[0] != 10 || trace[1] != 15 {
		t.Fatalf("trace = %v, want [10 15]", trace)
	}
}

func TestEnginePastEventPanics(t *testing.T) {
	e := NewEngine()
	after(e, 10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		at(e, 5, func() {})
	})
	e.Run(nil)
}

func TestEngineRunStopsOnPredicate(t *testing.T) {
	e := NewEngine()
	fired := 0
	for i := 1; i <= 10; i++ {
		at(e, int64(i), func() { fired++ })
	}
	e.Run(func() bool { return fired == 3 })
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
	if len(e.events.ev) != 7 {
		t.Fatalf("pending = %d, want 7", len(e.events.ev))
	}
}

func TestEngineStepEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
}

func TestEnginePeekTime(t *testing.T) {
	e := NewEngine()
	if got := e.PeekTime(); got != NoPending {
		t.Fatalf("PeekTime on empty engine = %d, want NoPending", got)
	}
	at(e, 30, func() {})
	at(e, 10, func() {})
	at(e, 20, func() {})
	if got := e.PeekTime(); got != 10 {
		t.Fatalf("PeekTime = %d, want 10 (the earliest event)", got)
	}
	e.Step()
	if got := e.PeekTime(); got != 20 {
		t.Fatalf("PeekTime after one step = %d, want 20", got)
	}
	e.Run(nil)
	if got := e.PeekTime(); got != NoPending {
		t.Fatalf("PeekTime after drain = %d, want NoPending", got)
	}
	// Any real event time compares strictly below the sentinel, which is
	// what lets batching loops use `t < PeekTime()` without an empty check.
	if NoPending <= 1<<62 {
		t.Fatal("NoPending not above all practical event times")
	}
}

// TestEngineBatchCommitOnHorizon pins the tie-order contract horizon
// batching relies on: an event scheduled exactly AT the horizon (the
// pending event's time) fires after that pending event, because the
// pending event holds an older sequence number. A batched actor that
// stopped at the horizon and re-entered via At therefore observes the
// same order as one that had scheduled every intermediate step.
func TestEngineBatchCommitOnHorizon(t *testing.T) {
	e := NewEngine()
	var got []string
	at(e, 100, func() { got = append(got, "pending") })
	// Batched actor: skips its intermediate steps and lands on the horizon.
	at(e, 100, func() { got = append(got, "batched") })
	e.Run(nil)
	if len(got) != 2 || got[0] != "pending" || got[1] != "batched" {
		t.Fatalf("horizon tie order = %v, want [pending batched]", got)
	}
}

func TestEngineHandleScheduling(t *testing.T) {
	e := NewEngine()
	var got []string
	h := e.Register(func() { got = append(got, "h") })
	e.dispatch = func(target int32, op uint8, arg uint64) {
		got = append(got, string(rune('a'+target))+string(rune('0'+op))+string(rune('a'+arg)))
	}

	e.AtHandle(10, h)
	e.AfterHandle(20, h)
	e.atOp(15, 1, 2, 1)
	e.afterOp(5, 0, 3, 2)
	e.Run(nil)
	// t=5 op (0, 3, 2), t=10 handle, t=15 op (1, 2, 1), t=20 handle.
	want := []string{"a3c", "h", "b2b", "h"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if e.Now() != 20 {
		t.Fatalf("final time = %d, want 20", e.Now())
	}
}

func TestEngineHandlePastEventPanics(t *testing.T) {
	e := NewEngine()
	h := e.Register(func() {})
	e.dispatch = func(int32, uint8, uint64) {}
	after(e, 10, func() {
		for _, try := range []func(){
			func() { e.AtHandle(5, h) },
			func() { e.atOp(5, 0, 0, 0) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Error("handle scheduling in the past did not panic")
					}
				}()
				try()
			}()
		}
	})
	e.Run(nil)
}

// TestEngineMixedTieOrder interleaves handle and op events at one instant:
// insertion order must still be the only tiebreak, regardless of which
// scheduling API each event used.
func TestEngineMixedTieOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.dispatch = func(target int32, _ uint8, _ uint64) { got = append(got, int(target)) }
	h0 := e.Register(func() { got = append(got, 0) })
	e.AtHandle(50, h0)
	e.atOp(50, 1, 0, 0)
	at(e, 50, func() { got = append(got, 2) })
	e.atOp(50, 3, 0, 0)
	e.Run(nil)
	if len(got) != 4 {
		t.Fatalf("fired %v, want four events", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("mixed tie order = %v, want ascending", got)
		}
	}
}

// TestEngineResetKeepsNothingPending pins what a recycled engine starts
// from: time zero, an empty heap and an empty handler table.
func TestEngineResetKeepsNothingPending(t *testing.T) {
	e := NewEngine()
	after(e, 10, func() {})
	after(e, 20, func() {})
	e.Step()
	e.reset()
	if e.Now() != 0 || len(e.events.ev) != 0 || len(e.handlers) != 0 {
		t.Fatalf("after reset: now %d, pending %d, handlers %d", e.Now(), len(e.events.ev), len(e.handlers))
	}
	fired := false
	after(e, 5, func() { fired = true })
	e.Run(nil)
	if !fired || e.Now() != 5 {
		t.Fatalf("recycled engine: fired %v at %d, want true at 5", fired, e.Now())
	}
}

func TestBreakdown(t *testing.T) {
	var b Breakdown
	b.Add(CatTx, 100)
	b.Add(CatAbort, 50)
	var c Breakdown
	c.Add(CatTx, 1)
	b.Merge(&c)
	if b.Total() != 151 || b[CatTx] != 101 {
		t.Fatalf("breakdown = %v", b)
	}
	if CatScheduling.String() != "Scheduling" || CatNonTx.String() != "NonTx" {
		t.Fatal("category labels wrong")
	}
}
