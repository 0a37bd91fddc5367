package sim

import "testing"

// testRunner gives each thread a simple script of compute bursts separated
// by OS calls, driven through Machine.OnDispatch.
type testRunner struct {
	m     *Machine
	steps map[int][]func(t *Thread) // per-thread remaining actions
}

func (r *testRunner) dispatch(t *Thread) {
	s := r.steps[t.ID]
	if len(s) == 0 {
		r.m.ThreadExit(t)
		return
	}
	r.steps[t.ID] = s[1:]
	s[0](t)
}

func newHarness(nCores int) (*Engine, *Machine, *testRunner) {
	e := NewEngine()
	m := NewMachine(e, nCores, OSCosts{ContextSwitch: 10, Yield: 5, Block: 7, Wake: 7, Quantum: 1000})
	r := &testRunner{m: m, steps: map[int][]func(*Thread){}}
	m.OnDispatch = r.dispatch
	return e, m, r
}

// compute returns a step that burns d cycles of CatNonTx then re-enters the
// dispatcher as if the thread were still running (next step fires
// immediately).
func compute(e *Engine, r *testRunner, d int64) func(*Thread) {
	return func(t *Thread) {
		t.Charge(CatNonTx, d)
		e.After(d, func() { r.dispatch(t) })
	}
}

func TestMachineRunsSingleThread(t *testing.T) {
	e, m, r := newHarness(1)
	th := m.AddThread(0)
	r.steps[th.ID] = []func(*Thread){compute(e, r, 100), compute(e, r, 200)}
	m.Start()
	e.Run(nil)
	if th.State != ThDone {
		t.Fatalf("thread state = %v, want done", th.State)
	}
	if th.Acct[CatNonTx] != 300 {
		t.Fatalf("nontx cycles = %d, want 300", th.Acct[CatNonTx])
	}
	if th.Acct[CatKernel] != 10 { // one context switch at start
		t.Fatalf("kernel cycles = %d, want 10", th.Acct[CatKernel])
	}
	if m.LiveThreads() != 0 {
		t.Fatal("live thread count not zero after exit")
	}
}

func TestMachineTwoThreadsShareCoreViaYield(t *testing.T) {
	e, m, r := newHarness(1)
	a := m.AddThread(0)
	b := m.AddThread(0)
	var order []int
	mark := func(t *Thread) {
		order = append(order, t.ID)
		m.ThreadYield(t)
	}
	r.steps[a.ID] = []func(*Thread){mark, mark}
	r.steps[b.ID] = []func(*Thread){mark, mark}
	m.Start()
	e.Run(nil)
	want := []int{0, 1, 0, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("interleave = %v, want %v", order, want)
		}
	}
}

func TestMachineBlockWake(t *testing.T) {
	e, m, r := newHarness(1)
	a := m.AddThread(0)
	b := m.AddThread(0)
	var trace []string
	r.steps[a.ID] = []func(*Thread){
		func(t *Thread) { trace = append(trace, "a-block"); m.ThreadBlock(t) },
		func(t *Thread) { trace = append(trace, "a-resumed"); m.ThreadExit(t) },
	}
	r.steps[b.ID] = []func(*Thread){
		func(t *Thread) {
			trace = append(trace, "b-wakes-a")
			m.ThreadWake(a)
			m.ThreadExit(t)
		},
	}
	m.Start()
	e.Run(nil)
	if len(trace) != 3 || trace[0] != "a-block" || trace[1] != "b-wakes-a" || trace[2] != "a-resumed" {
		t.Fatalf("trace = %v", trace)
	}
	if a.Acct[CatKernel] == 0 {
		t.Fatal("block/wake charged no kernel time")
	}
}

// A wake that overtakes the block it answers is consumed by that block:
// the thread pays for both and comes straight back instead of sleeping
// forever.
func TestMachineWakeBeforeBlockIsRemembered(t *testing.T) {
	e, m, r := newHarness(1)
	a := m.AddThread(0)
	resumed := false
	r.steps[a.ID] = []func(*Thread){
		func(t *Thread) {
			m.ThreadWake(t) // the waker got there first
			m.ThreadBlock(t)
		},
		func(t *Thread) { resumed = true; m.ThreadExit(t) },
	}
	m.Start()
	e.Run(nil)
	if !resumed || a.State != ThDone {
		t.Fatalf("thread slept through a wake that preceded its block (state %v)", a.State)
	}
	// Two context switches (10 each), the block (7) and the wake (7).
	if a.Acct[CatKernel] != 34 {
		t.Fatalf("kernel cycles = %d, want 34 (block + wake + two switches)", a.Acct[CatKernel])
	}
}

func TestMachineWakeNonBlockedIsNoop(t *testing.T) {
	e, m, r := newHarness(1)
	a := m.AddThread(0)
	r.steps[a.ID] = []func(*Thread){func(t *Thread) {
		m.ThreadWake(t) // running: nothing to make ready
		m.ThreadExit(t)
	}}
	m.Start()
	e.Run(nil)
	if a.State != ThDone {
		t.Fatal("thread did not exit cleanly")
	}
}

func TestMachinePreemption(t *testing.T) {
	e, m, r := newHarness(1)
	a := m.AddThread(0)
	b := m.AddThread(0)
	// a computes past the quantum, then checks preemption.
	r.steps[a.ID] = []func(*Thread){
		func(t *Thread) {
			t.Charge(CatNonTx, 2000)
			e.After(2000, func() {
				if !m.ShouldPreempt(t) {
					panic("expected preemption to be due")
				}
				m.Preempt(t)
			})
		},
		func(t *Thread) { m.ThreadExit(t) },
	}
	r.steps[b.ID] = []func(*Thread){func(t *Thread) { m.ThreadExit(t) }}
	m.Start()
	e.Run(nil)
	if a.State != ThDone || b.State != ThDone {
		t.Fatalf("states: a=%v b=%v", a.State, b.State)
	}
}

func TestMachineShouldPreemptRequiresWaiter(t *testing.T) {
	e, m, r := newHarness(1)
	a := m.AddThread(0)
	r.steps[a.ID] = []func(*Thread){func(t *Thread) {
		t.Charge(CatNonTx, 5000)
		e.After(5000, func() {
			if m.ShouldPreempt(t) {
				panic("preemption signalled with empty ready queue")
			}
			m.ThreadExit(t)
		})
	}}
	m.Start()
	e.Run(nil)
}

func TestMachineIdleAccounting(t *testing.T) {
	e, m, r := newHarness(2)
	a := m.AddThread(0) // core 1 never has threads
	r.steps[a.ID] = []func(*Thread){compute(e, r, 100)}
	m.Start()
	e.Run(nil)
	m.FinishIdle(e.Now())
	// Core 0 idles after a exits; core 1 never ran anything and reports no
	// idle (it was never busy).
	if m.IdleCycles() != 0 {
		t.Fatalf("idle = %d, want 0 (cores that never ran work are excluded)", m.IdleCycles())
	}
}

func TestMachineMultiCoreParallelism(t *testing.T) {
	e, m, r := newHarness(4)
	for c := 0; c < 4; c++ {
		th := m.AddThread(c)
		r.steps[th.ID] = []func(*Thread){compute(e, r, 1000)}
	}
	m.Start()
	e.Run(nil)
	// All four ran in parallel: finish time ~ 1000 + switch cost, not 4000.
	if e.Now() > 1100 {
		t.Fatalf("4 independent threads on 4 cores took %d cycles", e.Now())
	}
}
