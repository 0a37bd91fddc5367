package sim

import "fmt"

// ThreadState is the OS-level state of a simulated thread.
type ThreadState int

// Thread states.
const (
	ThReady ThreadState = iota
	ThRunning
	ThBlocked
	ThDone
)

// OSCosts are the kernel-mode cycle charges for scheduler operations. They
// model a Linux 2.6-era kernel on a 2 GHz core, matching the paper's
// modified 2.6.18: a full context switch is a few microseconds of work,
// sched_yield and futex wait/wake are cheaper syscalls.
type OSCosts struct {
	ContextSwitch int64 // dispatching a different thread onto a core
	Yield         int64 // sched_yield syscall
	Block         int64 // futex wait (suspending thread)
	Wake          int64 // futex wake, charged to the woken thread
	Quantum       int64 // round-robin timeslice
}

// DefaultOSCosts returns the costs used throughout the evaluation.
func DefaultOSCosts() OSCosts {
	return OSCosts{
		ContextSwitch: 3500,
		Yield:         1400,
		Block:         4000,
		Wake:          4000,
		Quantum:       2000000, // ~1 ms at 2 GHz
	}
}

// Thread is a simulated OS thread pinned to a home core.
type Thread struct {
	ID   int
	Core int

	State ThreadState
	Acct  Breakdown

	dispatchedAt  int64 // when it last got the core (for quantum)
	pendingKernel int64 // kernel cycles to charge at next dispatch (wake cost)
	wakePending   bool  // a wake arrived before the block it answers
}

// Charge adds d cycles of category c to the thread's account.
func (t *Thread) Charge(c Category, d int64) { t.Acct.Add(c, d) }

type coreState struct {
	id        int
	current   *Thread
	ready     []*Thread
	idleSince int64
	idle      int64
	everBusy  bool
	switchIn  Handle // completes the context switch to current
}

// Machine models the CPUs and the OS scheduler. The runner interacts with
// it through the Thread* methods; the machine calls OnDispatch whenever a
// thread (re)gains a core, after charging switch costs.
type Machine struct {
	Eng   *Engine
	Costs OSCosts

	// OnDispatch is invoked when a thread starts running on its core. The
	// runner resumes the thread's continuation from here.
	OnDispatch func(*Thread)

	cores   []*coreState
	threads []*Thread
	live    int // threads not Done
}

// NewMachine creates a machine with nCores cores.
func NewMachine(eng *Engine, nCores int, costs OSCosts) *Machine {
	m := &Machine{Eng: eng, Costs: costs}
	for i := 0; i < nCores; i++ {
		c := &coreState{id: i}
		c.switchIn = eng.Register(func() { m.switchedIn(c) })
		m.cores = append(m.cores, c)
	}
	return m
}

// NumCores returns the core count.
func (m *Machine) NumCores() int { return len(m.cores) }

// Threads returns all threads in creation order.
func (m *Machine) Threads() []*Thread { return m.threads }

// LiveThreads returns the number of threads that have not exited.
func (m *Machine) LiveThreads() int { return m.live }

// CurrentOn returns the thread running on core c, or nil.
func (m *Machine) CurrentOn(c int) *Thread { return m.cores[c].current }

// AddThread creates a thread pinned to the given core, initially ready.
func (m *Machine) AddThread(core int) *Thread {
	t := &Thread{ID: len(m.threads), Core: core, State: ThReady}
	m.threads = append(m.threads, t)
	m.cores[core].ready = append(m.cores[core].ready, t)
	m.live++
	return t
}

// Start dispatches every core once; call after all threads are added.
func (m *Machine) Start() {
	for _, c := range m.cores {
		c.idleSince = m.Eng.Now()
		m.dispatch(c)
	}
}

// dispatch gives the core to its next ready thread, if the core is free.
func (m *Machine) dispatch(c *coreState) {
	if c.current != nil || len(c.ready) == 0 {
		return
	}
	c.idle += m.Eng.Now() - c.idleSince
	t := c.ready[0]
	copy(c.ready, c.ready[1:])
	c.ready = c.ready[:len(c.ready)-1]
	c.current = t
	t.State = ThRunning
	cost := m.Costs.ContextSwitch + t.pendingKernel
	t.pendingKernel = 0
	t.Charge(CatKernel, cost)
	m.Eng.AfterHandle(cost, c.switchIn)
}

// switchedIn runs once the context switch to c.current has been paid for.
// The thread cannot have left the core in between: only a running thread's
// own continuation yields, blocks, exits or is preempted, and that
// continuation starts here.
func (m *Machine) switchedIn(c *coreState) {
	t := c.current
	t.dispatchedAt = m.Eng.Now()
	m.OnDispatch(t)
}

// release takes the current thread off its core and dispatches the next.
func (m *Machine) release(t *Thread) {
	c := m.cores[t.Core]
	if c.current != t {
		panic(fmt.Sprintf("sim: thread %d releasing core %d it does not hold", t.ID, t.Core))
	}
	c.current = nil
	c.idleSince = m.Eng.Now()
	c.everBusy = true
	m.dispatch(c)
}

// ThreadYield models sched_yield: the running thread goes to the back of
// its core's ready queue. The yield syscall cost is charged to the caller.
func (m *Machine) ThreadYield(t *Thread) {
	t.Charge(CatKernel, m.Costs.Yield)
	t.State = ThReady
	c := m.cores[t.Core]
	m.release(t)
	c.ready = append(c.ready, t)
	m.dispatch(c)
}

// ThreadBlock models a futex wait: the running thread leaves the core and
// will not run again until ThreadWake. If the wake already arrived (see
// ThreadWake) the wait returns at once: the thread pays for the block and
// the wake and rejoins its core's ready queue.
func (m *Machine) ThreadBlock(t *Thread) {
	t.Charge(CatKernel, m.Costs.Block)
	t.State = ThBlocked
	m.release(t)
	if t.wakePending {
		t.wakePending = false
		m.ThreadWake(t)
	}
}

// ThreadWake makes a blocked thread ready. The futex-wake cost is charged
// to the woken thread at its next dispatch. A wake that finds its thread
// still on the way to ThreadBlock — the waker ran inside the window between
// the thread's decision to sleep and the sleep itself — is remembered and
// consumed by that ThreadBlock, as a futex's value check does; dropping it
// would leave the thread asleep for good. Waking a finished thread is a
// no-op.
func (m *Machine) ThreadWake(t *Thread) {
	if t.State != ThBlocked {
		t.wakePending = t.State != ThDone
		return
	}
	t.State = ThReady
	t.pendingKernel += m.Costs.Wake
	c := m.cores[t.Core]
	c.ready = append(c.ready, t)
	m.dispatch(c)
}

// ThreadExit retires the running thread permanently.
func (m *Machine) ThreadExit(t *Thread) {
	t.State = ThDone
	m.live--
	m.release(t)
}

// ShouldPreempt reports whether the running thread has exhausted its
// quantum and another thread is waiting for the core.
func (m *Machine) ShouldPreempt(t *Thread) bool {
	return m.ShouldPreemptAt(t, m.Eng.Now())
}

// ShouldPreemptAt is ShouldPreempt evaluated at an explicit instant. The
// batched runner uses it to find the preemption boundary inside a horizon
// batch: the ready queue can only change when an event fires, so between
// Now and the engine's next event the answer depends purely on `now`.
func (m *Machine) ShouldPreemptAt(t *Thread, now int64) bool {
	c := m.cores[t.Core]
	return len(c.ready) > 0 && now-t.dispatchedAt >= m.Costs.Quantum
}

// Preempt performs an involuntary context switch of the running thread.
func (m *Machine) Preempt(t *Thread) {
	t.State = ThReady
	c := m.cores[t.Core]
	m.release(t)
	c.ready = append(c.ready, t)
	m.dispatch(c)
}

// IdleCycles returns the total cycles all cores spent with no runnable
// thread, up to the last dispatch on each core. FinishIdle should be called
// once at the end of a run to close out still-idle cores.
func (m *Machine) IdleCycles() int64 {
	var total int64
	for _, c := range m.cores {
		total += c.idle
	}
	return total
}

// FinishIdle closes the idle interval of any core that is idle at time end.
func (m *Machine) FinishIdle(end int64) {
	for _, c := range m.cores {
		if c.current == nil && c.everBusy && end > c.idleSince {
			c.idle += end - c.idleSince
			c.idleSince = end
		}
	}
}
