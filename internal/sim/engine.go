// Package sim contains the deterministic discrete-event simulator that
// stands in for the paper's M5 full-system setup: an event engine, a
// machine model (in-order 1-IPC cores at 2 GHz with an overcommitted OS
// scheduler: 64 threads on 16 cores, 4 per core, round-robin quanta,
// yield/block/wake with kernel-mode cycle charges), per-thread time
// accounting in the five categories of the paper's Figure 5, and the
// transaction runner that executes STAMP-like workloads through the
// simulated LogTM (internal/tm) under a pluggable contention manager
// (internal/sched).
//
// All time is in CPU cycles. Runs are bit-reproducible: the engine is
// single-threaded and event ties break on insertion order.
package sim

// Handle names a long-lived func() registered with an engine via
// Register. Scheduling by handle keeps the event heap free of pointers,
// so sift operations are plain memmoves with no GC write barriers — the
// engine's push/pop was the hottest edge in the whole simulation profile
// before handles, and most of that was barrier bookkeeping.
type Handle int32

// Engine is a discrete-event scheduler. Events fire in (time, insertion
// sequence) order, which makes simulations deterministic. Every engine owns
// its clock and sequence counter: a sequential run has one engine, and each
// lane of a partitioned sharded run (shard.go) has its own, kept in step by
// the shard barrier. A sharded run that cannot partition falls back to the
// sequential engine.
type Engine struct {
	now    int64
	seq    uint64
	events eventHeap

	// handlers holds the registered funcs (they live until reset).
	// dispatch runs every op-coded event: target names the actor (the
	// runner's thread id), op what it does next, and arg is a value
	// snapshotted when the event was scheduled. One dispatcher per engine
	// replaces a registered closure per actor and step.
	handlers []func()
	dispatch func(target int32, op uint8, arg uint64)
}

// NewEngine returns an engine at time zero with no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// reset returns the engine to time zero with no pending events and no
// registered handlers, keeping the heap's and the handler table's storage
// and the dispatcher for the next simulation.
func (e *Engine) reset() {
	e.now, e.seq = 0, 0
	e.events.ev = e.events.ev[:0]
	clear(e.handlers)
	e.handlers = e.handlers[:0]
}

// Now returns the current simulated time in cycles.
func (e *Engine) Now() int64 { return e.now }

// NoPending is the PeekTime sentinel when no events are scheduled: any
// finite event time compares strictly below it.
const NoPending = int64(1<<63 - 1)

// PeekTime returns the time of the next pending event without firing it,
// or NoPending when the heap is empty. This is the conservative-DES
// lookahead horizon: between Now and PeekTime no event can fire, so an
// actor may execute straight-line work locally and commit the elapsed
// time with a single atOp call — as long as it stays strictly below the
// horizon, the global event order is indistinguishable from having
// scheduled every intermediate step. (Strictly: an event landing exactly
// on the horizon gets a fresh sequence number and so fires after the
// already-pending event, exactly as a newly scheduled event would have.)
//
//bfgts:allocfree
func (e *Engine) PeekTime() int64 {
	if len(e.events.ev) == 0 {
		return NoPending
	}
	return e.events.ev[0].time
}

// Register adds a long-lived handler and returns its Handle for AtHandle /
// AfterHandle scheduling. Handlers live until the engine is reset;
// register once per continuation, not per event.
func (e *Engine) Register(fn func()) Handle {
	e.handlers = append(e.handlers, fn)
	return Handle(len(e.handlers) - 1)
}

// Event kinds: a registered handler, or an op for the dispatcher.
const (
	evHandler = uint8(iota) // handlers[h]()
	evOp                    // dispatch(h, op, arg)
)

// AtHandle schedules a registered handler to run at absolute time t.
// Scheduling in the past (before Now) panics: it would silently reorder
// causality.
//
//bfgts:allocfree
func (e *Engine) AtHandle(t int64, h Handle) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	e.events.push(event{time: t, seq: e.seq, h: int32(h), kind: evHandler})
}

// AfterHandle schedules a registered handler d cycles from now.
//
//bfgts:allocfree
func (e *Engine) AfterHandle(d int64, h Handle) {
	e.AtHandle(e.now+d, h)
}

// atOp schedules the dispatcher to run (target, op, arg) at absolute time
// t. Like AtHandle it panics on a time in the past.
//
//bfgts:allocfree
func (e *Engine) atOp(t int64, target int32, op uint8, arg uint64) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	e.events.push(event{time: t, seq: e.seq, arg: arg, h: target, kind: evOp, op: op})
}

// afterOp schedules (target, op, arg) d cycles from now.
//
//bfgts:allocfree
func (e *Engine) afterOp(d int64, target int32, op uint8, arg uint64) {
	e.atOp(e.now+d, target, op, arg)
}

// Step fires the next event, if any, advancing time to it. It reports
// whether an event was fired.
//
//bfgts:allocfree
func (e *Engine) Step() bool {
	if len(e.events.ev) == 0 {
		return false
	}
	ev := e.events.pop()
	e.now = ev.time
	if ev.kind == evHandler {
		e.handlers[ev.h]()
	} else {
		e.dispatch(ev.h, ev.op, ev.arg)
	}
	return true
}

// Run fires events until none remain or until the supplied predicate (if
// non-nil) reports the simulation should stop. The predicate is evaluated
// after each event.
func (e *Engine) Run(done func() bool) {
	for e.Step() {
		if done != nil && done() {
			return
		}
	}
}

// event is a pending occurrence. It holds no pointers — h indexes the
// handler table, or names the dispatcher's target with op saying what it
// does — so the heap's backing array is never scanned by the GC and sift
// swaps compile to barrier-free copies.
type event struct {
	time int64
	seq  uint64
	arg  uint64
	h    int32
	kind uint8
	op   uint8
}

// eventHeap is a binary min-heap of events stored by value, ordered by
// (time, seq). Storing values instead of *event pointers means push/pop
// never touch the allocator once the backing array has grown to the
// simulation's churn depth: pop truncates the slice in place and push
// reuses the freed capacity. The (time, seq) order is total (seq is
// unique), so the pop sequence is identical to the previous
// container/heap-based implementation regardless of internal layout.
type eventHeap struct {
	ev []event
}

func (h *eventHeap) less(i, j int) bool {
	a, b := &h.ev[i], &h.ev[j]
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// push inserts an event and sifts it up.
//
//bfgts:allocfree
func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

// pop removes and returns the minimum event.
//
//bfgts:allocfree
func (h *eventHeap) pop() event {
	top := h.ev[0]
	n := len(h.ev) - 1
	h.ev[0] = h.ev[n]
	h.ev = h.ev[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			break
		}
		h.ev[i], h.ev[least] = h.ev[least], h.ev[i]
		i = least
	}
	return top
}
