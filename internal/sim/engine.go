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
// sequence) order, which makes simulations deterministic.
//
// An engine normally owns its clock and sequence counter. Sharded
// simulations (see shard.go) build one engine per shard over a *shared*
// clock and sequence counter: the union of the shard heaps then behaves
// exactly like one big heap — pops take the global (time, seq) minimum,
// pushes stamp globally unique seq values in execution order — which is
// what makes the sharded run byte-identical to the sequential one.
type Engine struct {
	// now and seq point at ownNow/ownSeq for a standalone engine, or at
	// the shard set's shared clock and push counter for a lane engine.
	now    *int64
	seq    *uint64
	ownNow int64
	ownSeq uint64
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
	e := &Engine{}
	e.reset(nil, nil)
	return e
}

// reset returns the engine to time zero with no pending events and no
// registered handlers, keeping the heap's and the handler table's storage
// and the dispatcher for the next simulation. A nil clock makes it
// self-clocked; a lane engine of a sharded simulation gets the clock and
// push counter it shares with the other lanes. Step still moves the clock,
// but every lane sees the move immediately, so cross-lane scheduling
// ("wake thread 12 one cycle from now") lands at the right absolute time
// even when the target lane has not fired an event for a while.
func (e *Engine) reset(clock *int64, seq *uint64) {
	e.ownNow, e.ownSeq = 0, 0
	if clock == nil {
		clock, seq = &e.ownNow, &e.ownSeq
	}
	e.now, e.seq = clock, seq
	e.events.ev = e.events.ev[:0]
	clear(e.handlers)
	e.handlers = e.handlers[:0]
}

// Now returns the current simulated time in cycles.
func (e *Engine) Now() int64 { return *e.now }

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

// PeekKey returns the full (time, seq) ordering key of the next pending
// event, or ok=false when the heap is empty. The sharded driver uses it
// to pick the globally minimal event across lane heaps: because all lanes
// share one seq counter, comparing (time, seq) pairs across heaps yields
// exactly the order a single merged heap would produce.
//
//bfgts:allocfree
func (e *Engine) PeekKey() (t int64, seq uint64, ok bool) {
	if len(e.events.ev) == 0 {
		return 0, 0, false
	}
	head := &e.events.ev[0]
	return head.time, head.seq, true
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
	if t < *e.now {
		panic("sim: event scheduled in the past")
	}
	*e.seq++
	e.events.push(event{time: t, seq: *e.seq, h: int32(h), kind: evHandler})
}

// AfterHandle schedules a registered handler d cycles from now.
//
//bfgts:allocfree
func (e *Engine) AfterHandle(d int64, h Handle) {
	e.AtHandle(*e.now+d, h)
}

// atOp schedules the dispatcher to run (target, op, arg) at absolute time
// t. Like AtHandle it panics on a time in the past.
//
//bfgts:allocfree
func (e *Engine) atOp(t int64, target int32, op uint8, arg uint64) {
	if t < *e.now {
		panic("sim: event scheduled in the past")
	}
	*e.seq++
	e.events.push(event{time: t, seq: *e.seq, arg: arg, h: target, kind: evOp, op: op})
}

// afterOp schedules (target, op, arg) d cycles from now.
//
//bfgts:allocfree
func (e *Engine) afterOp(d int64, target int32, op uint8, arg uint64) {
	e.atOp(*e.now+d, target, op, arg)
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
	*e.now = ev.time
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
