package sched

import "repro/internal/metrics"

// ATS is Adaptive Transaction Scheduling (Yoo & Lee, SPAA 2008), the
// dynamically tuning software version the paper compares against. Each
// static transaction carries a conflict-pressure moving average; when a
// beginning transaction's pressure exceeds the threshold it must go
// through one central wait queue, executing serially with respect to every
// other high-pressure transaction. Low-pressure transactions bypass the
// queue entirely, so ATS costs almost nothing when contention is low — but
// it never learns *which* transactions conflict, so under dense contention
// it serializes everything onto one queue of sleeping threads, and kernel
// time explodes (the paper's Figure 5 Delaunay/Kmeans/Intruder bars).
type ATS struct {
	env      Env
	pressure *pressureMeter

	// Threshold is the conflict pressure above which transactions
	// serialize.
	Threshold float64

	// queue holds blocked thread IDs in arrival order; tokenOwner is the
	// thread currently allowed to run serially (-1 when none).
	queue      []int
	tokenOwner int

	// queueOpCost models the user-space critical section protecting the
	// queue (the futex costs are charged by the OS model on block/wake).
	queueOpCost int64

	// Decision-point instruments (nil = disabled, free).
	metBlocks   *metrics.Counter // begins parked on the central queue
	metSerial   *metrics.Counter // begins that took (or held) the token
	metQueueLen *metrics.Summary // queue depth observed at each block
	metAborts   *metrics.Counter
	gate        *crossingTracker
}

// NewATS returns the manager with the tuning used in the evaluation:
// history weight 0.7, serialization threshold 0.5.
func NewATS(env Env) *ATS {
	a := &ATS{
		env:         env,
		pressure:    newPressureMeter(env.NumStatic, 0.7),
		Threshold:   0.5,
		tokenOwner:  -1,
		queueOpCost: 60,
	}
	if reg := env.Metrics; reg != nil {
		a.metBlocks = reg.Counter("sched.ats.blocks")
		a.metSerial = reg.Counter("sched.ats.serial_begins")
		a.metQueueLen = reg.Summary("sched.ats.queue_depth")
		a.metAborts = reg.Counter("sched.aborts")
		a.gate = newCrossingTracker(env.NumStatic, a.Threshold,
			reg.Counter("sched.pressure.cross_up"),
			reg.Counter("sched.pressure.cross_down"))
	}
	return a
}

// Name implements Manager.
func (a *ATS) Name() string { return "ATS" }

// Pressure exposes the current conflict pressure of stx (for tests and
// diagnostics).
func (a *ATS) Pressure(stx int) float64 { return a.pressure.value(stx) }

// OnBegin implements Manager.
func (a *ATS) OnBegin(tid, stx int) BeginResult {
	if a.tokenOwner == tid {
		// Woken as the queue head (or retrying after an abort while
		// holding the token): run serially now.
		a.metSerial.Inc()
		return BeginResult{Action: Proceed, Overhead: a.queueOpCost}
	}
	if a.pressure.value(stx) <= a.Threshold {
		return BeginResult{Action: Proceed, Overhead: 8}
	}
	// High pressure: serialize through the central queue.
	if a.tokenOwner == -1 {
		a.tokenOwner = tid
		a.metSerial.Inc()
		return BeginResult{Action: Proceed, Overhead: a.queueOpCost}
	}
	a.queue = append(a.queue, tid)
	a.metBlocks.Inc()
	a.metQueueLen.Observe(float64(len(a.queue)))
	return BeginResult{
		Action:     Block,
		Overhead:   a.queueOpCost,
		Confidence: a.pressure.value(stx),
	}
}

// OnCPUSlot implements Manager: ATS keeps no CPU table.
func (a *ATS) OnCPUSlot(cpu, dtx int) {}

// OnAbort implements Manager: raise pressure and back off briefly. A
// token-holding transaction keeps the token across the retry, preserving
// its serial slot.
func (a *ATS) OnAbort(tid, stx, enemyTid, enemyStx, attempts int) AbortResult {
	a.metAborts.Inc()
	a.pressure.onConflict(stx)
	a.pressure.onConflict(enemyStx)
	if a.gate != nil {
		a.gate.observe(stx, a.pressure.value(stx))
		a.gate.observe(enemyStx, a.pressure.value(enemyStx))
	}
	shift := attempts
	if shift > 8 {
		shift = 8
	}
	return AbortResult{
		Backoff:  a.env.Rand.Int63n(200<<shift) + 1,
		Overhead: 20,
	}
}

// OnCommit implements Manager. A committing token holder hands the token
// to the next queued thread and wakes it.
func (a *ATS) OnCommit(tid, stx int, lines, writes []uint64, size int) int64 {
	a.pressure.onCommit(stx)
	if a.gate != nil {
		a.gate.observe(stx, a.pressure.value(stx))
	}
	if a.tokenOwner == tid {
		if len(a.queue) == 0 {
			a.tokenOwner = -1
		} else {
			next := a.queue[0]
			a.queue = a.queue[1:]
			a.tokenOwner = next
			a.env.Wake(next)
		}
	}
	return 15
}

// QueueLen exposes the central queue depth (for tests and diagnostics).
func (a *ATS) QueueLen() int { return len(a.queue) }

// MeanPressure implements PressureReporter.
func (a *ATS) MeanPressure() float64 { return a.pressure.mean() }
