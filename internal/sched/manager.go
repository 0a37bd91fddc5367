// Package sched contains the contention managers evaluated in the paper,
// behind one plug-in interface:
//
//   - Backoff — the reactive baseline: randomized exponential backoff on
//     abort, nothing at begin time.
//   - ATS — Adaptive Transaction Scheduling (Yoo & Lee): per-transaction
//     conflict-pressure moving average; above a threshold, transactions
//     serialize on one central queue.
//   - PTS — Proactive Transaction Scheduling (Blake et al.): per-dTxID
//     conflict graph with confidence edges, begin-time software scan of
//     running transactions, commit-time validation by Bloom intersection.
//   - BFGTS-SW / BFGTS-HW / BFGTS-HW-Backoff / BFGTS-NoOverhead — the
//     paper's contributions, built on internal/core and internal/hwaccel.
//
// A manager receives event callbacks from the runner (internal/sim) and
// returns decisions plus the cycle cost of making them, which the runner
// charges as scheduling overhead.
package sched

import (
	"math/rand"

	"repro/internal/metrics"
)

// Action is the begin-time decision of a manager.
type Action int

// Begin-time actions.
const (
	// Proceed starts the transaction immediately.
	Proceed Action = iota
	// SpinWait busy-waits until WaitDTx is no longer active, then retries
	// the begin (Example 2's stallOnTx path for small transactions).
	SpinWait
	// YieldRetry yields the CPU (pthread_yield) and retries the begin when
	// rescheduled (Example 2's path for large transactions).
	YieldRetry
	// Block suspends the thread until the manager wakes it (ATS's central
	// wait queue).
	Block
)

// BeginResult is the outcome of OnBegin.
type BeginResult struct {
	Action   Action
	WaitDTx  int   // for SpinWait: the transaction to wait out
	Overhead int64 // cycles spent deciding (charged as scheduling time)

	// Confidence and Similarity are the predictor inputs behind the
	// decision, surfaced for the decision trace (internal/decision):
	// BFGTS fills the bloom-confidence and similarity values, ATS its
	// contention intensity, PTS its confidence count. Managers without a
	// notion of either leave them zero. They carry no cycle cost and do
	// not influence the runner.
	Confidence float64
	Similarity float64
}

// AbortResult is the outcome of OnAbort.
type AbortResult struct {
	// Backoff is how many cycles to wait before retrying the transaction.
	Backoff int64
	// Overhead is the bookkeeping cost (charged as scheduling time).
	Overhead int64
}

// Manager is a pluggable contention manager. All callbacks run at
// simulated instants; implementations must be deterministic given Env.Rand.
type Manager interface {
	// Name identifies the manager in results tables.
	Name() string

	// OnBegin is consulted every time a thread attempts to start (or
	// restart, after an abort or a serialization wait) transaction stx.
	OnBegin(tid, stx int) BeginResult

	// OnCPUSlot informs the manager that the transaction occupying a CPU
	// changed: dtx is the dynamic transaction now executing on cpu, or
	// core.NoTx when the CPU stopped running a transaction (commit, abort
	// rollback start, or its thread was descheduled). This is the snoop
	// traffic that maintains CPU tables.
	OnCPUSlot(cpu, dtx int)

	// OnAbort is called after transaction (tid, stx) rolled back from a
	// conflict with (enemyTid, enemyStx); attempts counts prior attempts
	// of this execution including the aborted one.
	OnAbort(tid, stx, enemyTid, enemyStx, attempts int) AbortResult

	// OnCommit is called when (tid, stx) commits; lines lists the distinct
	// cache lines of its read/write set, writes the written subset, and
	// size is the distinct line count (which may differ from len(lines)
	// for callers that emit duplicates). The slices are scratch buffers
	// valid only for the duration of the call — managers must copy what
	// they keep. It returns the bookkeeping cost in cycles.
	OnCommit(tid, stx int, lines, writes []uint64, size int) int64
}

// Env is the runner-provided environment managers operate in.
type Env struct {
	NumCPUs    int
	NumThreads int
	NumStatic  int
	// CPUOf maps a thread to its home CPU (threads are pinned).
	CPUOf func(tid int) int
	// Wake unblocks a thread the manager previously parked with Block.
	Wake func(tid int)
	// Rand is the deterministic random source for backoff jitter.
	Rand *rand.Rand
	// Metrics, when non-nil, receives the manager's decision-point
	// instrumentation. Managers must tolerate nil (the disabled default).
	Metrics *metrics.Registry
	// LinearScan disables the Bloofi signature directory, forcing the
	// managers that keep a software CPU table (PTS, BFGTS-SW and
	// BFGTS-NoOverhead) back to the literal linear begin-time walk. The
	// directory is a host-side indexing strategy with byte-identical
	// results, so this exists for the differential tests, not as a
	// modeled-machine knob.
	LinearScan bool
	// Retired, when non-nil, lends the constructors the managers earlier
	// runs in the same domain left behind: a constructor takes the one of
	// its own type, if any, and re-initialises it in place instead of
	// allocating. The runner files each run's manager here once the run
	// has ended.
	Retired *Retired
}

// Retired holds, per recyclable manager type, the manager the last
// finished run of that type left behind. Taking one leaves the others, so
// a BFGTS survives the Backoff cells between two BFGTS cells. A Retired
// and the managers in it belong to one goroutine at a time.
type Retired struct {
	bfgts *BFGTS
	pts   *PTS
}

// Retire files m for the next constructor of its type. Managers of other
// types are dropped.
func (r *Retired) Retire(m Manager) {
	switch m := m.(type) {
	case *BFGTS:
		r.bfgts = m
	case *PTS:
		r.pts = m
	}
}

// ConfidenceReporter is an optional Manager extension exposing the mean
// conflict confidence of the learned table — the signal whose oscillation
// between serialized and optimistic phases the paper describes in §4.3.
// The time-series sampler (internal/sim) polls it when present.
type ConfidenceReporter interface {
	MeanConfidence() float64
}

// PressureReporter is an optional Manager extension exposing the mean
// ATS-style conflict pressure across static transactions. The time-series
// sampler polls it when present.
type PressureReporter interface {
	MeanPressure() float64
}
