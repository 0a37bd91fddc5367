package stm

import (
	"sync/atomic"

	"repro/internal/metrics"
)

// stmMetrics is the System's hot-path instrumentation: a struct of atomic
// counters bumped lock-free by workers and managers. internal/metrics'
// Registry is deliberately not safe for concurrent use, so the STM counts
// here and folds into a Registry only on demand (SnapshotMetrics).
type stmMetrics struct {
	begins  atomic.Int64 // Atomic calls
	commits atomic.Int64 // committed transactions
	aborts  atomic.Int64 // aborted attempts

	// Shared abort machinery.
	backoffNanos   atomic.Int64 // total time slept in backoff
	foreignEnemies atomic.Int64 // conflicts attributed to another System's writer

	// BFGTS begin-time scheduling.
	predicted    atomic.Int64 // begin-time scans that predicted a conflict
	yields       atomic.Int64 // suspensions as yield (big enemy)
	stalls       atomic.Int64 // suspensions as spin-stall (small enemy)
	beginEscapes atomic.Int64 // watchdog escapes out of a predicting begin loop

	// BFGTS learning loop.
	confStrengthens atomic.Int64 // abort-time confidence increments
	validHits       atomic.Int64 // commit-time validations confirming a suspension
	validMisses     atomic.Int64 // commit-time validations refuting one
	simUpdates      atomic.Int64 // similarity EWMA updates (signature republishes)

	// ATS throttling.
	throttleWaits atomic.Int64 // begin-time throttle sleeps
}

// SnapshotMetrics folds the System's counters (and the manager's gauges)
// into a Registry under the "stm." prefix. The Registry is not safe for
// concurrent use: call this from one goroutine, after or between workloads.
// Counter values are cumulative since System creation, so snapshot into a
// fresh Registry (or diff) rather than folding twice into one.
func (s *System) SnapshotMetrics(reg *metrics.Registry) {
	reg.Counter("stm.begins").Add(s.met.begins.Load())
	reg.Counter("stm.commits").Add(s.met.commits.Load())
	reg.Counter("stm.aborts").Add(s.met.aborts.Load())
	reg.Counter("stm.backoff_nanos").Add(s.met.backoffNanos.Load())
	reg.Counter("stm.foreign_enemies").Add(s.met.foreignEnemies.Load())
	reg.Counter("stm.predicted_conflicts").Add(s.met.predicted.Load())
	reg.Counter("stm.yields").Add(s.met.yields.Load())
	reg.Counter("stm.stalls").Add(s.met.stalls.Load())
	reg.Counter("stm.begin_escapes").Add(s.met.beginEscapes.Load())
	reg.Counter("stm.conf_strengthens").Add(s.met.confStrengthens.Load())
	reg.Counter("stm.validation_hits").Add(s.met.validHits.Load())
	reg.Counter("stm.validation_misses").Add(s.met.validMisses.Load())
	reg.Counter("stm.sim_updates").Add(s.met.simUpdates.Load())
	reg.Counter("stm.throttle_waits").Add(s.met.throttleWaits.Load())
	var cells cellCounts
	for i := range s.workers {
		c := &s.workers[i].cells
		cells.reused += c.reused
		cells.fresh += c.fresh
		cells.dropped += c.dropped
	}
	reg.Counter("stm.cells.reused").Add(cells.reused)
	reg.Counter("stm.cells.fresh").Add(cells.fresh)
	reg.Counter("stm.cells.dropped").Add(cells.dropped)
	if cr, ok := s.mgr.(ConfidenceReporter); ok {
		reg.Gauge("stm.mean_confidence").Set(cr.MeanConfidence())
	}
	if pr, ok := s.mgr.(PressureReporter); ok {
		reg.Gauge("stm.mean_pressure").Set(pr.MeanPressure())
	}
	if m, ok := s.mgr.(*bfgtsManager); ok {
		incs, decs := m.conf.Updates()
		reg.Counter("stm.conf_incs").Add(incs)
		reg.Counter("stm.conf_decs").Add(decs)
		// Per-worker begin-scan histograms, merged here because the
		// Registry is not concurrency-safe: running slots visited per
		// begin-time prediction.
		if h := reg.Histogram("stm.predict.probe_len").Stats(); h != nil { // nil Registry: nil Stats
			for w := range m.scans {
				h.Merge(&m.scans[w].Histogram)
			}
		}
	}
}
