package sched

import (
	"repro/internal/bloofi"
	"repro/internal/core"
	"repro/internal/hwaccel"
	"repro/internal/metrics"
)

// BFGTSMode selects which of the paper's four BFGTS variants a manager
// instance implements.
type BFGTSMode int

// BFGTS variants (Section 5.1).
const (
	// BFGTSSW does everything in software, including the begin-time CPU
	// table scan.
	BFGTSSW BFGTSMode = iota
	// BFGTSHW uses the hardware accelerator (internal/hwaccel) for
	// begin-time predictions.
	BFGTSHW
	// BFGTSHWBackoff is the Section 4.3 hybrid: randomized backoff while
	// conflict pressure is low, full BFGTS-HW when it is high.
	BFGTSHWBackoff
	// BFGTSNoOverhead is the limit study: every scheduling operation
	// completes in one cycle and signatures are perfect.
	BFGTSNoOverhead
)

func (m BFGTSMode) String() string {
	switch m {
	case BFGTSSW:
		return "BFGTS-SW"
	case BFGTSHW:
		return "BFGTS-HW"
	case BFGTSHWBackoff:
		return "BFGTS-HW/Backoff"
	case BFGTSNoOverhead:
		return "BFGTS-NoOverhead"
	default:
		return "BFGTS-?"
	}
}

// BFGTS is the paper's contention manager: Bloom-filter-guided transaction
// scheduling over the internal/core runtime, with optional hardware
// prediction and the optional pressure-gated hybrid mode.
type BFGTS struct {
	env  Env
	mode BFGTSMode
	rt   *core.Runtime

	// hw routes predictions to bank and CPU-slot changes to its snoop
	// broadcasts (HW modes); otherwise cpuTable is the CPU table.
	hw       bool
	bank     *hwaccel.Bank
	cpuTable []int

	// dir/probe are the Bloofi directory over the CPU table (SW modes,
	// unless Env.LinearScan): each occupied slot is indexed under the
	// folded static ID of the transaction running there, so the begin
	// scan descends only subtrees holding a suspect instead of walking
	// every entry. Results are byte-identical to the linear walk (see
	// core.PredictDir).
	//
	// A recycled BFGTS keeps the bank and the directory through runs that
	// do not use them, for the next run that does.
	dir   *bloofi.Tree
	probe *bloofi.Probe

	pressure *pressureMeter // hybrid mode only
	// PressureThreshold gates the hybrid: below it, behave like Backoff
	// (paper value 0.25 with heavy history bias).
	PressureThreshold float64

	// Decision-point instruments (nil = disabled, free).
	metPredictions *metrics.Counter // begin-time predictions made
	metSerSpin     *metrics.Counter // serializations: spin-stall kind
	metSerYield    *metrics.Counter // serializations: yield kind
	metLightBegin  *metrics.Counter // hybrid: begins that skipped prediction
	metLightCommit *metrics.Counter // hybrid: commits on the light path
	metAborts      *metrics.Counter
	gate           *crossingTracker // hybrid pressure-gate crossings

	// Directory-probe instruments (dir modes only).
	metProbeNodes *metrics.Histogram // tree nodes visited per begin probe
	metProbeCands *metrics.Histogram // candidate slots surfaced per probe
	metProbeRun   *metrics.Histogram // running-set size at probe time
}

// NewBFGTS builds a manager variant. cfg seeds the core runtime; its
// NumThreads/NumStatic are overridden from env. For BFGTSNoOverhead the
// signature and cost settings are forced to perfect/one-cycle. A BFGTS
// retired in env.Retired is taken and re-initialised in place.
func NewBFGTS(env Env, mode BFGTSMode, cfg core.Config) *BFGTS {
	var b *BFGTS
	if r := env.Retired; r != nil {
		b, r.bfgts = r.bfgts, nil
	}
	if b == nil {
		b = new(BFGTS)
	}
	b.init(env, mode, cfg)
	return b
}

// init makes b the manager NewBFGTS describes, whether b is new or
// retired: the runtime, the bank, the CPU table and the directory it
// already holds are reset in place, and everything else starts over.
func (b *BFGTS) init(env Env, mode BFGTSMode, cfg core.Config) {
	cfg.NumThreads = env.NumThreads
	cfg.NumStatic = env.NumStatic
	costs := core.DefaultCosts()
	if mode == BFGTSNoOverhead {
		cfg.Perfect = true
		costs = core.NoOverheadCosts()
	}
	rt := b.rt
	if rt == nil {
		rt = new(core.Runtime)
	}
	rt.Reset(cfg, costs)
	*b = BFGTS{
		env:               env,
		mode:              mode,
		rt:                rt,
		hw:                mode == BFGTSHW || mode == BFGTSHWBackoff,
		bank:              b.bank,
		cpuTable:          b.cpuTable,
		dir:               b.dir,
		probe:             b.probe,
		PressureThreshold: 0.25,
	}
	if b.hw {
		if b.bank == nil {
			b.bank = new(hwaccel.Bank)
		}
		b.bank.Reset(rt, env.NumCPUs, hwaccel.DefaultCacheConfig())
	} else {
		b.cpuTable = idleTable(b.cpuTable, env.NumCPUs)
		if !env.LinearScan {
			b.dir, b.probe = resetDir(b.dir, b.probe, env.NumCPUs)
		}
	}
	if mode == BFGTSHWBackoff {
		// "Heavily biases past history, therefore the frequency of
		// switching between backoff and BFGTS-HW is slow."
		b.pressure = newPressureMeter(env.NumStatic, 0.95)
	}
	reg := env.Metrics
	b.rt.SetMetrics(reg)
	if b.hw {
		b.bank.SetMetrics(reg)
	}
	b.metPredictions = reg.Counter("sched.predictions")
	b.metSerSpin = reg.Counter("sched.serialize.spin")
	b.metSerYield = reg.Counter("sched.serialize.yield")
	b.metAborts = reg.Counter("sched.aborts")
	if !b.hw && !env.LinearScan {
		b.metProbeNodes = reg.Histogram("sched.bfgts.probe.nodes")
		b.metProbeCands = reg.Histogram("sched.bfgts.probe.candidates")
		b.metProbeRun = reg.Histogram("sched.bfgts.probe.running")
	}
	if b.pressure != nil && reg != nil {
		b.metLightBegin = reg.Counter("sched.hybrid.light_begins")
		b.metLightCommit = reg.Counter("sched.hybrid.light_commits")
		b.gate = newCrossingTracker(env.NumStatic, b.PressureThreshold,
			reg.Counter("sched.pressure.cross_up"),
			reg.Counter("sched.pressure.cross_down"))
	}
}

// Name implements Manager.
func (b *BFGTS) Name() string { return b.mode.String() }

// Runtime exposes the underlying BFGTS state for reporting (similarity,
// confidence-table footprint).
func (b *BFGTS) Runtime() *core.Runtime { return b.rt }

// Mode returns the variant this instance implements.
func (b *BFGTS) Mode() BFGTSMode { return b.mode }

func (b *BFGTS) predict(tid, stx int) core.Prediction {
	cpu := b.env.CPUOf(tid)
	if b.hw {
		return b.bank.Unit(cpu).Predict(stx)
	}
	if !b.env.LinearScan {
		pred := b.rt.PredictDir(stx, b.cpuTable, cpu, b.probe)
		b.metProbeNodes.Observe(int64(b.probe.Nodes()))
		b.metProbeCands.Observe(int64(b.probe.Candidates()))
		b.metProbeRun.Observe(int64(b.dir.Len()))
		return pred
	}
	return b.rt.PredictSW(stx, b.cpuTable, cpu)
}

// OnBegin implements Manager: in hybrid mode, low conflict pressure skips
// prediction entirely; otherwise predict (Example 1), and on a predicted
// conflict run suspendTx (Example 2) to decide between spin-stall and
// yield.
func (b *BFGTS) OnBegin(tid, stx int) BeginResult {
	if b.pressure != nil && b.pressure.value(stx) <= b.PressureThreshold {
		b.metLightBegin.Inc()
		return BeginResult{Action: Proceed, Overhead: 5}
	}
	b.metPredictions.Inc()
	pred := b.predict(tid, stx)
	if !pred.Conflict {
		return BeginResult{Action: Proceed, Overhead: pred.Cycles}
	}
	self := b.rt.Config().DTx(tid, stx)
	dec := b.rt.SuspendTx(self, pred.WaitDTx)
	action := SpinWait
	if dec.Yield {
		action = YieldRetry
		b.metSerYield.Inc()
	} else {
		b.metSerSpin.Inc()
	}
	_, enemyStx := b.rt.Config().SplitDTx(pred.WaitDTx)
	return BeginResult{
		Action:     action,
		WaitDTx:    pred.WaitDTx,
		Overhead:   pred.Cycles + dec.Cycles,
		Confidence: b.rt.Conf(stx, enemyStx),
		Similarity: 0.5 * (b.rt.Similarity(self) + b.rt.Similarity(pred.WaitDTx)),
	}
}

// OnCPUSlot implements Manager: in hardware modes this is the snoop
// broadcast; in software modes the runtime's shared CPU table is updated
// directly, and the Bloofi directory (when enabled) mirrors it — occupied
// slots are indexed under the folded static ID of their transaction.
func (b *BFGTS) OnCPUSlot(cpu, dtx int) {
	if b.hw {
		if dtx == core.NoTx {
			b.bank.BroadcastEnd(cpu)
		} else {
			b.bank.BroadcastBegin(cpu, dtx)
		}
		return
	}
	b.cpuTable[cpu] = dtx
	if b.env.LinearScan {
		return
	}
	if dtx == core.NoTx {
		if b.dir.Occupied(cpu) {
			b.dir.Remove(cpu)
		}
		return
	}
	_, stx := b.rt.Config().SplitDTx(dtx)
	b.dir.Set(cpu, uint64(b.rt.Config().FoldStx(stx)))
}

// OnAbort implements Manager: txConflict (Example 3) plus a short
// randomized backoff (the underlying LogTM retry discipline).
func (b *BFGTS) OnAbort(tid, stx, enemyTid, enemyStx, attempts int) AbortResult {
	b.metAborts.Inc()
	if b.pressure != nil {
		b.pressure.onConflict(stx)
		b.pressure.onConflict(enemyStx)
		if b.gate != nil {
			b.gate.observe(stx, b.pressure.value(stx))
			b.gate.observe(enemyStx, b.pressure.value(enemyStx))
		}
	}
	self := b.rt.Config().DTx(tid, stx)
	enemy := b.rt.Config().DTx(enemyTid, enemyStx)
	cost := b.rt.TxConflict(self, enemy)
	shift := attempts
	if shift > 8 {
		shift = 8
	}
	return AbortResult{
		Backoff:  b.env.Rand.Int63n(200<<shift) + 1,
		Overhead: cost,
	}
}

// OnCommit implements Manager: commitTx (Example 4). In hybrid mode with
// low pressure the Bloom-filter work is skipped (Section 4.3).
func (b *BFGTS) OnCommit(tid, stx int, lines, writes []uint64, size int) int64 {
	self := b.rt.Config().DTx(tid, stx)
	if b.pressure != nil {
		b.pressure.onCommit(stx)
		if b.gate != nil {
			b.gate.observe(stx, b.pressure.value(stx))
		}
		if b.pressure.value(stx) <= b.PressureThreshold {
			b.metLightCommit.Inc()
			return b.rt.CommitTxLight(self, size)
		}
	}
	return b.rt.CommitTx(self, lines, writes, size).Cycles
}

// MeanConfidence implements ConfidenceReporter: the mean of the learned
// confidence table, polled by the time-series sampler.
func (b *BFGTS) MeanConfidence() float64 { return b.rt.MeanConf() }

// MeanPressure implements PressureReporter for the hybrid variant; the
// other variants keep no pressure meter and report zero.
func (b *BFGTS) MeanPressure() float64 {
	if b.pressure == nil {
		return 0
	}
	return b.pressure.mean()
}
