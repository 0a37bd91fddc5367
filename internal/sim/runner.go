package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tm"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TMCosts are the transactional-machinery latencies of the simulated LogTM.
type TMCosts struct {
	Begin  int64 // register checkpoint + mode switch at TX_BEGIN
	Commit int64 // flash-clear of read/write bits at commit
	Access int64 // one transactional load/store (L1 hit)
	// RollbackBase + RollbackPerLine*writes is the undo-log walk.
	RollbackBase    int64
	RollbackPerLine int64
	// StallTimeout is how long a NACKed requester stalls before giving up
	// and aborting — LogTM's conservative possible-cycle discipline plus
	// the OS's unwillingness to leave a core spinning.
	StallTimeout int64
}

// DefaultTMCosts returns the latencies used in the evaluation.
func DefaultTMCosts() TMCosts {
	return TMCosts{
		Begin:           8,
		Commit:          12,
		Access:          1,
		RollbackBase:    40,
		RollbackPerLine: 10,
		StallTimeout:    800,
	}
}

// RunConfig describes one simulation.
type RunConfig struct {
	Cores          int
	ThreadsPerCore int
	OSCosts        OSCosts
	TMCosts        TMCosts
	Seed           uint64

	Workload   workload.Workload
	NewManager func(env sched.Env) sched.Manager

	// ProfileSimilarity tracks exact per-static-transaction similarity
	// (Equation 1) for the Table 1 reproduction. Off by default; it costs
	// host time, not simulated cycles.
	ProfileSimilarity bool

	// MaxCycles aborts the simulation if it runs past this time (live-lock
	// guard). Zero means no limit.
	MaxCycles int64

	// NonTxChunk is the largest uninterrupted slice of non-transactional
	// compute between preemption checks.
	NonTxChunk int64

	// Trace, if non-nil, records per-transaction lifecycle events.
	Trace *trace.Recorder

	// Metrics, if non-nil, receives scheduler-internals instrumentation
	// from every layer (manager decision points, core confidence updates,
	// hardware caches, Bloom occupancy) plus the runner's own
	// prediction-quality accounting and time-series sampler. Nil disables
	// all of it at zero cost.
	Metrics *metrics.Registry

	// SampleInterval is the simulated-cycle period of the time-series
	// sampler (pressure / mean confidence / abort-rate EWMA). Zero means
	// DefaultSampleInterval. Only active when Metrics is set.
	SampleInterval int64

	// Shards splits the single simulation into per-shard engine/machine
	// lanes, each owning a contiguous core range, executed concurrently
	// under the conservative-PDES protocol in shard.go. That needs a
	// workload implementing workload.Sharder under a sched.ShardSafe
	// manager; any other configuration falls back to the sequential engine.
	// Output is byte-identical to Shards == 1 at any shard count (pinned by
	// the sharded differential tests and the check.sh cmp gate). Zero or one
	// means unsharded.
	Shards int

	// Decisions, if non-nil, receives one record per scheduling decision
	// (serialize-vs-proceed at begin, stall on NACK) into the per-thread
	// shards; it must have at least Cores*ThreadsPerCore shards. Recording
	// only observes the run — it charges no cycles, draws no randomness,
	// and schedules no events, so a run with Decisions set is cycle-
	// identical to one without (pinned by TestDecisionsDoNotPerturb).
	Decisions *decision.Set

	// FlipBegin, when positive, inverts the manager's decision at the
	// FlipBegin'th OnBegin call (1-based, counted across all threads in
	// engine order): Proceed becomes YieldRetry, SpinWait/YieldRetry
	// become Proceed. Block is left unchanged — undoing the central-queue
	// handshake would desynchronize the manager. This is the counterfactual
	// replay hook (ReplayFlips): re-running the same seed with one decision
	// flipped measures exactly what that decision cost.
	FlipBegin int64
}

// DefaultSampleInterval is the sampler period in simulated cycles.
const DefaultSampleInterval = 100_000

// predWaitCap bounds how many waited-on transactions one execution records
// for prediction-quality classification; beyond it, further serializations
// still count but are not classified.
const predWaitCap = 8

// Result is everything one simulation measured.
type Result struct {
	ManagerName  string
	WorkloadName string

	Makespan int64 // cycles from start to last thread exit
	Commits  int64
	Aborts   int64

	// Breakdown aggregates all thread cycle charges plus core idle time.
	Breakdown Breakdown

	// ConflictMatrix counts conflicts between static transaction pairs.
	ConflictMatrix [][]int64
	// CommitsPerStx counts commits per static transaction.
	CommitsPerStx []int64
	// Similarity is the measured mean Eq. 1 similarity per static
	// transaction (only when ProfileSimilarity was set).
	Similarity []float64

	// Latency holds, per static transaction, the distribution of
	// execution latencies: cycles from the first begin attempt of an
	// execution to its commit, including all aborted attempts, waits and
	// backoffs.
	Latency []stats.Histogram

	// AttemptsPerCommit summarizes how many attempts each committed
	// execution needed (1 = first try). In partitioned sharded runs the
	// per-shard summaries are folded with stats.Summary.Merge, whose
	// Welford recombination can differ from the sequential sample order in
	// the last float64 bits; every integer field (N, Min, Max) and every
	// other Result field is exactly identical.
	AttemptsPerCommit stats.Summary

	// TimedOut reports the MaxCycles guard fired before completion.
	TimedOut bool

	// Deadlocked is non-nil when the run stopped with work left: every
	// event heap drained while threads were still alive, so nothing could
	// ever run them again. Such a Result is a diagnostic, not a
	// measurement — its counts are whatever had happened by then.
	Deadlocked *Deadlock `json:",omitempty"`

	// Metrics is the final snapshot of the run's registry (nil when
	// RunConfig.Metrics was nil).
	Metrics *metrics.Snapshot
}

// Deadlock lists the threads a drained simulation left behind.
type Deadlock struct {
	Parked []ParkedThread
}

// ParkedThread is one live thread of a deadlocked run and what it was
// waiting in: its OS state (ready, running, blocked) and, when it was
// spinning inside the TM, on what.
type ParkedThread struct {
	Tid  int
	Wait string
}

// Error renders the deadlock as a one-line diagnostic.
func (d *Deadlock) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "simulation deadlocked: event heap drained with %d live thread(s):", len(d.Parked))
	for i, p := range d.Parked {
		if i == 8 {
			fmt.Fprintf(&b, " … (%d more)", len(d.Parked)-i)
			break
		}
		fmt.Fprintf(&b, " t%d %s;", p.Tid, p.Wait)
	}
	return b.String()
}

// ContentionPct is Table 4's metric: the percentage of transaction
// executions that aborted.
func (r *Result) ContentionPct() float64 {
	total := r.Commits + r.Aborts
	if total == 0 {
		return 0
	}
	return 100 * float64(r.Aborts) / float64(total)
}

type threadState int

const (
	stIdle      threadState = iota // between program steps
	stBeginSpin                    // spin-waiting at begin behind a dTx
	stLineStall                    // NACKed, spinning on a line
)

type threadCtx struct {
	tid  int
	th   *Thread
	prog workload.Program

	// lane is the engine/machine shard this thread runs on; dom is the
	// conflict-detection/scheduling domain it belongs to. A sequential run
	// has one lane and one domain; partitioned runs pair lane i with
	// domain i.
	lane *laneState
	dom  *domainState

	resume uint8 // op to run when (re)dispatched

	// Current transaction execution.
	desc     *workload.TxDesc
	attempts int
	tx       *tm.Tx
	accIdx   int
	gap      int64 // compute cycles between accesses
	txCycles int64 // CatTx cycles charged this attempt (recategorized on abort)

	pendingPre int64 // non-transactional cycles left before the next tx
	execStart  int64 // when the first begin attempt of this execution ran

	state      threadState
	waitGen    uint64
	holder     *tm.Tx // line-stall target
	waitDTx    int    // begin-spin target
	chargeMark int64  // start of the current spin charging interval

	// Threads waiting out this thread's current transaction, in arrival
	// order: NACKed requesters spinning on one of its lines, and begins
	// spinning behind its dTxID. A thread runs one transaction at a time
	// and the lists empty when it ends, so they hang off the thread and
	// keep their capacity from one transaction to the next.
	stallWaiters []*threadCtx
	beginWaiters []*threadCtx

	// beginRes is the pending begin decision, acted on by opBeginAct. At
	// most one control-flow event is pending per thread, so a plain field
	// suffices; values that must be snapshotted when an event is scheduled
	// (the wait generation of the guarded checks, beginSpin's target and
	// grace) ride in the event's arg.
	beginRes sched.BeginResult
	// batchHolder carries the NACKing transaction from a horizon-batched
	// access to the stall continuation that re-enters the engine at the
	// access's logical completion time. No pin is needed: the completion
	// time is strictly below the horizon, so the holder cannot finish
	// before the continuation fires.
	batchHolder *tm.Tx

	// Decision-trace state (only live when RunConfig.Decisions is set).
	// dec is this thread's shard; the tokens reference pending records:
	// the open proceed decision (settled at commit/abort), the latest
	// serialize decision (wait settled at the next tryBegin, outcome at
	// commit via decSer), and the open NACK stall.
	dec           *decision.Recorder
	decBeginTok   int
	decSerTok     int
	decSerStart   int64
	decStallTok   int
	decStallStart int64
	beginIndex    int64 // global OnBegin index of the current attempt

	ctxScratch
}

// Thread ops: what a thread does when its engine event fires. The first
// four are also the resume ops a thread runs when the machine hands it its
// core back.
const (
	opFetchNext    = uint8(iota) // fetch the next transaction
	opNonTx                      // continue the pre-transaction compute
	opTryBegin                   // consult the contention manager
	opStepAccess                 // continue the transaction body
	opNonTxStep                  // a compute chunk ended: preempt or go on
	opBeginAct                   // act on beginRes once its overhead elapsed
	opBeginSpin                  // grace recheck; arg packs (target, grace)
	opAccess                     // the per-event access completes
	opPostAccess                 // quantum check after a batched access
	opBatchStall                 // a batched access was NACKed by batchHolder
	opCommit                     // the hardware commit latency elapsed
	opPostCommit                 // the manager's commit overhead elapsed
	opRollback                   // the undo-log walk elapsed
	opPostAbort                  // the manager's backoff elapsed
	opAbort                      // roll the transaction back
	opSpinCheck                  // begin-spin preemption check; arg: generation
	opStallTimeout               // NACK stall budget ran out; arg: generation
)

// step is every engine's dispatcher: it runs one op of thread tid.
func (r *Runner) step(tid int32, op uint8, arg uint64) {
	ctx := &r.ctxs[tid]
	switch op {
	case opFetchNext:
		r.fetchNext(ctx)
	case opNonTx:
		r.runNonTx(ctx)
	case opTryBegin:
		r.tryBegin(ctx)
	case opStepAccess:
		r.stepAccess(ctx)
	case opNonTxStep:
		r.resumeWith(ctx, opNonTx)
	case opBeginAct:
		r.actOnBegin(ctx)
	case opBeginSpin:
		r.beginSpin(ctx, int(int32(arg)), int(arg>>32))
	case opAccess:
		r.performAccess(ctx)
	case opPostAccess:
		r.resumeWith(ctx, opStepAccess)
	case opBatchStall:
		holder := ctx.batchHolder
		ctx.batchHolder = nil
		r.lineStall(ctx, holder)
	case opCommit:
		r.finishCommit(ctx)
	case opPostCommit:
		r.resumeWith(ctx, opFetchNext)
	case opRollback:
		r.finishAbort(ctx)
	case opPostAbort:
		r.resumeWith(ctx, opTryBegin)
	case opAbort:
		r.abortTx(ctx)
	case opSpinCheck:
		r.beginSpinCheck(ctx, arg)
	case opStallTimeout:
		r.stallTimeout(ctx, arg)
	}
}

// resumeWith makes op the thread's resume op, lets the OS preempt the
// thread if its quantum expired, and otherwise runs op at once.
func (r *Runner) resumeWith(ctx *threadCtx, op uint8) {
	ctx.resume = op
	if r.maybePreempt(ctx) {
		return
	}
	r.step(int32(ctx.tid), op, 0)
}

// at schedules op for the thread at absolute time t on its lane.
func (c *threadCtx) at(t int64, op uint8, arg uint64) {
	c.lane.eng.atOp(t, int32(c.tid), op, arg)
}

// after schedules op for the thread d cycles from now on its lane.
func (c *threadCtx) after(d int64, op uint8, arg uint64) {
	c.lane.eng.afterOp(d, int32(c.tid), op, arg)
}

// ctxScratch holds a thread context's reusable allocations: the commit-path
// line buffers, the prediction-classification slots, the exact-similarity
// profiler's sets and scratch filters, and the access buffer lent to the
// thread's program. It lives in the runner shell's thread slab, so
// repeated simulations in one process (parameter sweeps, the harness's
// cells) stop paying per-thread warm-up allocations.
type ctxScratch struct {
	linesBuf  []uint64 // distinct read/write-set lines of the committing tx
	writesBuf []uint64 // written subset

	// predWaits holds the transactions this execution serialized behind on
	// a predicted conflict, classified true/false at commit (metrics only).
	// Each entry is pinned in the TM so its line sets survive until then.
	predWaits []*tm.Tx

	// decSer holds this execution's pending serialize decisions for the
	// decision trace: the record token plus the pinned enemy, settled
	// justified/overcautious at commit exactly like predWaits.
	decSer []pendingSer

	// Exact-similarity profiling.
	prevSet map[int]*bloom.ExactSet // per stx: previous committed set
	sizeSum map[int]float64
	sizeCnt map[int]int64
	setFree []*bloom.ExactSet // recycled sets displaced from prevSet
	estFA   *bloom.Filter     // scratch filters for Eq. 3 error profiling
	estFB   *bloom.Filter

	acc []workload.Access // the program's access buffer, while not lent out
}

// pendingSer is one unsettled serialize decision: its record token and
// the pinned transaction it waited behind.
type pendingSer struct {
	tok int
	wtx *tm.Tx
}

// reset empties the scratch, keeping capacity, and builds the profiling
// maps if exact-similarity profiling is on and they do not exist yet.
func (s *ctxScratch) reset(profile bool) {
	s.linesBuf = s.linesBuf[:0]
	s.writesBuf = s.writesBuf[:0]
	for i := range s.predWaits {
		s.predWaits[i] = nil
	}
	s.predWaits = s.predWaits[:0]
	for i := range s.decSer {
		s.decSer[i] = pendingSer{}
	}
	s.decSer = s.decSer[:0]
	// Recycled sets are reset and therefore interchangeable: the free
	// list's order never reaches an output, so the map's iteration order
	// cannot break byte-identical results (sync.Pool handout order is
	// already nondeterministic one level up).
	//bfgts:ignore determinism recycled sets are value-identical after Reset
	for stx, set := range s.prevSet {
		set.Reset()
		s.setFree = append(s.setFree, set)
		delete(s.prevSet, stx)
	}
	clear(s.sizeSum)
	clear(s.sizeCnt)
	if profile && s.prevSet == nil {
		s.prevSet = make(map[int]*bloom.ExactSet)
		s.sizeSum = make(map[int]float64)
		s.sizeCnt = make(map[int]int64)
	}
}

func (s *ctxScratch) getExactSet() *bloom.ExactSet {
	if n := len(s.setFree); n > 0 {
		set := s.setFree[n-1]
		s.setFree[n-1] = nil
		s.setFree = s.setFree[:n-1]
		return set
	}
	return bloom.NewExactSet()
}

func (s *ctxScratch) putExactSet(set *bloom.ExactSet) {
	set.Reset()
	s.setFree = append(s.setFree, set)
}

// runMode selects how the lanes execute (see shard.go for the sharded
// driver and the protocol description).
type runMode int

const (
	// modeSeq is the classic single-lane, single-domain run.
	modeSeq runMode = iota
	// modePartitioned runs per-shard engines, machines AND domains (line
	// directory, manager, waiter queues, accumulators) on concurrent
	// goroutines under the conservative lookahead barrier.
	modePartitioned
)

// laneState is one simulation shard's execution resources: its event
// engine, its slice of the machine's cores, and the per-lane bookkeeping
// that used to live directly on Runner.
type laneState struct {
	idx      int
	coreBase int // absolute CPU id of the lane's first core
	eng      *Engine
	mac      *Machine

	// batchNow is the logical time of the access currently executing
	// inside a horizon batch on this lane (0 when no batch is in flight):
	// the engine clock still reads the batch's start time, so code that
	// can run underneath a batched access — the remote-doom hook — must
	// take its timestamps from nowFor, not Engine.Now.
	batchNow int64

	makespan int64 // set when the lane's last thread exits
	timedOut bool

	dom *domainState // the domain this lane's threads belong to

	// shard is the partitioned-mode coupling (barrier slot, probe rings,
	// message counters); nil in a sequential run.
	shard *laneShard
}

// domainState is one conflict-detection and scheduling domain: the line
// directory, the contention manager and its CPU table, the waiter queues,
// and every accumulator that feeds the Result. A sequential run has exactly
// one domain; partitioned runs give each lane its own and merge them
// deterministically afterwards.
type domainState struct {
	sys *tm.System
	mgr sched.Manager
	rng *rand.Rand // the manager's Env.Rand, reseeded for every run
	// retired keeps, per recyclable manager type, the manager an earlier
	// run in this domain left, for the constructor (Env.Retired) to reset
	// in place.
	retired sched.Retired

	cpuSlot []int

	simSum        []float64
	simCnt        []int64
	commitsPerStx []int64
	latency       []stats.Histogram
	attempts      stats.Summary

	// beginCalls counts OnBegin consultations across the domain's threads
	// in engine order — the coordinate system of RunConfig.FlipBegin and
	// of every begin record's BeginIndex (both only used in sequential
	// runs, where it matches the historical global counter exactly).
	beginCalls int64

	// Prediction-quality accounting and the time-series sampler (only
	// wired when the domain has a registry; all instruments are nil-safe).
	reg          *metrics.Registry
	metPredSer   *metrics.Counter // serializations on a predicted conflict
	metPredTrue  *metrics.Counter // ...whose counterparty really overlapped
	metPredFalse *metrics.Counter // ...that waited on a non-overlapping tx
	metPrecision *metrics.Gauge
	metEstErr    *metrics.Summary // Eq. 3 estimate error vs exact intersection
	predTrue     int64
	predFalse    int64
	tsPressure   *metrics.Series
	tsConf       *metrics.Series
	tsAbortRate  *metrics.Series
	lastCommits  int64
	lastAborts   int64
	abortEwma    float64
}

// bindInstruments acquires the domain's instruments once, at construction
// time; every hot-path record goes through the cached pointers.
func (dom *domainState) bindInstruments() {
	reg := dom.reg
	if reg == nil {
		return
	}
	dom.metPredSer = reg.Counter("sim.pred.serializations")
	dom.metPredTrue = reg.Counter("sim.pred.true")
	dom.metPredFalse = reg.Counter("sim.pred.false")
	dom.metPrecision = reg.Gauge("sim.pred.precision")
	dom.metEstErr = reg.Summary("bloom.est_error")
	dom.tsPressure = reg.Series("ts.pressure", metrics.DefaultSeriesCap)
	dom.tsConf = reg.Series("ts.mean_confidence", metrics.DefaultSeriesCap)
	dom.tsAbortRate = reg.Series("ts.abort_rate", metrics.DefaultSeriesCap)
}

// Runner executes a workload through the TM under a contention manager.
type Runner struct {
	cfg  RunConfig
	mode runMode

	lanes []*laneState
	doms  []*domainState
	ctxs  []threadCtx

	// noBatch takes the per-event path for every access and compute chunk
	// instead of horizon batching. Results are identical either way; the
	// batch differentials set it between NewRunner and Run.
	noBatch bool

	// Time-series sampler: a registered handle rescheduling itself.
	sampleEvery int64
	sampleH     Handle

	// The managers' Env callbacks, bound once per shell.
	cpuOfFn func(tid int) int
	wakeFn  func(tid int)
}

// shellPool holds runner shells between simulations: everything a Runner
// builds for a cell — lanes with their engines and machines, domains with
// their TM systems and manager RNGs, the thread slab with its scratch and
// the programs' access buffers — is reset in place by the next NewRunner
// instead of being rebuilt. A shell goes back at the end of Run, after the
// Result has copied everything it keeps: a Result never aliases a shell.
var shellPool sync.Pool // of *Runner

// newShell builds an empty shell and binds its hooks.
func newShell() *Runner {
	r := &Runner{}
	r.cpuOfFn = func(tid int) int { return tid % r.cfg.Cores }
	r.wakeFn = func(tid int) {
		c := &r.ctxs[tid]
		c.lane.mac.ThreadWake(c.th)
	}
	return r
}

// resize returns s with length n and every element zero, reusing its
// storage when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// NewRunner wires up a simulation in a recycled shell. Call Run, once, to
// execute it: Run hands the shell back for the next NewRunner.
func NewRunner(cfg RunConfig) *Runner {
	if cfg.NonTxChunk == 0 {
		cfg.NonTxChunk = 20000
	}
	if cfg.OSCosts == (OSCosts{}) {
		cfg.OSCosts = DefaultOSCosts()
	}
	if cfg.TMCosts == (TMCosts{}) {
		cfg.TMCosts = DefaultTMCosts()
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Shards > cfg.Cores {
		cfg.Shards = cfg.Cores
	}
	nThreads := cfg.Cores * cfg.ThreadsPerCore
	nStatic := cfg.Workload.NumStatic()

	r, _ := shellPool.Get().(*Runner)
	if r == nil {
		r = newShell()
	}
	r.cfg, r.noBatch = cfg, false
	r.mode = modeSeq
	if cfg.Shards > 1 && r.partitionable() {
		r.mode = modePartitioned
	}

	// Lanes: per-shard engines and machines over contiguous core ranges,
	// each self-clocked (partitioned lanes' skew is bounded by the shard
	// barrier).
	nLanes := 1
	if r.mode == modePartitioned {
		nLanes = cfg.Shards
	}
	r.lanes = recycle(r.lanes, nLanes)
	for i, ln := range r.lanes {
		lo := i * cfg.Cores / nLanes
		hi := (i + 1) * cfg.Cores / nLanes
		eng, mac := ln.eng, ln.mac
		if eng == nil {
			eng, mac = &Engine{dispatch: r.step}, &Machine{OnDispatch: r.dispatched}
		}
		eng.reset()
		mac.reset(eng, hi-lo, cfg.OSCosts)
		*ln = laneState{idx: i, coreBase: lo, eng: eng, mac: mac}
	}

	// Domains: one per lane.
	r.doms = recycle(r.doms, nLanes)
	for i, dom := range r.doms {
		if dom.sys == nil {
			dom.sys = tm.NewSystem(nStatic)
			dom.sys.OnDoom = r.onRemoteDoom
			dom.rng = rand.New(rand.NewSource(0))
		} else {
			dom.sys.Reset(nStatic)
		}
		dom.rng.Seed(int64(cfg.Seed) ^ 0x5bf0f7c9)
		*dom = domainState{
			sys:           dom.sys,
			rng:           dom.rng,
			retired:       dom.retired,
			cpuSlot:       resize(dom.cpuSlot, cfg.Cores),
			simSum:        resize(dom.simSum, nStatic),
			simCnt:        resize(dom.simCnt, nStatic),
			commitsPerStx: resize(dom.commitsPerStx, nStatic),
			latency:       resize(dom.latency, nStatic),
		}
		for j := range dom.cpuSlot {
			dom.cpuSlot[j] = core.NoTx
		}
		if cfg.Metrics != nil {
			if nLanes == 1 {
				dom.reg = cfg.Metrics
			} else {
				// Partitioned domains record into private registries,
				// merged into cfg.Metrics after the run (the registry is
				// not safe for concurrent use).
				dom.reg = metrics.New()
			}
		}
		dom.mgr = cfg.NewManager(sched.Env{
			NumCPUs:    cfg.Cores,
			NumThreads: nThreads,
			NumStatic:  nStatic,
			CPUOf:      r.cpuOfFn,
			Wake:       r.wakeFn,
			Rand:       dom.rng,
			Metrics:    dom.reg,
			Retired:    &dom.retired,
		})
		dom.bindInstruments()
		r.lanes[i].dom = dom
	}

	// Threads: the slab grows only when a run has more threads than any
	// before it, and keeps the clean scratch of the threads it had.
	if cap(r.ctxs) < nThreads {
		grown := make([]threadCtx, nThreads)
		copy(grown, r.ctxs[:cap(r.ctxs)])
		r.ctxs = grown
	}
	r.ctxs = r.ctxs[:nThreads]
	base := workload.NewRNG(cfg.Seed)
	for tid := range r.ctxs {
		absCore := tid % cfg.Cores
		lane := r.laneOfCore(absCore)
		th := lane.mac.AddThread(absCore - lane.coreBase)
		th.ID = tid // global thread id (machine-local by default)
		ctx := &r.ctxs[tid]
		scratch := ctx.ctxScratch
		scratch.reset(cfg.ProfileSimilarity)
		clear(ctx.stallWaiters)
		clear(ctx.beginWaiters)
		*ctx = threadCtx{
			tid:          tid,
			th:           th,
			lane:         lane,
			dom:          lane.dom,
			prog:         cfg.Workload.NewProgram(tid, nThreads, base.Derive(uint64(tid)).Uint64()),
			waitDTx:      core.NoTx,
			decBeginTok:  -1,
			decSerTok:    -1,
			decStallTok:  -1,
			stallWaiters: ctx.stallWaiters[:0],
			beginWaiters: ctx.beginWaiters[:0],
			ctxScratch:   scratch,
		}
		if bp, ok := ctx.prog.(accessBuffered); ok {
			bp.SwapAccesses(ctx.acc)
		}
		if cfg.Decisions != nil && tid < cfg.Decisions.Threads() {
			ctx.dec = cfg.Decisions.Shard(tid)
		}
	}
	if r.mode == modePartitioned {
		r.setupShards()
	}
	return r
}

// accessBuffered is a program that fabricates every transaction in one
// access buffer and can be lent one: SwapAccesses installs buf and returns
// the buffer it held. The shell lends its buffer before the first Next and
// takes it back, grown, once the run no longer uses the program.
type accessBuffered interface {
	SwapAccesses(buf []workload.Access) []workload.Access
}

// release hands the shell back for the next NewRunner, taking back the
// access buffers lent to the programs and retiring each domain's manager
// for the next constructor of its type. The Result must already hold
// copies of everything it keeps.
func (r *Runner) release() {
	for _, dom := range r.doms {
		dom.retired.Retire(dom.mgr)
		dom.mgr = nil
	}
	for i := range r.ctxs {
		ctx := &r.ctxs[i]
		if bp, ok := ctx.prog.(accessBuffered); ok {
			ctx.acc = bp.SwapAccesses(nil)
		}
	}
	shellPool.Put(r)
}

// laneOfCore maps an absolute CPU id to the lane owning it.
func (r *Runner) laneOfCore(cpu int) *laneState {
	// Lane ranges are [i*C/S, (i+1)*C/S); invert by scanning — lanes are
	// few and this only runs at construction time.
	for _, ln := range r.lanes {
		hi := (ln.idx + 1) * r.cfg.Cores / len(r.lanes)
		if cpu >= ln.coreBase && cpu < hi {
			return ln
		}
	}
	return r.lanes[len(r.lanes)-1]
}

// emit records a trace event if tracing is enabled. other is the
// counterparty's dTxID and otherStx its static ID (-1/-1 when none).
func (r *Runner) emit(ctx *threadCtx, kind trace.Kind, other, otherStx int, extra int64) {
	if r.cfg.Trace == nil {
		return
	}
	r.cfg.Trace.Add(trace.Event{
		Time:     ctx.lane.eng.Now(),
		Kind:     kind,
		Tid:      ctx.tid,
		Stx:      ctx.desc.STx,
		Attempt:  ctx.attempts,
		Other:    other,
		OtherStx: otherStx,
		Extra:    extra,
	})
}

func (r *Runner) dtxOf(ctx *threadCtx) int {
	return ctx.tid*r.cfg.Workload.NumStatic() + ctx.desc.STx
}

// ownerOfDTx is the thread a packed dTxID belongs to.
func (r *Runner) ownerOfDTx(dtx int) *threadCtx {
	return &r.ctxs[dtx/r.cfg.Workload.NumStatic()]
}

// stxOfDTx decodes the static transaction ID from a packed dTxID (-1 in,
// -1 out).
func (r *Runner) stxOfDTx(dtx int) int {
	if dtx < 0 {
		return -1
	}
	return dtx % r.cfg.Workload.NumStatic()
}

// recordPredWait remembers the transaction a predicted-conflict
// serialization is waiting out, so the prediction can be classified
// true/false at this execution's commit. Only active with metrics on.
func (r *Runner) recordPredWait(ctx *threadCtx, waitDTx int) {
	dom := ctx.dom
	if dom.reg == nil {
		return
	}
	dom.metPredSer.Inc()
	if len(ctx.predWaits) >= predWaitCap {
		return
	}
	if wtx := dom.sys.ActiveTx(waitDTx); wtx != nil {
		// Pin: the waited-on transaction usually finishes before this
		// execution commits, and its pooled storage must not be recycled
		// while the classifier still holds the pointer.
		//bfgts:pin-handoff classifyPredWaits unpins every predWaits entry at commit
		dom.sys.Pin(wtx)
		ctx.predWaits = append(ctx.predWaits, wtx)
	}
}

// classifyPredWaits settles this execution's recorded serializations: a
// prediction was true if the waited-on transaction's final line set really
// overlapped the committer's (with a write on at least one side), false
// otherwise — per-manager precision falls out of the two counters.
func (r *Runner) classifyPredWaits(ctx *threadCtx, tx *tm.Tx) {
	if len(ctx.predWaits) == 0 {
		return
	}
	dom := ctx.dom
	for i, wtx := range ctx.predWaits {
		if tx.ConflictsWith(wtx) {
			dom.metPredTrue.Inc()
			dom.predTrue++
		} else {
			dom.metPredFalse.Inc()
			dom.predFalse++
		}
		dom.sys.Unpin(wtx)
		ctx.predWaits[i] = nil
	}
	ctx.predWaits = ctx.predWaits[:0]
}

// decOnCommit settles the execution's decision records at commit: the
// proceed decision committed, and each recorded serialize decision is
// classified by whether the pinned enemy's final line set really
// overlapped the committer's — justified waits bought something,
// overcautious ones paid WaitCycles for nothing.
func (r *Runner) decOnCommit(ctx *threadCtx, tx *tm.Tx) {
	if ctx.dec == nil {
		return
	}
	ctx.dec.Resolve(ctx.decBeginTok, decision.OCommitted, 0)
	ctx.decBeginTok = -1
	for i := range ctx.decSer {
		e := ctx.decSer[i]
		o := decision.OOvercautious
		if tx.ConflictsWith(e.wtx) {
			o = decision.OJustified
		}
		ctx.dec.Resolve(e.tok, o, 0)
		ctx.dom.sys.Unpin(e.wtx)
		ctx.decSer[i] = pendingSer{}
	}
	ctx.decSer = ctx.decSer[:0]
}

// cpuOf returns the thread's absolute CPU id (the machine's core index is
// lane-local).
func (r *Runner) cpuOf(ctx *threadCtx) int { return ctx.lane.coreBase + ctx.th.Core }

// nowFor is the current logical simulation time as observed by code acting
// on ctx: its lane's engine clock, or — underneath a horizon-batched
// access — that access's completion time, which the engine has not caught
// up to yet. Every hook that lands on ctx runs on ctx's own lane: a
// sequential run has one lane, and a partitioned lane's conflicts stay in
// its own domain.
func (r *Runner) nowFor(ctx *threadCtx) int64 {
	ln := ctx.lane
	if ln.batchNow > 0 {
		return ln.batchNow
	}
	return ln.eng.Now()
}

// setSlot updates the CPU-table slot for a core and notifies the manager.
func (r *Runner) setSlot(dom *domainState, cpu, dtx int) {
	if dom.cpuSlot[cpu] == dtx {
		return
	}
	dom.cpuSlot[cpu] = dtx
	dom.mgr.OnCPUSlot(cpu, dtx)
}

// dispatched is the machine's OnDispatch hook.
func (r *Runner) dispatched(th *Thread) {
	ctx := &r.ctxs[th.ID]
	if ctx.tx != nil && !ctx.tx.Doomed {
		// A transactional thread regained its core: its transaction is
		// visible on the CPU table again.
		r.setSlot(ctx.dom, r.cpuOf(ctx), ctx.tx.DTx)
	}
	r.step(int32(th.ID), ctx.resume, 0)
}

// maybePreempt requeues the thread if its quantum expired and someone else
// wants the core. It returns true if preempted; resume must already be set.
func (r *Runner) maybePreempt(ctx *threadCtx) bool {
	if !ctx.lane.mac.ShouldPreempt(ctx.th) {
		return false
	}
	if ctx.tx != nil {
		r.setSlot(ctx.dom, r.cpuOf(ctx), core.NoTx)
	}
	ctx.lane.mac.Preempt(ctx.th)
	return true
}

// fetchNext pulls the next (non-tx, tx) pair from the program. ctx.desc is
// the only reference the runner keeps to a descriptor, and this is the only
// place it changes: the previous execution committed before its
// continuation reached here, so the program is free to recycle the
// descriptor (the workload.Program lifetime rule). Everything that outlives
// the execution — trace events, decision records, the TM's line sets —
// holds copies of the fields it needs.
func (r *Runner) fetchNext(ctx *threadCtx) {
	pre, desc, ok := ctx.prog.Next()
	if !ok {
		if ctx.tx != nil {
			panic("sim: program finished with open transaction")
		}
		ctx.desc = nil
		ctx.lane.mac.ThreadExit(ctx.th)
		if ctx.lane.mac.LiveThreads() == 0 {
			ctx.lane.makespan = ctx.lane.eng.Now()
		}
		return
	}
	ctx.desc = desc
	ctx.attempts = 0
	ctx.execStart = -1
	ctx.pendingPre = pre
	r.runNonTx(ctx)
}

// runNonTx burns the pre-transaction compute in preemptible chunks. The
// batched path consumes consecutive chunks locally while their completion
// times stay strictly below the engine's horizon and the quantum allows
// it, re-entering the engine once with the accumulated time; the legacy
// per-event path (Runner.noBatch) pays one event round-trip per chunk.
// Both charge the same cycles at the same logical instants.
func (r *Runner) runNonTx(ctx *threadCtx) {
	if ctx.pendingPre <= 0 {
		r.tryBegin(ctx)
		return
	}
	eng := ctx.lane.eng
	if r.noBatch {
		chunk := ctx.pendingPre
		if chunk > r.cfg.NonTxChunk {
			chunk = r.cfg.NonTxChunk
		}
		ctx.pendingPre -= chunk
		ctx.th.Charge(CatNonTx, chunk)
		ctx.after(chunk, opNonTxStep, 0)
		return
	}
	local := eng.Now()
	for {
		chunk := ctx.pendingPre
		if chunk > r.cfg.NonTxChunk {
			chunk = r.cfg.NonTxChunk
		}
		t := local + chunk
		ctx.pendingPre -= chunk
		ctx.th.Charge(CatNonTx, chunk)
		if t >= eng.PeekTime() || ctx.lane.mac.ShouldPreemptAt(ctx.th, t) {
			// Horizon or quantum boundary: re-enter the engine at this
			// chunk's completion time and take the per-event path there
			// (opNonTxStep redoes the preemption check at engine time
			// t, exactly as the legacy step does).
			ctx.at(t, opNonTxStep, 0)
			return
		}
		if ctx.pendingPre <= 0 {
			// All pre-transaction compute consumed below the horizon with
			// no preemption due: begin the transaction at its exact time.
			ctx.at(t, opTryBegin, 0)
			return
		}
		local = t
	}
}

// flipBegin inverts a begin decision for counterfactual replay: proceeds
// become yields, serializations become proceeds. Block is left unchanged
// (see RunConfig.FlipBegin).
func flipBegin(res sched.BeginResult) sched.BeginResult {
	switch res.Action {
	case sched.Proceed:
		res.Action = sched.YieldRetry
		res.WaitDTx = core.NoTx
	case sched.SpinWait, sched.YieldRetry:
		res.Action = sched.Proceed
		res.WaitDTx = core.NoTx
	}
	return res
}

// tryBegin consults the contention manager and acts on its decision.
func (r *Runner) tryBegin(ctx *threadCtx) {
	eng := ctx.lane.eng
	dom := ctx.dom
	if ctx.execStart < 0 {
		ctx.execStart = eng.Now()
	}
	// A pending serialize decision ends the moment the begin is retried:
	// its wait is everything between the suspension and now.
	if ctx.decSerTok >= 0 {
		ctx.dec.SetWait(ctx.decSerTok, eng.Now()-ctx.decSerStart)
		ctx.decSerTok = -1
	}
	res := dom.mgr.OnBegin(ctx.tid, ctx.desc.STx)
	dom.beginCalls++
	ctx.beginIndex = dom.beginCalls
	if r.cfg.FlipBegin == dom.beginCalls {
		res = flipBegin(res)
	}
	if res.Overhead > 0 {
		ctx.th.Charge(CatScheduling, res.Overhead)
	}
	if res.Action == sched.Proceed {
		// The begin broadcast is atomic with the predictor's decision
		// ("when a transaction is allowed to execute, it broadcasts onto
		// the interconnect the dTxID"): the slot becomes visible to other
		// predictors immediately, which serializes same-instant begins.
		r.setSlot(dom, r.cpuOf(ctx), r.dtxOf(ctx))
	}
	ctx.beginRes = res
	ctx.after(res.Overhead, opBeginAct, 0)
}

// decChoiceOf maps a begin action to its decision-trace choice.
func decChoiceOf(a sched.Action) decision.Choice {
	switch a {
	case sched.SpinWait:
		return decision.CSpin
	case sched.YieldRetry:
		return decision.CYield
	case sched.Block:
		return decision.CBlock
	default:
		return decision.CProceed
	}
}

// decOnBegin records the begin decision once it is acted on: proceeds open
// a token settled at commit/abort; serializations open a wait token
// settled at the next tryBegin, with the enemy pinned (like predWaits) so
// the commit can classify the wait justified or overcautious.
func (r *Runner) decOnBegin(ctx *threadCtx, res sched.BeginResult) {
	if ctx.dec == nil {
		return
	}
	choice := decChoiceOf(res.Action)
	rec := decision.Record{
		Time:       ctx.lane.eng.Now(),
		BeginIndex: ctx.beginIndex,
		Tid:        int32(ctx.tid),
		Stx:        int32(ctx.desc.STx),
		Attempt:    int32(ctx.attempts + 1),
		Point:      decision.PBegin,
		Choice:     choice,
		EnemyDTx:   -1,
		EnemyStx:   -1,
		Confidence: res.Confidence,
		Similarity: res.Similarity,
	}
	if choice == decision.CProceed {
		ctx.decBeginTok = ctx.dec.Add(rec)
		return
	}
	enemy := core.NoTx
	if choice != decision.CBlock { // Block (ATS) has no per-tx enemy
		enemy = res.WaitDTx
		rec.EnemyDTx = int32(enemy)
		rec.EnemyStx = int32(r.stxOfDTx(enemy))
	}
	tok := ctx.dec.Add(rec)
	ctx.decSerTok = tok
	ctx.decSerStart = ctx.lane.eng.Now()
	if tok < 0 || len(ctx.decSer) >= predWaitCap {
		return
	}
	if wtx := ctx.dom.sys.ActiveTx(enemy); wtx != nil {
		//bfgts:pin-handoff finishCommit settles and unpins every decSer entry
		ctx.dom.sys.Pin(wtx)
		ctx.decSer = append(ctx.decSer, pendingSer{tok: tok, wtx: wtx})
	}
}

// actOnBegin acts on the manager's begin decision once its overhead has
// elapsed.
func (r *Runner) actOnBegin(ctx *threadCtx) {
	res := ctx.beginRes
	r.decOnBegin(ctx, res)
	switch res.Action {
	case sched.Proceed:
		r.startTx(ctx)
	case sched.SpinWait:
		r.emit(ctx, trace.KSuspend, res.WaitDTx, r.stxOfDTx(res.WaitDTx), 0)
		r.recordPredWait(ctx, res.WaitDTx)
		r.beginSpin(ctx, res.WaitDTx, 20)
	case sched.YieldRetry:
		r.emit(ctx, trace.KSuspend, res.WaitDTx, r.stxOfDTx(res.WaitDTx), 0)
		r.recordPredWait(ctx, res.WaitDTx)
		ctx.resume = opTryBegin
		ctx.lane.mac.ThreadYield(ctx.th)
	case sched.Block:
		ctx.resume = opTryBegin
		ctx.lane.mac.ThreadBlock(ctx.th)
	}
}

// beginSpin busy-waits until waitDTx is no longer active, then re-runs the
// begin (which re-predicts, as the paper's re-executed TX_BEGIN does).
// grace bounds how long to wait for a transaction that was announced on
// the interconnect but has not reached the TM yet (it is still paying its
// begin overhead); waiting it out without re-running the predictor keeps
// the announce window from draining confidence through repeated suspends.
func (r *Runner) beginSpin(ctx *threadCtx, waitDTx, grace int) {
	eng := ctx.lane.eng
	if !ctx.dom.sys.Active(waitDTx) {
		const recheck = 30
		ctx.th.Charge(CatScheduling, recheck)
		if grace > 0 {
			ctx.after(recheck, opBeginSpin, uint64(uint32(waitDTx))|uint64(grace-1)<<32)
		} else {
			// Stale announcement (the transaction ended or never started):
			// re-execute TX_BEGIN.
			ctx.after(recheck, opTryBegin, 0)
		}
		return
	}
	ctx.state = stBeginSpin
	ctx.waitGen++
	ctx.waitDTx = waitDTx
	ctx.chargeMark = eng.Now()
	owner := r.ownerOfDTx(waitDTx)
	owner.beginWaiters = append(owner.beginWaiters, ctx)
	r.scheduleBeginSpinCheck(ctx, ctx.waitGen)
}

// scheduleBeginSpinCheck arranges the next preemption check while spinning
// at begin: the earliest instant ShouldPreempt could become true. The wait
// generation rides in the event's arg: a pending check can
// coexist with newer control flow for the same thread, so it must compare
// against the generation at schedule time, not whatever the ctx holds when
// it fires.
func (r *Runner) scheduleBeginSpinCheck(ctx *threadCtx, gen uint64) {
	eng := ctx.lane.eng
	wait := ctx.th.dispatchedAt + ctx.lane.mac.Costs.Quantum - eng.Now()
	if wait < 1 {
		wait = 1
	}
	ctx.after(wait, opSpinCheck, gen)
}

// beginSpinCheck is the preemption check while spinning at begin.
func (r *Runner) beginSpinCheck(ctx *threadCtx, gen uint64) {
	if ctx.waitGen != gen || ctx.state != stBeginSpin {
		return
	}
	r.chargeSpin(ctx, CatScheduling)
	if ctx.lane.mac.ShouldPreempt(ctx.th) {
		// The OS timer preempts the spinner; on redispatch it re-executes
		// TX_BEGIN.
		ctx.state = stIdle
		ctx.waitGen++
		r.dropBeginWaiter(ctx)
		ctx.resume = opTryBegin
		ctx.lane.mac.Preempt(ctx.th)
		return
	}
	r.scheduleBeginSpinCheck(ctx, gen)
}

func (r *Runner) dropBeginWaiter(ctx *threadCtx) {
	owner := r.ownerOfDTx(ctx.waitDTx)
	owner.beginWaiters = dropWaiter(owner.beginWaiters, ctx)
}

// dropWaiter removes c from a waiter list, keeping arrival order.
func dropWaiter(ws []*threadCtx, c *threadCtx) []*threadCtx {
	for i := range ws {
		if ws[i] == c {
			copy(ws[i:], ws[i+1:])
			ws[len(ws)-1] = nil
			return ws[:len(ws)-1]
		}
	}
	return ws
}

// chargeSpin charges the elapsed spin interval to a category and resets
// the mark. It reads nowFor, not the engine clock: the remote-doom hook
// can charge a victim's spin from underneath a horizon-batched access,
// where the logical time is ahead of the engine.
func (r *Runner) chargeSpin(ctx *threadCtx, cat Category) {
	now := r.nowFor(ctx)
	d := now - ctx.chargeMark
	if d > 0 {
		ctx.th.Charge(cat, d)
		if cat == CatTx {
			ctx.txCycles += d
		}
		ctx.chargeMark = now
	}
}

// startTx begins the hardware transaction.
func (r *Runner) startTx(ctx *threadCtx) {
	dtx := r.dtxOf(ctx)
	ctx.tx = ctx.dom.sys.Begin(ctx.tid, ctx.desc.STx, dtx)
	ctx.attempts++
	ctx.accIdx = 0
	ctx.txCycles = 0
	n := int64(len(ctx.desc.Accesses)) + 1
	ctx.gap = ctx.desc.BodyCycles / n
	ctx.th.Charge(CatTx, r.cfg.TMCosts.Begin)
	ctx.txCycles += r.cfg.TMCosts.Begin
	r.emit(ctx, trace.KBegin, -1, -1, 0)
	r.setSlot(ctx.dom, r.cpuOf(ctx), dtx)
	ctx.after(r.cfg.TMCosts.Begin, opStepAccess, 0)
}

// stepAccess executes the next transactional access (or commits). With
// batching enabled this is the horizon loop: consecutive accesses are
// consumed in place while each completion time stays strictly below the
// engine's next pending event, so the straight-line body of a transaction
// costs zero heap round-trips; the engine is re-entered only at the
// horizon, at quantum expiry, on a conflict/stall/abort, or at the commit
// boundary, always at the exact timestamp the per-event path would have
// produced.
func (r *Runner) stepAccess(ctx *threadCtx) {
	if ctx.tx.Doomed {
		r.abortTx(ctx)
		return
	}
	eng := ctx.lane.eng
	if r.noBatch {
		if ctx.accIdx >= len(ctx.desc.Accesses) {
			r.commitTx(ctx)
			return
		}
		// Compute gap, then the access itself.
		d := ctx.gap + r.cfg.TMCosts.Access
		ctx.th.Charge(CatTx, d)
		ctx.txCycles += d
		ctx.after(d, opAccess, 0)
		return
	}
	local := eng.Now()
	d := ctx.gap + r.cfg.TMCosts.Access
	for {
		if ctx.accIdx >= len(ctx.desc.Accesses) {
			// Commit at logical time local: the same charge + event the
			// legacy commitTx issues when called at that instant.
			c := r.cfg.TMCosts.Commit
			ctx.th.Charge(CatTx, c)
			ctx.txCycles += c
			ctx.at(local+c, opCommit, 0)
			return
		}
		t := local + d
		// The horizon is re-read each iteration: it is O(1) and guards
		// the (impossible today, cheap to insure against) case of
		// an in-batch call scheduling a new earlier event.
		if t >= eng.PeekTime() {
			// This access's completion would not precede the next event:
			// schedule it as a real event so anything landing at the same
			// instant keeps its (time, seq) precedence, and let
			// performAccess re-check Doomed at engine time t exactly as
			// the legacy path does.
			ctx.th.Charge(CatTx, d)
			ctx.txCycles += d
			ctx.at(t, opAccess, 0)
			return
		}
		// The access completes strictly before any other actor can run:
		// perform it now at logical time t. The TM is timeless, so the
		// result is identical to evaluating it at engine time t — except
		// for the remote-doom hook, which reads nowFor (hence batchNow).
		ctx.th.Charge(CatTx, d)
		ctx.txCycles += d
		ctx.lane.batchNow = t
		acc := ctx.desc.Accesses[ctx.accIdx]
		res := ctx.dom.sys.Access(ctx.tx, acc.Addr, acc.Write)
		ctx.lane.batchNow = 0
		switch {
		case res.OK:
			ctx.accIdx++
			if sh := ctx.lane.shard; sh != nil && acc.Addr >= sh.sharedBase {
				sh.probeShared(t, ctx.tid, acc.Addr)
			}
			if ctx.lane.mac.ShouldPreemptAt(ctx.th, t) {
				// Quantum boundary: re-enter the engine at the access's
				// completion time; opPostAccess performs the preemption
				// there, as the legacy path would.
				ctx.at(t, opPostAccess, 0)
				return
			}
			local = t
		case res.Holder != nil:
			// NACKed: stall at the access's completion time. The holder
			// pointer stays valid across the event because t is strictly
			// below the horizon — no other actor runs in between.
			ctx.batchHolder = res.Holder
			ctx.at(t, opBatchStall, 0)
			return
		default: // doomed by deadlock resolution
			ctx.at(t, opAbort, 0)
			return
		}
	}
}

// performAccess issues the access once its latency has been charged — the
// per-event path, taken under Runner.noBatch and whenever a batched access
// lands on or past the horizon.
func (r *Runner) performAccess(ctx *threadCtx) {
	if ctx.tx.Doomed {
		r.abortTx(ctx)
		return
	}
	acc := ctx.desc.Accesses[ctx.accIdx]
	res := ctx.dom.sys.Access(ctx.tx, acc.Addr, acc.Write)
	switch {
	case res.OK:
		ctx.accIdx++
		if sh := ctx.lane.shard; sh != nil && acc.Addr >= sh.sharedBase {
			sh.probeShared(ctx.lane.eng.Now(), ctx.tid, acc.Addr)
		}
		r.resumeWith(ctx, opStepAccess)
	case res.Holder != nil:
		r.lineStall(ctx, res.Holder)
	default: // doomed by deadlock resolution
		r.abortTx(ctx)
	}
}

// lineStall handles a NACK: spin on the line until the holder releases or
// the stall budget runs out (then abort). Reactive managers implementing
// sched.StallPolicy replace the default budget with their own patience
// discipline (Polite/Karma/Timestamp).
func (r *Runner) lineStall(ctx *threadCtx, holder *tm.Tx) {
	eng := ctx.lane.eng
	ctx.state = stLineStall
	ctx.waitGen++
	gen := ctx.waitGen
	ctx.holder = holder
	ctx.chargeMark = eng.Now()
	r.emit(ctx, trace.KStall, holder.DTx, holder.STx, 0)
	if ctx.dec != nil {
		ctx.decStallTok = ctx.dec.Add(decision.Record{
			Time:     eng.Now(),
			Tid:      int32(ctx.tid),
			Stx:      int32(ctx.desc.STx),
			Attempt:  int32(ctx.attempts),
			Point:    decision.PNack,
			Choice:   decision.CStall,
			EnemyDTx: int32(holder.DTx),
			EnemyStx: int32(holder.STx),
		})
		ctx.decStallStart = eng.Now()
	}
	owner := &r.ctxs[holder.Thread]
	owner.stallWaiters = append(owner.stallWaiters, ctx)
	budget := r.cfg.TMCosts.StallTimeout
	if sp, ok := ctx.dom.mgr.(sched.StallPolicy); ok {
		budget = sp.StallBudget(sched.StallInfo{
			ReqTid:     ctx.tid,
			ReqStx:     ctx.desc.STx,
			ReqWork:    ctx.tx.NumLines(),
			HolderWork: holder.NumLines(),
			ReqSeq:     ctx.tx.Seq,
			HolderSeq:  holder.Seq,
			Attempts:   ctx.attempts - 1,
		})
		if budget < 1 {
			budget = 1
		}
	}
	ctx.after(budget, opStallTimeout, gen)
}

// stallTimeout fires when a NACKed spin exhausts its budget; the generation
// snapshot guards against the wake path having already resolved the stall.
func (r *Runner) stallTimeout(ctx *threadCtx, gen uint64) {
	if ctx.waitGen != gen || ctx.state != stLineStall {
		return
	}
	holder := ctx.holder
	// Timed out: give up and abort (LogTM's conservative discipline).
	r.chargeSpin(ctx, CatTx)
	r.decSettleStall(ctx, decision.OTimedOut)
	ctx.state = stIdle
	ctx.waitGen++
	r.dropStallWaiter(ctx)
	// Attribute the conflict to the holder we stalled behind.
	if ctx.tx != nil && !ctx.tx.Doomed {
		ctx.tx.DoomedByTid = holder.Thread
		ctx.tx.DoomedByStx = holder.STx
	}
	r.abortTx(ctx)
}

func (r *Runner) dropStallWaiter(ctx *threadCtx) {
	owner := &r.ctxs[ctx.holder.Thread]
	owner.stallWaiters = dropWaiter(owner.stallWaiters, ctx)
}

// decSettleStall settles the thread's pending NACK-stall record, if any.
func (r *Runner) decSettleStall(ctx *threadCtx, o decision.Outcome) {
	if ctx.decStallTok < 0 {
		return
	}
	ctx.dec.SetWait(ctx.decStallTok, r.nowFor(ctx)-ctx.decStallStart)
	ctx.dec.Resolve(ctx.decStallTok, o, 0)
	ctx.decStallTok = -1
}

// onTxReleased wakes every thread stalled behind tx (line stalls retry the
// access, begin spins retry the begin). Waiters share the committer's
// domain, and so its lane.
func (r *Runner) onTxReleased(tx *tm.Tx) {
	owner := &r.ctxs[tx.Thread]
	for i, ctx := range owner.stallWaiters {
		owner.stallWaiters[i] = nil
		if ctx.state != stLineStall || ctx.holder != tx {
			continue
		}
		r.chargeSpin(ctx, CatTx)
		r.decSettleStall(ctx, decision.OReleased)
		ctx.state = stIdle
		ctx.waitGen++
		ctx.holder = nil
		ctx.after(1, opStepAccess, 0) // retry the same access
	}
	owner.stallWaiters = owner.stallWaiters[:0]

	for i, ctx := range owner.beginWaiters {
		owner.beginWaiters[i] = nil
		if ctx.state != stBeginSpin || ctx.waitDTx != tx.DTx {
			continue
		}
		r.chargeSpin(ctx, CatScheduling)
		ctx.state = stIdle
		ctx.waitGen++
		ctx.waitDTx = core.NoTx
		ctx.after(1, opTryBegin, 0)
	}
	owner.beginWaiters = owner.beginWaiters[:0]
}

// onRemoteDoom is tm.System's hook: a transaction other than the requester
// was doomed by deadlock resolution. If its thread is stalled on a line it
// must wake immediately and roll back; otherwise the Doomed flag is picked
// up at the next step boundary.
func (r *Runner) onRemoteDoom(victim *tm.Tx) {
	ctx := &r.ctxs[victim.Thread]
	if ctx.tx != victim || ctx.state != stLineStall {
		return
	}
	r.chargeSpin(ctx, CatTx)
	r.decSettleStall(ctx, decision.OTimedOut) // doomed while waiting
	ctx.state = stIdle
	ctx.waitGen++
	r.dropStallWaiter(ctx)
	ctx.holder = nil
	// Scheduled from nowFor, not the engine clock: the dooming access may
	// be executing inside another thread's horizon batch, logically ahead
	// of the engine. (Conflicts are domain-local, so in partitioned runs
	// the doomer and the victim share a lane and nowFor resolves to it.)
	ctx.at(r.nowFor(ctx)+1, opAbort, 0)
}

// commitTx finishes the transaction: hardware commit, manager bookkeeping,
// workload side effects, statistics.
func (r *Runner) commitTx(ctx *threadCtx) {
	ctx.th.Charge(CatTx, r.cfg.TMCosts.Commit)
	ctx.txCycles += r.cfg.TMCosts.Commit
	ctx.after(r.cfg.TMCosts.Commit, opCommit, 0)
}

// finishCommit runs once the hardware commit latency has elapsed. The
// transaction's line sets are walked into the ctx scratch buffers once and
// shared by the similarity profiler and the manager's OnCommit, so the
// commit path performs no per-commit allocation.
func (r *Runner) finishCommit(ctx *threadCtx) {
	dom := ctx.dom
	tx := ctx.tx
	size := tx.NumLines()
	ctx.linesBuf = tx.AppendLines(ctx.linesBuf[:0])
	ctx.writesBuf = tx.AppendWriteLines(ctx.writesBuf[:0])
	if r.cfg.ProfileSimilarity {
		r.profileCommit(ctx, size)
	}
	r.classifyPredWaits(ctx, tx)
	r.decOnCommit(ctx, tx)
	dom.sys.Commit(tx)
	dom.commitsPerStx[ctx.desc.STx]++
	dom.latency[ctx.desc.STx].Add(ctx.lane.eng.Now() - ctx.execStart)
	dom.attempts.Add(float64(ctx.attempts))
	r.emit(ctx, trace.KCommit, -1, -1, ctx.lane.eng.Now()-ctx.execStart)
	ctx.tx = nil
	r.setSlot(dom, r.cpuOf(ctx), core.NoTx)
	r.onTxReleased(tx)

	overhead := dom.mgr.OnCommit(ctx.tid, ctx.desc.STx, ctx.linesBuf, ctx.writesBuf, size)
	if ctx.desc.OnCommit != nil {
		ctx.desc.OnCommit()
	}
	if overhead > 0 {
		ctx.th.Charge(CatScheduling, overhead)
	}
	ctx.after(overhead, opPostCommit, 0)
}

// profileCommit records exact Eq. 1 similarity for Table 1, reading the
// committing transaction's lines from ctx.linesBuf (filled by finishCommit)
// and recycling displaced exact sets and the Eq. 3 scratch filters so
// profiling allocates nothing in steady state.
func (r *Runner) profileCommit(ctx *threadCtx, size int) {
	dom := ctx.dom
	stx := ctx.desc.STx
	set := ctx.getExactSet()
	for _, a := range ctx.linesBuf {
		set.Add(a)
	}
	ctx.sizeSum[stx] += float64(size)
	ctx.sizeCnt[stx]++
	if prev := ctx.prevSet[stx]; prev != nil {
		avg := ctx.sizeSum[stx] / float64(ctx.sizeCnt[stx])
		if avg > 0 {
			sim := float64(set.IntersectionLen(prev)) / avg
			if sim > 1 {
				sim = 1
			}
			dom.simSum[stx] += sim
			dom.simCnt[stx]++
		}
		if dom.metEstErr != nil {
			if ctx.estFA == nil {
				// Paper filter geometry (2048 bits, 4 hashes), matching the
				// hardware signatures the estimator runs over.
				ctx.estFA = bloom.NewFilter(2048, bloom.DefaultHashes)
				ctx.estFB = bloom.NewFilter(2048, bloom.DefaultHashes)
			}
			dom.metEstErr.Observe(bloom.EstimateIntersectionErrorInto(set, prev, ctx.estFA, ctx.estFB))
		}
		ctx.putExactSet(prev)
	}
	ctx.prevSet[stx] = set
}

// abortTx rolls the transaction back: wasted work is recategorized from Tx
// to Abort, the undo-log walk and the manager's backoff are charged, and
// the begin is retried.
func (r *Runner) abortTx(ctx *threadCtx) {
	tx := ctx.tx
	if ctx.dec != nil {
		// The proceed decision is refuted: charge the attempt's wasted
		// transactional cycles as undercaution and attribute the abort to
		// the dooming transaction. A still-open stall record (doom noticed
		// at a step boundary) timed out implicitly.
		ctx.dec.SetEnemy(ctx.decBeginTok,
			int32(tx.DoomedByTid*r.cfg.Workload.NumStatic()+tx.DoomedByStx),
			int32(tx.DoomedByStx))
		ctx.dec.Resolve(ctx.decBeginTok, decision.OAborted, ctx.txCycles)
		ctx.decBeginTok = -1
		r.decSettleStall(ctx, decision.OTimedOut)
	}
	// Recategorize this attempt's transactional cycles as wasted.
	ctx.th.Charge(CatTx, -ctx.txCycles)
	ctx.th.Charge(CatAbort, ctx.txCycles)
	ctx.txCycles = 0

	r.emit(ctx, trace.KAbort, tx.DoomedByTid*r.cfg.Workload.NumStatic()+tx.DoomedByStx, tx.DoomedByStx, 0)
	rollback := r.cfg.TMCosts.RollbackBase + r.cfg.TMCosts.RollbackPerLine*int64(tx.NumWrites())
	ctx.th.Charge(CatAbort, rollback)
	ctx.after(rollback, opRollback, 0)
}

// finishAbort runs once the undo-log walk has been charged: release
// isolation, consult the manager, and back off before retrying the begin.
func (r *Runner) finishAbort(ctx *threadCtx) {
	dom := ctx.dom
	tx := ctx.tx
	dom.sys.Abort(tx)
	ctx.tx = nil
	r.setSlot(dom, r.cpuOf(ctx), core.NoTx)
	r.onTxReleased(tx)

	ab := dom.mgr.OnAbort(ctx.tid, ctx.desc.STx, tx.DoomedByTid, tx.DoomedByStx, ctx.attempts)
	ctx.th.Charge(CatScheduling, ab.Overhead)
	ctx.th.Charge(CatAbort, ab.Backoff)
	ctx.after(ab.Overhead+ab.Backoff, opPostAbort, 0)
}

// liveThreads is the total live-thread count across lanes.
func (r *Runner) liveThreads() int {
	n := 0
	for _, ln := range r.lanes {
		n += ln.mac.LiveThreads()
	}
	return n
}

// sample records one time-series point and reschedules itself through its
// registered handle. Sampling only reads manager and TM state, so
// it cannot perturb the simulated schedule: a run with metrics enabled
// takes the same cycle-level path as one without. The sampler only runs
// in sequential runs (it reads global manager/TM state), on the one lane's
// engine.
func (r *Runner) sample() {
	if r.liveThreads() == 0 {
		return
	}
	dom := r.doms[0]
	ln := r.lanes[0]
	now := ln.eng.Now()
	if pr, ok := dom.mgr.(sched.PressureReporter); ok {
		dom.tsPressure.Append(now, pr.MeanPressure())
	}
	if cr, ok := dom.mgr.(sched.ConfidenceReporter); ok {
		dom.tsConf.Append(now, cr.MeanConfidence())
	}
	c, a := dom.sys.Commits(), dom.sys.Aborts()
	dc, da := c-dom.lastCommits, a-dom.lastAborts
	dom.lastCommits, dom.lastAborts = c, a
	if dc+da > 0 {
		const alpha = 0.3 // EWMA weight of the newest window
		dom.abortEwma = alpha*float64(da)/float64(dc+da) + (1-alpha)*dom.abortEwma
	}
	dom.tsAbortRate.Append(now, dom.abortEwma)
	ln.eng.AfterHandle(r.sampleEvery, r.sampleH)
}

// Run executes the simulation to completion and returns its measurements.
func (r *Runner) Run() *Result {
	if r.cfg.Metrics != nil && r.mode != modePartitioned {
		interval := r.cfg.SampleInterval
		if interval <= 0 {
			interval = DefaultSampleInterval
		}
		r.sampleEvery = interval
		r.sampleH = r.lanes[0].eng.Register(r.sample)
		r.lanes[0].eng.AfterHandle(interval, r.sampleH)
	}
	if r.mode == modeSeq {
		r.runSequential()
	} else {
		r.runPartitioned()
	}
	return r.buildResult()
}

// runSequential is the classic single-lane driver.
func (r *Runner) runSequential() {
	ln := r.lanes[0]
	ln.mac.Start()
	ln.eng.Run(func() bool {
		if r.cfg.MaxCycles > 0 && ln.eng.Now() > r.cfg.MaxCycles {
			ln.timedOut = true
			return true
		}
		return ln.mac.LiveThreads() == 0
	})
}

// buildResult finalizes makespan/idle accounting and assembles the Result,
// merging per-domain accumulators deterministically when partitioned.
func (r *Runner) buildResult() *Result {
	var makespan int64
	timedOut := false
	for _, ln := range r.lanes {
		if ln.makespan == 0 {
			ln.makespan = ln.eng.Now()
		}
		if ln.makespan > makespan {
			makespan = ln.makespan
		}
		timedOut = timedOut || ln.timedOut
	}
	for _, ln := range r.lanes {
		ln.mac.FinishIdle(makespan)
	}

	res := &Result{
		ManagerName:  r.doms[0].mgr.Name(),
		WorkloadName: r.cfg.Workload.Name(),
		Makespan:     makespan,
		TimedOut:     timedOut,
	}
	if !timedOut && r.liveThreads() > 0 {
		res.Deadlocked = r.parked()
	}
	// The domains' accumulators are summed into fresh storage even when
	// there is one domain: they belong to the shell, which the next
	// NewRunner resets, so the Result must not alias them.
	nStatic := r.cfg.Workload.NumStatic()
	res.ConflictMatrix = make([][]int64, nStatic)
	for i := range res.ConflictMatrix {
		res.ConflictMatrix[i] = make([]int64, nStatic)
	}
	res.CommitsPerStx = make([]int64, nStatic)
	res.Latency = make([]stats.Histogram, nStatic)
	for _, dom := range r.doms {
		res.Commits += dom.sys.Commits()
		res.Aborts += dom.sys.Aborts()
		for i, row := range dom.sys.ConflictMatrix() {
			for j, v := range row {
				res.ConflictMatrix[i][j] += v
			}
		}
		for i, v := range dom.commitsPerStx {
			res.CommitsPerStx[i] += v
		}
		for i := range dom.latency {
			res.Latency[i].Merge(&dom.latency[i])
		}
	}
	if len(r.doms) == 1 {
		res.AttemptsPerCommit = r.doms[0].attempts
	} else {
		for _, dom := range r.doms {
			res.AttemptsPerCommit.Merge(&dom.attempts)
		}
	}
	for i := range r.ctxs {
		res.Breakdown.Merge(&r.ctxs[i].th.Acct)
	}
	for _, ln := range r.lanes {
		res.Breakdown.Add(CatIdle, ln.mac.IdleCycles())
	}
	if r.cfg.ProfileSimilarity {
		dom := r.doms[0] // profiling is single-domain only
		res.Similarity = make([]float64, len(dom.simSum))
		for i := range dom.simSum {
			if dom.simCnt[i] > 0 {
				res.Similarity[i] = dom.simSum[i] / float64(dom.simCnt[i])
			}
		}
	}
	if r.cfg.Metrics != nil {
		if len(r.doms) > 1 {
			r.mergeShardMetrics()
		}
		var predTrue, predFalse int64
		for _, dom := range r.doms {
			predTrue += dom.predTrue
			predFalse += dom.predFalse
		}
		if classified := predTrue + predFalse; classified > 0 {
			r.cfg.Metrics.Gauge("sim.pred.precision").Set(float64(predTrue) / float64(classified))
		}
		res.Metrics = r.cfg.Metrics.Snapshot()
	}
	r.release()
	return res
}

// parked describes every thread that has not exited, for Result.Deadlocked.
func (r *Runner) parked() *Deadlock {
	d := &Deadlock{}
	for i := range r.ctxs {
		ctx := &r.ctxs[i]
		var wait string
		switch ctx.th.State {
		case ThDone:
			continue
		case ThBlocked:
			wait = "blocked"
		case ThReady:
			wait = "ready"
		default:
			wait = "running"
		}
		switch ctx.state {
		case stBeginSpin:
			wait += fmt.Sprintf(", begin-spin behind dtx %d", ctx.waitDTx)
		case stLineStall:
			wait += fmt.Sprintf(", line-stall behind t%d", ctx.holder.Thread)
		}
		d.Parked = append(d.Parked, ParkedThread{Tid: ctx.tid, Wait: wait})
	}
	return d
}
