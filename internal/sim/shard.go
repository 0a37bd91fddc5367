package sim

// Sharded execution: one simulation split into per-shard lanes under the
// conservative-PDES (Chandy-Misra-Bryant style) protocol.
//
// RunConfig.Shards > 1 runs partitioned lanes when the workload declares a
// shard partition (workload.Sharder) and the manager is shard-safe
// (sched.ShardSafe); any other configuration falls back to the sequential
// engine, whose output every sharded run must equal.
//
// Each partitioned lane gets its own event engine, slice of the machine and
// conflict-detection domain (line directory, manager, waiter queues,
// accumulators) and free-runs on its own goroutine. Lanes synchronize
// through a ShardBarrier: each publishes the time of its next pending event
// (its PeekTime horizon — the conservative null message) and may execute an
// event at time t only while t does not exceed the minimum of the other
// lanes' published horizons by more than DefaultShardLookahead. The minimum
// lane can always proceed, so the protocol is deadlock-free; horizons are
// monotone, so each lane caches the last minimum it read and only re-reads
// the barrier when its next event would outrun the cache — the hot path is
// one comparison, no atomics.
//
// Cross-shard reads of the workload's shared region become timestamped
// probe messages on single-producer/single-consumer rings, drained and
// validated deterministically (sorted by (time, tid)) against the owning
// shard's line directory at horizon boundaries. The partition contract
// (shard-private data never crosses lanes, the shared region is read-only)
// makes every probe conflict-free, which is what lets the lanes' event
// streams stay exactly equal to the sequential run's lane-restricted
// subsequences — and therefore lets the merged result stay identical
// (integer-exact everywhere; see Result.AttemptsPerCommit for the one
// float-summary caveat).

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/workload"
)

// DefaultShardLookahead is the partitioned-mode clock-skew window in
// simulated cycles: a lane may run ahead of the slowest other lane's
// published horizon by at most this much. Larger windows mean fewer
// barrier waits and more cross-lane skew; correctness never depends on the
// value because conflicts are always lane-local under the partition
// contract.
const DefaultShardLookahead = 1 << 20

// shardDrainInterval is how many lane-local events may fire between
// opportunistic drains of the lane's inbound probe rings (lanes also drain
// whenever they wait at the barrier and at termination).
const shardDrainInterval = 256

// shardMsg is one cross-shard probe: lane-local thread tid read addr (in
// the shared region, owned by the receiving shard) at simulated time.
type shardMsg struct {
	time int64
	addr uint64
	tid  int32
	_    int32
}

// shardRingCap is the probe-ring capacity (power of two). A full ring
// back-pressures the sender into draining its own inbound rings and
// yielding, so rings can never deadlock; the capacity only tunes how often
// that happens. It is kept small because a partitioned run has n² rings —
// the buffers are allocated lazily on first send, so pairs that never
// exchange probes cost two cache lines of cursors and nothing else.
const shardRingCap = 64

// shardRing is a single-producer/single-consumer bounded ring. Exactly one
// lane pushes (the sender) and one lane pops (the owner); head and tail
// are kept on separate cache lines so the two sides do not false-share.
type shardRing struct {
	buf  []shardMsg
	head atomic.Int64 // consumer cursor
	_    [56]byte
	tail atomic.Int64 // producer cursor
	_    [56]byte
}

func newShardRing() *shardRing {
	return &shardRing{}
}

// grow allocates the buffer on the producer's first push. The consumer
// only touches buf after observing a tail the producer stored *after*
// assigning buf, so the assignment is safely published by the same
// release/acquire edge that publishes the slots.
func (r *shardRing) grow() {
	r.buf = make([]shardMsg, shardRingCap)
}

// push appends a message, reporting false when the ring is full. Producer
// side only. The tail store publishes the buffered message to the
// consumer (Go's atomics are sequentially consistent, so the slot write
// happens-before any pop that observes the new tail).
//
//bfgts:allocfree
//bfgts:spsc-producer
func (r *shardRing) push(m shardMsg) bool {
	if r.buf == nil {
		r.grow()
	}
	t := r.tail.Load()
	if t-r.head.Load() >= int64(len(r.buf)) {
		return false
	}
	r.buf[t&int64(len(r.buf)-1)] = m
	r.tail.Store(t + 1)
	return true
}

// pop removes the oldest message, reporting false when the ring is empty.
// Consumer side only.
//
//bfgts:allocfree
//bfgts:spsc-consumer
func (r *shardRing) pop() (shardMsg, bool) {
	h := r.head.Load()
	if h >= r.tail.Load() {
		return shardMsg{}, false
	}
	m := r.buf[h&int64(len(r.buf)-1)]
	r.head.Store(h + 1)
	return m, true
}

// barSlot is one lane's published horizon, padded to its own cache line so
// per-lane stores never contend.
type barSlot struct {
	h atomic.Int64
	_ [56]byte
}

// ShardBarrier is the conservative-lookahead synchronizer of partitioned
// lanes: a lock-free exchange of per-lane PeekTime horizons (the null
// messages of classic conservative PDES, made cheap by shared memory).
type ShardBarrier struct {
	slots []barSlot
	done  atomic.Int32
}

func newShardBarrier(n int) *ShardBarrier {
	return &ShardBarrier{slots: make([]barSlot, n)}
}

// Publish announces lane i's next-event time (its horizon: no event below
// t can appear on this lane).
//
//bfgts:allocfree
func (b *ShardBarrier) Publish(i int, t int64) { b.slots[i].h.Store(t) }

// MinOther returns the minimum horizon published by every lane except i.
//
//bfgts:allocfree
func (b *ShardBarrier) MinOther(i int) int64 {
	min := int64(NoPending)
	for j := range b.slots {
		if j == i {
			continue
		}
		if t := b.slots[j].h.Load(); t < min {
			min = t
		}
	}
	return min
}

// Done marks lane i finished: its horizon becomes +inf (it will never
// schedule another event) and the done count lets the other lanes' drain
// loops terminate.
func (b *ShardBarrier) Done(i int) {
	b.slots[i].h.Store(NoPending)
	b.done.Add(1)
}

// AllDone reports whether every lane has called Done.
func (b *ShardBarrier) AllDone() bool { return int(b.done.Load()) == len(b.slots) }

// stallPoint is one recorded barrier stall: the lane spun for spins
// yield-rounds before its event at simulated time t cleared the horizon.
type stallPoint struct {
	t     int64
	spins int64
}

// laneShard is a lane's partitioned-mode coupling: its barrier slot, its
// probe rings, and the shard-layer instrumentation. A sequential lane has
// none (laneState.shard == nil).
type laneShard struct {
	idx        int
	bar        *ShardBarrier
	sharedBase uint64
	owner      func(addr uint64) int
	dom        *domainState

	in  []*shardRing // in[j]: probes from lane j to this lane (nil at j==idx)
	out []*shardRing // out[j]: probes from this lane to lane j

	// cachedMin is the last MinOther this lane read. Horizons are
	// monotone non-decreasing, so a stale cache is only ever conservative;
	// the lane re-reads the barrier only when its next event would outrun
	// cache + DefaultShardLookahead.
	cachedMin int64

	scratch []shardMsg // drained-but-unprocessed probes

	msgsSent       int64
	msgsRecv       int64
	msgsValidated  int64
	msgsConflicts  int64
	sendStallSpins int64
	// horizonWait records spins per slow-path barrier wait. The instrument
	// is acquired from the caller's registry at setup (nil when metrics
	// are off) and is distinct per lane, so lane-goroutine writes never
	// touch shared registry state during the run.
	horizonWait *metrics.Histogram
	stallPts    []stallPoint
}

// probeShared forwards a shared-region access to the owning shard as a
// timestamped probe message. Fire-and-forget: probes model asynchronous
// interconnect traffic, charge the issuing thread nothing, and are
// validated by the owner at its next horizon boundary — so they never
// perturb the simulated schedule (load-bearing for the identical-output
// contract). A full ring back-pressures by draining our own inbound
// probes and yielding.
//
//bfgts:allocfree
func (sh *laneShard) probeShared(t int64, tid int, addr uint64) {
	owner := sh.owner(addr)
	if owner == sh.idx {
		return
	}
	sh.msgsSent++
	ring := sh.out[owner]
	for !ring.push(shardMsg{time: t, tid: int32(tid), addr: addr}) {
		sh.sendStallSpins++
		sh.drainInbound()
		sh.processDrained()
		runtime.Gosched()
	}
}

// drainInbound moves every currently visible probe from the inbound rings
// into the scratch buffer.
//
//bfgts:allocfree
func (sh *laneShard) drainInbound() {
	for _, ring := range sh.in {
		if ring == nil {
			continue
		}
		for {
			m, ok := ring.pop()
			if !ok {
				break
			}
			sh.scratch = append(sh.scratch, m)
		}
	}
}

// processDrained validates the drained probes against the owning shard's
// line directory in deterministic (time, tid) order. Under the partition
// contract the shared region is read-only, so LineWriteHeld is always
// false and the conflict counter deterministically stays zero — a nonzero
// value is a workload partitioning bug surfacing in -metrics-out.
//
//bfgts:allocfree
func (sh *laneShard) processDrained() {
	if len(sh.scratch) == 0 {
		return
	}
	// Insertion sort: drain batches are small and almost sorted (each
	// sender produces in time order), and it allocates nothing.
	for i := 1; i < len(sh.scratch); i++ {
		m := sh.scratch[i]
		j := i - 1
		for j >= 0 && (sh.scratch[j].time > m.time ||
			(sh.scratch[j].time == m.time && sh.scratch[j].tid > m.tid)) {
			sh.scratch[j+1] = sh.scratch[j]
			j--
		}
		sh.scratch[j+1] = m
	}
	for i := range sh.scratch {
		sh.msgsRecv++
		sh.msgsValidated++
		if sh.dom.sys.LineWriteHeld(sh.scratch[i].addr) {
			sh.msgsConflicts++
		}
	}
	sh.scratch = sh.scratch[:0]
}

// waitHorizon is the slow path behind the lane loop's inline
// `t-DefaultShardLookahead > cachedMin` check: publish our horizon (so the
// lanes we are about to wait on can see our progress), re-read the others'
// minimum, and spin with drains and yields until the event at t is
// covered. The lane loop publishes lazily outside this path — a stale
// published horizon only makes *other* lanes more conservative, never
// incorrect, and the periodic drain block bounds the staleness.
//
//bfgts:allocfree
func (sh *laneShard) waitHorizon(t int64) {
	sh.bar.Publish(sh.idx, t)
	const la = DefaultShardLookahead
	sh.cachedMin = sh.bar.MinOther(sh.idx)
	if t-la <= sh.cachedMin {
		return
	}
	var spins int64
	for t-la > sh.cachedMin {
		sh.drainInbound()
		sh.processDrained()
		runtime.Gosched()
		spins++
		sh.cachedMin = sh.bar.MinOther(sh.idx)
	}
	sh.horizonWait.Observe(spins)
	sh.stallPts = append(sh.stallPts, stallPoint{t: t, spins: spins})
}

// finish retires the lane: it publishes a +inf horizon (unblocking every
// other lane) and keeps draining inbound probes until all lanes are done
// and its rings are empty, so late probes from slower lanes are still
// counted.
func (sh *laneShard) finish() {
	sh.bar.Done(sh.idx)
	for {
		sh.drainInbound()
		sh.processDrained()
		if sh.bar.AllDone() && sh.inboundEmpty() {
			return
		}
		runtime.Gosched()
	}
}

// inboundEmpty reports whether every inbound ring is drained.
//
//bfgts:allocfree
func (sh *laneShard) inboundEmpty() bool {
	for _, ring := range sh.in {
		if ring == nil {
			continue
		}
		if ring.head.Load() < ring.tail.Load() {
			return false
		}
	}
	return true
}

// partitionable reports whether this configuration can take the
// fully-partitioned concurrent path: the workload must declare a valid
// shard partition, the manager must be shard-safe (no cross-shard shared
// state, no draws from the shared Env.Rand), cores must split evenly, and
// the global observers whose output depends on cross-lane interleaving
// (trace, decision records, similarity profiling, FlipBegin's global begin
// numbering) must be off. Everything else falls back to the sequential
// engine.
func (r *Runner) partitionable() bool {
	cfg := &r.cfg
	if cfg.Trace != nil || cfg.Decisions != nil || cfg.ProfileSimilarity || cfg.FlipBegin != 0 {
		return false
	}
	if cfg.Cores%cfg.Shards != 0 {
		return false
	}
	sharder, ok := cfg.Workload.(workload.Sharder)
	if !ok {
		return false
	}
	if _, ok := sharder.ShardPlan(cfg.Shards, cfg.Cores, cfg.ThreadsPerCore); !ok {
		return false
	}
	// Probe-construct a manager against a throwaway env purely to check
	// the ShardSafe marker; the instance is discarded.
	probe := cfg.NewManager(sched.Env{
		NumCPUs:    cfg.Cores,
		NumThreads: cfg.Cores * cfg.ThreadsPerCore,
		NumStatic:  cfg.Workload.NumStatic(),
		CPUOf:      func(tid int) int { return tid % cfg.Cores },
		Wake:       func(int) {},
		Rand:       rand.New(rand.NewSource(int64(cfg.Seed) ^ 0x5bf0f7c9)),
	})
	_, safe := probe.(sched.ShardSafe)
	return safe
}

// setupShards builds the partitioned-mode coupling: the barrier, the
// all-pairs probe rings, and each lane's laneShard.
func (r *Runner) setupShards() {
	n := len(r.lanes)
	plan, _ := r.cfg.Workload.(workload.Sharder).ShardPlan(n, r.cfg.Cores, r.cfg.ThreadsPerCore)
	bar := newShardBarrier(n)
	rings := make([][]*shardRing, n)
	for i := range rings {
		rings[i] = make([]*shardRing, n)
		for j := range rings[i] {
			if i != j {
				rings[i][j] = newShardRing()
			}
		}
	}
	// Probes are pure diagnostics: the shared region is read-only under the
	// partition contract, so validation never changes a result — its only
	// output is the sim.shard.msgs.* counters. With metrics off the traffic
	// would be invisible, so it is not generated at all: an unreachable
	// sharedBase makes the runner's addr >= sharedBase probe guard always
	// false, at zero extra cost on the access hot path.
	sharedBase := plan.SharedBase
	if r.cfg.Metrics == nil {
		sharedBase = ^uint64(0)
	}
	for _, ln := range r.lanes {
		sh := &laneShard{
			idx:        ln.idx,
			bar:        bar,
			sharedBase: sharedBase,
			owner:      plan.OwnerShard,
			dom:        ln.dom,
			out:        rings[ln.idx],
			in:         make([]*shardRing, n),
			//bfgts:ignore metricshoist per-shard instrument acquired once at construction
			horizonWait: r.cfg.Metrics.Histogram(
				fmt.Sprintf("sim.shard.%02d.horizon_wait", ln.idx)),
		}
		for j := 0; j < n; j++ {
			sh.in[j] = rings[j][ln.idx]
		}
		ln.shard = sh
	}
}

// runPartitioned starts one goroutine per lane and waits for all of them.
func (r *Runner) runPartitioned() {
	var wg sync.WaitGroup
	for _, ln := range r.lanes {
		wg.Add(1)
		go func(ln *laneState) {
			defer wg.Done()
			r.laneLoop(ln)
		}(ln)
	}
	wg.Wait()
}

// laneLoop is one partitioned lane's event loop: publish the next event's
// time, wait for the horizon to cover it, fire it, and periodically drain
// inbound probes. It mirrors the sequential driver's stop conditions
// (heap empty, all lane threads exited, MaxCycles exceeded) per lane.
func (r *Runner) laneLoop(ln *laneState) {
	sh := ln.shard
	ln.mac.Start()
	sinceDrain := 0
	for {
		t := ln.eng.PeekTime()
		if t == NoPending {
			break
		}
		if t-DefaultShardLookahead > sh.cachedMin {
			sh.waitHorizon(t)
		}
		ln.eng.Step()
		if r.cfg.MaxCycles > 0 && ln.eng.Now() > r.cfg.MaxCycles {
			ln.timedOut = true
			break
		}
		if ln.mac.LiveThreads() == 0 {
			break
		}
		sinceDrain++
		if sinceDrain >= shardDrainInterval {
			sinceDrain = 0
			// The periodic publish bounds how stale our advertised horizon
			// can get while we free-run inside the lookahead window, so
			// waiting lanes keep moving.
			sh.bar.Publish(sh.idx, t)
			sh.drainInbound()
			sh.processDrained()
		}
	}
	sh.finish()
}

// mergeShardMetrics folds the per-domain registries and the shard-layer
// instrumentation into the caller's registry after a partitioned run.
// Message counters are deterministic (pure functions of each lane's event
// stream); spin counts and stall points measure host scheduling and vary
// run to run, which is documented in the README.
func (r *Runner) mergeShardMetrics() {
	reg := r.cfg.Metrics
	for _, dom := range r.doms {
		reg.Merge(dom.reg)
	}
	reg.Gauge("sim.shard.count").Set(float64(len(r.lanes)))
	ser := reg.Series("ts.shard.barrier_stall", metrics.DefaultSeriesCap)
	var sent, recv, validated, conflicts, stalls int64
	for _, ln := range r.lanes {
		sh := ln.shard
		sent += sh.msgsSent
		recv += sh.msgsRecv
		validated += sh.msgsValidated
		conflicts += sh.msgsConflicts
		stalls += sh.sendStallSpins
		for _, p := range sh.stallPts {
			ser.Append(p.t, float64(p.spins))
		}
	}
	reg.Counter("sim.shard.msgs.sent").Add(sent)
	reg.Counter("sim.shard.msgs.recv").Add(recv)
	reg.Counter("sim.shard.msgs.validated").Add(validated)
	reg.Counter("sim.shard.msgs.conflicts").Add(conflicts)
	reg.Counter("sim.shard.send_stall_spins").Add(stalls)
}
