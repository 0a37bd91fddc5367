package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/decision"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tm"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runWithShards builds a runner, records which execution mode it chose, and
// runs it to completion.
func runWithShards(t *testing.T, cfg RunConfig) (*Result, runMode) {
	t.Helper()
	r := NewRunner(cfg)
	mode := r.mode
	res := r.Run()
	if res.TimedOut {
		t.Fatalf("%s on %s timed out (shards=%d)", res.ManagerName, res.WorkloadName, cfg.Shards)
	}
	return res, mode
}

// TestShardedFallbackMatchesSequential is the sharding differential for
// configurations that cannot partition: over a randomized matrix of
// workload shapes, managers, machine sizes, shard counts and seeds, the
// sharded run must fall back to the sequential engine and produce a Result
// deeply equal to the unsharded run — makespan, counts, breakdown, conflict
// matrix, latency histograms, attempt summaries, and the full metrics
// snapshot (including the time-series sampler). Synthetic workloads do not
// implement workload.Sharder, so Shards > 1 always falls back here.
func TestShardedFallbackMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	managers := allManagers()
	for trial := 0; trial < 10; trial++ {
		mgr := managers[trial%len(managers)]
		nStatic := 1 + rng.Intn(3)
		span := 2 + rng.Intn(6)
		txs := 8 + rng.Intn(20)
		hot := 4 + rng.Intn(60)
		cores := 2 + rng.Intn(15)
		tpc := 1 + rng.Intn(3)
		shards := 2 + rng.Intn(15)
		seed := uint64(1 + rng.Intn(1000))
		withMetrics := trial%3 == 0

		w := newSynth(fmt.Sprintf("shard-diff%d", trial), nStatic, txs, span)
		w.body = int64(50 + rng.Intn(400))
		w.pre = int64(100 + rng.Intn(2000))
		w.pick = func(tid, i int, rng *workload.RNG) int { return rng.Intn(hot) }
		w.stxOf = func(tid, i int) int { return i % nStatic }

		run := func(shards int) (*Result, runMode) {
			cfg := RunConfig{
				Cores:          cores,
				ThreadsPerCore: tpc,
				Seed:           seed,
				Workload:       w,
				NewManager:     managerFactory(mgr),
				MaxCycles:      2_000_000_000,
				Shards:         shards,
			}
			if withMetrics {
				cfg.Metrics = metrics.New()
				cfg.SampleInterval = 10_000
			}
			return runWithShards(t, cfg)
		}
		name := fmt.Sprintf("trial=%d mgr=%s cores=%d tpc=%d shards=%d seed=%d metrics=%v",
			trial, mgr, cores, tpc, shards, seed, withMetrics)
		seq, _ := run(1)
		shd, shdMode := run(shards)
		if shdMode != modeSeq {
			t.Fatalf("%s: sharded run took mode %d, want the sequential fallback", name, shdMode)
		}
		if !reflect.DeepEqual(seq, shd) {
			t.Errorf("%s: sharded Result differs\n seq:   makespan=%d commits=%d aborts=%d breakdown=%v\n shard: makespan=%d commits=%d aborts=%d breakdown=%v",
				name,
				seq.Makespan, seq.Commits, seq.Aborts, seq.Breakdown,
				shd.Makespan, shd.Commits, shd.Aborts, shd.Breakdown)
		}
	}
}

// wideCfg is the canonical partitioned configuration: the wide workload
// (which implements workload.Sharder) under the shard-safe per-thread
// backoff manager.
func wideCfg(cores, tpc, txs, shards int) RunConfig {
	return RunConfig{
		Cores:          cores,
		ThreadsPerCore: tpc,
		Seed:           11,
		Workload:       workload.NewWide(cores, tpc, txs),
		NewManager:     func(env sched.Env) sched.Manager { return sched.NewPerThreadBackoff(env) },
		MaxCycles:      2_000_000_000,
		Shards:         shards,
	}
}

// TestPartitionedWideMatchesSequential is the partitioned-mode differential:
// the wide workload under the shard-safe manager must produce the identical
// Result at every shard count — exactly, except for AttemptsPerCommit, whose
// merged Welford recombination may differ from the sequential sample order
// in the last float64 bits (Result documents this); its integer fields and
// extrema must still match exactly.
func TestPartitionedWideMatchesSequential(t *testing.T) {
	seq, seqMode := runWithShards(t, wideCfg(16, 4, 4000, 1))
	if seqMode != modeSeq {
		t.Fatalf("sequential run took mode %d", seqMode)
	}
	if seq.Aborts == 0 {
		t.Fatal("wide workload produced no contention; the differential is vacuous")
	}
	for _, shards := range []int{2, 4, 8} {
		shd, mode := runWithShards(t, wideCfg(16, 4, 4000, shards))
		if mode != modePartitioned {
			t.Fatalf("shards=%d took mode %d, want partitioned", shards, mode)
		}
		a, b := *seq, *shd
		sa, sb := a.AttemptsPerCommit, b.AttemptsPerCommit
		a.AttemptsPerCommit, b.AttemptsPerCommit = stats.Summary{}, stats.Summary{}
		if !reflect.DeepEqual(&a, &b) {
			t.Errorf("shards=%d: Result differs\n seq:   makespan=%d commits=%d aborts=%d breakdown=%v\n shard: makespan=%d commits=%d aborts=%d breakdown=%v",
				shards,
				seq.Makespan, seq.Commits, seq.Aborts, seq.Breakdown,
				shd.Makespan, shd.Commits, shd.Aborts, shd.Breakdown)
		}
		if sa.N() != sb.N() || sa.Min() != sb.Min() || sa.Max() != sb.Max() {
			t.Errorf("shards=%d: attempts summary shape differs: n=%d/%d min=%v/%v max=%v/%v",
				shards, sa.N(), sb.N(), sa.Min(), sb.Min(), sa.Max(), sb.Max())
		}
		if d := math.Abs(sa.Mean() - sb.Mean()); d > 1e-9 {
			t.Errorf("shards=%d: attempts mean drifted %g beyond float merge noise", shards, d)
		}
	}
}

// TestPartitionedShardMetrics checks the shard-layer instrumentation of a
// partitioned run: the shard count gauge, per-shard horizon-wait histograms,
// and the probe counters. Cross-shard probes target the read-only shared
// region, so the conflict counter must be exactly zero, and sent probes are
// a deterministic function of the event streams, so they must equal recv
// and validated after the final drain.
func TestPartitionedShardMetrics(t *testing.T) {
	cfg := wideCfg(8, 2, 2000, 4)
	cfg.Metrics = metrics.New()
	res, mode := runWithShards(t, cfg)
	if mode != modePartitioned {
		t.Fatalf("took mode %d, want partitioned", mode)
	}
	snap := res.Metrics
	if got := snap.Gauges["sim.shard.count"]; got != 4 {
		t.Errorf("sim.shard.count = %v, want 4", got)
	}
	sent := snap.Counters["sim.shard.msgs.sent"]
	if sent == 0 {
		t.Error("no cross-shard probes were sent; the wide lookup should probe the shared region")
	}
	if recv := snap.Counters["sim.shard.msgs.recv"]; recv != sent {
		t.Errorf("probes sent=%d recv=%d; final drain lost messages", sent, recv)
	}
	if v := snap.Counters["sim.shard.msgs.validated"]; v != sent {
		t.Errorf("probes sent=%d validated=%d", sent, v)
	}
	if c := snap.Counters["sim.shard.msgs.conflicts"]; c != 0 {
		t.Errorf("%d probe conflicts on a read-only shared region (partition contract violated)", c)
	}
	for i := 0; i < 4; i++ {
		if _, ok := snap.Histograms[fmt.Sprintf("sim.shard.%02d.horizon_wait", i)]; !ok {
			t.Errorf("missing per-shard horizon_wait histogram for shard %d", i)
		}
	}
}

// TestPartitionedFallbacks pins every eligibility edge of the partitioned
// path: a non-shard-safe manager, a non-Sharder workload, a core count the
// shard count does not divide, a partition the workload refuses (odd
// cores-per-shard splits a wide pair), and the global observers (similarity
// profiling, a decision recorder, a trace) all fall back to the sequential
// engine, with a Result equal to the unsharded run's.
func TestPartitionedFallbacks(t *testing.T) {
	if r := NewRunner(wideCfg(8, 2, 200, 2)); r.mode != modePartitioned {
		t.Errorf("even pair split (4 cores per shard): mode %d, want partitioned", r.mode)
	}

	cases := []struct {
		name string
		cfg  func() RunConfig
	}{
		{"shared-rand Backoff", func() RunConfig {
			cfg := wideCfg(16, 2, 200, 4)
			cfg.NewManager = managerFactory("backoff")
			return cfg
		}},
		{"non-Sharder workload", func() RunConfig {
			cfg := wideCfg(16, 2, 200, 4)
			cfg.Workload = newSynth("notsharder", 1, 5, 3)
			return cfg
		}},
		{"uneven core split", func() RunConfig { return wideCfg(16, 2, 200, 5) }},  // 16 % 5 != 0
		{"odd cores-per-shard", func() RunConfig { return wideCfg(9, 2, 200, 3) }}, // splits pair (2,3)
		// Global observers force the fallback even when the partition is
		// valid: their output depends on the cross-lane interleaving.
		{"similarity profiling", func() RunConfig {
			cfg := wideCfg(16, 2, 200, 4)
			cfg.ProfileSimilarity = true
			return cfg
		}},
		{"decision recorder", func() RunConfig {
			cfg := wideCfg(16, 2, 200, 4)
			cfg.Decisions = decision.NewSet(32, 0)
			return cfg
		}},
		{"trace", func() RunConfig {
			cfg := wideCfg(16, 2, 200, 4)
			cfg.Trace = &trace.Recorder{}
			return cfg
		}},
	}
	for _, c := range cases {
		sharded := c.cfg()
		r := NewRunner(sharded)
		if r.mode != modeSeq {
			t.Errorf("%s: mode %d, want the sequential fallback", c.name, r.mode)
		}
		shd := r.Run()
		unsharded := c.cfg()
		unsharded.Shards = 1
		seq, _ := runWithShards(t, unsharded)
		if !reflect.DeepEqual(seq, shd) {
			t.Errorf("%s: Result differs from the unsharded run: makespan %d vs %d, commits %d vs %d",
				c.name, seq.Makespan, shd.Makespan, seq.Commits, shd.Commits)
		}
	}
}

// TestShardBarrierRace stress-tests the barrier under the race detector:
// every lane publishes a monotone horizon stream while reading the others'
// minimum, which must itself be monotone (horizons only move forward).
func TestShardBarrierRace(t *testing.T) {
	const lanes = 4
	bar := newShardBarrier(lanes)
	var wg sync.WaitGroup
	errs := make([]error, lanes)
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			last := int64(-1)
			for step := int64(1); step <= 3000; step++ {
				bar.Publish(i, step*int64(i+1))
				m := bar.MinOther(i)
				if m < last {
					errs[i] = fmt.Errorf("lane %d: MinOther went backwards: %d then %d", i, last, m)
					return
				}
				last = m
			}
			bar.Done(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bar.AllDone() {
		t.Fatal("AllDone false after every lane called Done")
	}
}

// TestShardRingSPSC drives the probe ring from concurrent producer and
// consumer goroutines (the partitioned deployment shape) and requires exact
// FIFO delivery — under -race this also checks the tail-store/load
// publication protocol for the non-atomic slot writes.
func TestShardRingSPSC(t *testing.T) {
	ring := newShardRing()
	const n = 200_000
	done := make(chan error, 1)
	go func() {
		next := int64(0)
		for next < n {
			m, ok := ring.pop()
			if !ok {
				runtime.Gosched()
				continue
			}
			if m.time != next {
				done <- fmt.Errorf("popped %d, want %d", m.time, next)
				return
			}
			next++
		}
		done <- nil
	}()
	for i := int64(0); i < n; {
		if ring.push(shardMsg{time: i}) {
			i++
		} else {
			// The ring is intentionally small; on a single-CPU host a
			// full ring stays full until the consumer gets scheduled.
			runtime.Gosched()
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestPartitionedRaceStress runs real partitioned simulations back to back;
// under check.sh's -race run this exercises the rings, the barrier and the
// per-lane domains with genuine concurrent traffic.
func TestPartitionedRaceStress(t *testing.T) {
	for rep := 0; rep < 3; rep++ {
		cfg := wideCfg(8, 2, 1500, 4)
		cfg.Seed = uint64(rep + 1)
		cfg.Metrics = metrics.New()
		if _, mode := runWithShards(t, cfg); mode != modePartitioned {
			t.Fatalf("rep %d not partitioned", rep)
		}
	}
}

// TestShardHotPathAllocFree is the runtime allocation gate for the shard
// hot paths (ring push/pop, barrier publish/min, probe send/drain/validate,
// horizon wait); the //bfgts:allocfree directives on these
// functions are cross-checked by TestAllocFreeMarkersMatchRuntimeGates.
func TestShardHotPathAllocFree(t *testing.T) {
	ring := newShardRing()
	ring.push(shardMsg{}) // first push sizes the lazy buffer
	ring.pop()
	if a := testing.AllocsPerRun(1000, func() {
		ring.push(shardMsg{time: 1})
		ring.pop()
	}); a != 0 {
		t.Errorf("ring push/pop allocates %v/op", a)
	}

	bar := newShardBarrier(3)
	if a := testing.AllocsPerRun(1000, func() {
		bar.Publish(0, 5)
		_ = bar.MinOther(0)
	}); a != 0 {
		t.Errorf("barrier publish/min allocates %v/op", a)
	}

	// A two-lane probe loop: lane 0 sends to lane 1, lane 1 drains and
	// validates. One warm-up round sizes the scratch buffer.
	fwd := newShardRing()
	dom := &domainState{sys: tm.NewSystem(1)}
	sh0 := &laneShard{idx: 0, owner: func(addr uint64) int { return 1 }, dom: dom,
		out: []*shardRing{nil, fwd}, in: []*shardRing{nil, nil}}
	sh1 := &laneShard{idx: 1, owner: func(addr uint64) int { return 1 }, dom: dom,
		out: []*shardRing{nil, nil}, in: []*shardRing{fwd, nil}}
	tick := int64(0)
	probe := func() {
		tick++
		sh0.probeShared(tick, 3, 0x40)
		sh1.drainInbound()
		sh1.processDrained()
		_ = sh1.inboundEmpty()
	}
	probe()
	if a := testing.AllocsPerRun(1000, probe); a != 0 {
		t.Errorf("probe send/drain/validate allocates %v/op", a)
	}

	// Horizon wait, fast path (the other lane's horizon is +inf).
	wbar := newShardBarrier(2)
	wbar.Publish(0, NoPending)
	shw := &laneShard{idx: 1, bar: wbar, in: []*shardRing{nil, nil}}
	wt := int64(0)
	if a := testing.AllocsPerRun(1000, func() {
		wt++
		shw.waitHorizon(wt)
	}); a != 0 {
		t.Errorf("waitHorizon fast path allocates %v/op", a)
	}
}
