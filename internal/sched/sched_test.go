package sched

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

func testEnv(nCPUs, nThreads, nStatic int) (Env, *[]int) {
	woken := &[]int{}
	return Env{
		NumCPUs:    nCPUs,
		NumThreads: nThreads,
		NumStatic:  nStatic,
		CPUOf:      func(tid int) int { return tid % nCPUs },
		Wake:       func(tid int) { *woken = append(*woken, tid) },
		Rand:       rand.New(rand.NewSource(1)),
	}, woken
}

func TestBackoffAlwaysProceeds(t *testing.T) {
	env, _ := testEnv(4, 16, 2)
	b := NewBackoff(env)
	if r := b.OnBegin(0, 0); r.Action != Proceed || r.Overhead != 0 {
		t.Fatalf("backoff begin = %+v, want free Proceed", r)
	}
}

func TestBackoffWindowGrowsWithAttempts(t *testing.T) {
	env, _ := testEnv(4, 16, 2)
	b := NewBackoff(env)
	max := func(attempts, trials int) int64 {
		var m int64
		for i := 0; i < trials; i++ {
			if r := b.OnAbort(0, 0, 1, 1, attempts); r.Backoff > m {
				m = r.Backoff
			}
		}
		return m
	}
	if m1, m8 := max(1, 50), max(8, 50); m8 <= m1 {
		t.Fatalf("backoff window did not grow: attempt1 max %d, attempt8 max %d", m1, m8)
	}
}

func TestBackoffWindowCapped(t *testing.T) {
	env, _ := testEnv(4, 16, 2)
	b := NewBackoff(env)
	limit := b.BaseCycles << b.MaxShift
	for i := 0; i < 100; i++ {
		if r := b.OnAbort(0, 0, 1, 1, 1000); r.Backoff > limit {
			t.Fatalf("backoff %d exceeds cap %d", r.Backoff, limit)
		}
	}
}

func TestATSLowPressureBypassesQueue(t *testing.T) {
	env, _ := testEnv(4, 16, 2)
	a := NewATS(env)
	for tid := 0; tid < 8; tid++ {
		if r := a.OnBegin(tid, 0); r.Action != Proceed {
			t.Fatalf("low-pressure begin for tid %d = %+v, want Proceed", tid, r)
		}
	}
	if a.QueueLen() != 0 {
		t.Fatal("queue grew under low pressure")
	}
}

func raiseATSPressure(a *ATS, stx int) {
	for i := 0; i < 20; i++ {
		a.OnAbort(0, stx, 1, stx, 1)
	}
}

func TestATSHighPressureSerializes(t *testing.T) {
	env, woken := testEnv(4, 16, 2)
	a := NewATS(env)
	raiseATSPressure(a, 0)
	if a.Pressure(0) <= a.Threshold {
		t.Fatalf("pressure = %v, not above threshold %v", a.Pressure(0), a.Threshold)
	}
	// First high-pressure transaction takes the token and proceeds.
	if r := a.OnBegin(3, 0); r.Action != Proceed {
		t.Fatalf("first serialized begin = %+v, want Proceed (token)", r)
	}
	// The next two must block.
	if r := a.OnBegin(4, 0); r.Action != Block {
		t.Fatalf("second begin = %+v, want Block", r)
	}
	if r := a.OnBegin(5, 0); r.Action != Block {
		t.Fatalf("third begin = %+v, want Block", r)
	}
	if a.QueueLen() != 2 {
		t.Fatalf("queue length = %d, want 2", a.QueueLen())
	}
	// Token holder commits: head of queue is woken and proceeds.
	a.OnCommit(3, 0, nil, nil, 1)
	if len(*woken) != 1 || (*woken)[0] != 4 {
		t.Fatalf("woken = %v, want [4]", *woken)
	}
	if r := a.OnBegin(4, 0); r.Action != Proceed {
		t.Fatalf("woken thread begin = %+v, want Proceed", r)
	}
}

func TestATSTokenKeptAcrossAbortRetry(t *testing.T) {
	env, _ := testEnv(4, 16, 2)
	a := NewATS(env)
	raiseATSPressure(a, 0)
	a.OnBegin(3, 0)          // takes token
	a.OnAbort(3, 0, 1, 0, 1) // aborts; the retry is pending
	if r := a.OnBegin(3, 0); r.Action != Proceed {
		t.Fatalf("retry of token holder = %+v, want Proceed", r)
	}
}

func TestATSPressureDecaysOnCommit(t *testing.T) {
	env, _ := testEnv(4, 16, 2)
	a := NewATS(env)
	raiseATSPressure(a, 0)
	p := a.Pressure(0)
	for i := 0; i < 30; i++ {
		a.OnCommit(0, 0, nil, nil, 1)
	}
	if a.Pressure(0) >= p || a.Pressure(0) > a.Threshold {
		t.Fatalf("pressure did not decay: %v -> %v", p, a.Pressure(0))
	}
}

func linesOf(addrs ...uint64) []uint64 { return addrs }

func TestPTSLearnsAndSerializes(t *testing.T) {
	env, _ := testEnv(4, 16, 2)
	p := NewPTS(env)
	// Initially optimistic.
	if r := p.OnBegin(0, 0); r.Action != Proceed {
		t.Fatal("PTS not optimistic initially")
	}
	// Thread 1 (stx 1) is running on CPU 1.
	enemy := p.dtx(1, 1)
	p.OnCPUSlot(1, enemy)
	// Conflicts between (0,0) and (1,1) strengthen the edge.
	for i := 0; i < 3; i++ {
		p.OnAbort(0, 0, 1, 1, 1)
	}
	r := p.OnBegin(0, 0)
	if r.Action != YieldRetry || r.WaitDTx != enemy {
		t.Fatalf("begin after learned conflicts = %+v, want YieldRetry behind %d", r, enemy)
	}
}

func TestPTSKeysGraphByDynamicID(t *testing.T) {
	env, _ := testEnv(4, 16, 2)
	p := NewPTS(env)
	p.OnCPUSlot(1, p.dtx(1, 1))
	for i := 0; i < 3; i++ {
		p.OnAbort(0, 0, 1, 1, 1)
	}
	// A different thread running the same static transaction pair has no
	// learned edge — PTS does not generalize across threads (its key
	// weakness vs BFGTS's static-ID tables).
	if r := p.OnBegin(2, 0); r.Action != Proceed {
		t.Fatalf("PTS generalized across threads: %+v", r)
	}
	if p.GraphEdges() == 0 {
		t.Fatal("no graph edges materialized")
	}
}

func TestPTSCommitValidationWeakensFalsePredictions(t *testing.T) {
	env, _ := testEnv(4, 16, 2)
	p := NewPTS(env)
	enemy := p.dtx(1, 1)
	self := p.dtx(0, 0)
	// Learn an edge and give the enemy a committed signature over lines
	// 1000.. while self commits disjoint lines: validation must decay.
	p.OnCPUSlot(1, enemy)
	for i := 0; i < 3; i++ {
		p.OnAbort(0, 0, 1, 1, 1)
	}
	p.OnCommit(1, 1, linesOf(1000*64, 1001*64, 1002*64), linesOf(1000*64), 3)
	before := p.Confidence(self, enemy)
	p.OnBegin(0, 0) // records waitingOn
	p.OnCommit(0, 0, linesOf(5000*64, 5001*64, 5002*64), linesOf(5000*64), 3)
	after := p.Confidence(self, enemy)
	if after >= before {
		t.Fatalf("validation did not weaken edge: %v -> %v", before, after)
	}
}

func bfgtsFor(t *testing.T, mode BFGTSMode) (*BFGTS, Env) {
	t.Helper()
	env, _ := testEnv(4, 16, 3)
	cfg := core.DefaultConfig(env.NumThreads, env.NumStatic)
	cfg.SimInterval = 1
	cfg.SmallTxLines = 10
	return NewBFGTS(env, mode, cfg), env
}

func TestBFGTSOptimisticInitially(t *testing.T) {
	for _, mode := range []BFGTSMode{BFGTSSW, BFGTSHW, BFGTSHWBackoff, BFGTSNoOverhead} {
		b, _ := bfgtsFor(t, mode)
		if r := b.OnBegin(0, 0); r.Action != Proceed {
			t.Fatalf("%v initial begin = %+v, want Proceed", mode, r)
		}
	}
}

func TestBFGTSLearnsConflictAndSerializes(t *testing.T) {
	for _, mode := range []BFGTSMode{BFGTSSW, BFGTSHW, BFGTSNoOverhead} {
		b, _ := bfgtsFor(t, mode)
		enemy := b.Runtime().Config().DTx(1, 1)
		b.OnCPUSlot(1, enemy)
		for i := 0; i < 10; i++ {
			b.OnAbort(0, 0, 1, 1, 1)
		}
		r := b.OnBegin(0, 0)
		if r.Action == Proceed {
			t.Fatalf("%v did not serialize after repeated conflicts: %+v", mode, r)
		}
		if r.WaitDTx != enemy {
			t.Fatalf("%v serialized behind %d, want %d", mode, r.WaitDTx, enemy)
		}
	}
}

func TestBFGTSGeneralizesAcrossThreads(t *testing.T) {
	// Unlike PTS, BFGTS keys confidence by static IDs: conflicts seen by
	// thread 0 inform thread 2's scheduling.
	b, _ := bfgtsFor(t, BFGTSSW)
	enemy := b.Runtime().Config().DTx(1, 1)
	b.OnCPUSlot(1, enemy)
	for i := 0; i < 10; i++ {
		b.OnAbort(0, 0, 1, 1, 1)
	}
	if r := b.OnBegin(2, 0); r.Action == Proceed {
		t.Fatal("BFGTS did not generalize learned conflict across threads")
	}
}

func TestBFGTSSpinVsYieldBySize(t *testing.T) {
	b, _ := bfgtsFor(t, BFGTSSW)
	rt := b.Runtime()
	cfg := rt.Config()
	small, big := cfg.DTx(1, 1), cfg.DTx(2, 2)
	// Establish sizes: small tx of 2 lines, big of 50.
	rt.CommitTx(small, linesOf(64, 128), linesOf(64), 2)
	bigLines := make([]uint64, 50)
	for i := range bigLines {
		bigLines[i] = uint64(10000+i) * 64
	}
	rt.CommitTx(big, bigLines, bigLines, 50)

	for i := 0; i < 10; i++ {
		b.OnAbort(0, 0, 1, 1, 1)
		b.OnAbort(0, 0, 2, 2, 1)
	}
	b.OnCPUSlot(1, small)
	if r := b.OnBegin(0, 0); r.Action != SpinWait {
		t.Fatalf("wait behind small tx = %+v, want SpinWait", r)
	}
	b.OnCPUSlot(1, core.NoTx)
	b.OnCPUSlot(2, big)
	if r := b.OnBegin(0, 0); r.Action != YieldRetry {
		t.Fatalf("wait behind big tx = %+v, want YieldRetry", r)
	}
}

func TestBFGTSHWCheaperThanSW(t *testing.T) {
	sw, _ := bfgtsFor(t, BFGTSSW)
	hw, _ := bfgtsFor(t, BFGTSHW)
	enemy := sw.Runtime().Config().DTx(1, 1)
	sw.OnCPUSlot(1, enemy)
	hw.OnCPUSlot(1, enemy)
	swCost := sw.OnBegin(0, 0).Overhead
	hw.OnBegin(0, 0) // warm the confidence cache
	hwCost := hw.OnBegin(0, 0).Overhead
	if hwCost >= swCost {
		t.Fatalf("HW begin (%d cyc) not cheaper than SW begin (%d cyc)", hwCost, swCost)
	}
}

func TestBFGTSNoOverheadCostsOneCycle(t *testing.T) {
	b, _ := bfgtsFor(t, BFGTSNoOverhead)
	if r := b.OnBegin(0, 0); r.Overhead != 1 {
		t.Fatalf("NoOverhead begin cost = %d, want 1", r.Overhead)
	}
	if c := b.OnCommit(0, 0, linesOf(64, 128), linesOf(64), 2); c != 1 {
		t.Fatalf("NoOverhead commit cost = %d, want 1", c)
	}
}

func TestHybridSkipsPredictionWhenCalm(t *testing.T) {
	b, _ := bfgtsFor(t, BFGTSHWBackoff)
	enemy := b.Runtime().Config().DTx(1, 1)
	b.OnCPUSlot(1, enemy)
	// Teach the runtime the conflict but keep pressure at zero: the
	// hybrid must still proceed (backoff mode).
	for i := 0; i < 10; i++ {
		b.Runtime().TxConflict(b.Runtime().Config().DTx(0, 0), enemy)
	}
	if r := b.OnBegin(0, 0); r.Action != Proceed || r.Overhead > 10 {
		t.Fatalf("calm hybrid begin = %+v, want cheap Proceed", r)
	}
}

func TestHybridEngagesUnderPressure(t *testing.T) {
	b, _ := bfgtsFor(t, BFGTSHWBackoff)
	enemy := b.Runtime().Config().DTx(1, 1)
	b.OnCPUSlot(1, enemy)
	// Aborts raise pressure (alpha 0.95, so it takes a sustained burst)
	// and teach the conflict.
	for i := 0; i < 80; i++ {
		b.OnAbort(0, 0, 1, 1, 1)
	}
	if r := b.OnBegin(0, 0); r.Action == Proceed {
		t.Fatalf("pressured hybrid begin = %+v, want serialization", r)
	}
}

func TestHybridCommitLightUnderLowPressure(t *testing.T) {
	b, _ := bfgtsFor(t, BFGTSHWBackoff)
	full, _ := bfgtsFor(t, BFGTSHW)
	lines := make([]uint64, 40)
	for i := range lines {
		lines[i] = uint64(i) * 64
	}
	// Warm both with one commit so similarity work happens on the second.
	b.OnCommit(0, 0, lines, lines, 40)
	full.OnCommit(0, 0, lines, lines, 40)
	calm := b.OnCommit(0, 0, lines, lines, 40)
	busy := full.OnCommit(0, 0, lines, lines, 40)
	if calm >= busy {
		t.Fatalf("calm hybrid commit (%d cyc) not cheaper than full commit (%d cyc)", calm, busy)
	}
}

func TestPressureMeter(t *testing.T) {
	p := newPressureMeter(2, 0.5)
	p.onConflict(0)
	if p.value(0) != 0.5 {
		t.Fatalf("pressure after one conflict = %v, want 0.5", p.value(0))
	}
	p.onCommit(0)
	if p.value(0) != 0.25 {
		t.Fatalf("pressure after commit = %v, want 0.25", p.value(0))
	}
	if p.value(1) != 0 {
		t.Fatal("pressure leaked across static IDs")
	}
}
