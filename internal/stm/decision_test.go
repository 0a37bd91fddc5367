package stm

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/decision"
)

// TestDecisionRecordingLive drives a contended live System with decision
// recording on and checks the stream: every worker's attempts show up as
// proceed records, aborted attempts carry wall-time waste, and the export
// validates under the "ns" unit.
func TestDecisionRecordingLive(t *testing.T) {
	const workers, iters = 4, 300
	set := decision.NewSet(workers, 0)
	sys := NewSystem(Config{
		Workers: workers, StaticTxs: 2, Scheduler: SchedBFGTS,
		Decisions: set,
	})
	shared := NewTVar(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				err := sys.Atomic(w, w%2, func(tx *Tx) error {
					shared.Write(tx, shared.Read(tx)+1)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := shared.Peek(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}

	recs := set.Merge()
	g := decision.Estimate(recs)
	if g.Proceeds < workers*iters {
		t.Fatalf("proceeds %d < %d atomic attempts", g.Proceeds, workers*iters)
	}
	if g.Committed != workers*iters {
		t.Fatalf("committed %d, want %d", g.Committed, workers*iters)
	}
	if g.Aborted != sys.Aborts() {
		t.Fatalf("ledger aborts %d != system aborts %d", g.Aborted, sys.Aborts())
	}
	if g.Aborted > 0 && g.UndercautionCycles == 0 {
		t.Fatal("aborted attempts carried no wall-time waste")
	}
	for i := range recs {
		r := &recs[i]
		if r.Point != decision.PBegin {
			t.Fatalf("unexpected decision point in STM stream: %+v", *r)
		}
		if r.Choice.Serializes() && r.EnemyDTx < 0 {
			t.Fatalf("serialization without enemy: %+v", *r)
		}
	}

	e := decision.NewExport()
	e.AddRun("BFGTS", "counter", "ns", set)
	if err := e.Validate(); err != nil {
		t.Fatalf("live export invalid: %v", err)
	}
	var buf bytes.Buffer
	if err := e.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var c decision.ChromeTrace
	c.AddRun(0, "counter/BFGTS", set)
	buf.Reset()
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestDecisionRecordingAllocFreeLive pins the recording overhead on the
// live hot path: a read-only transaction with decision recording enabled
// must still allocate nothing once the shard's storage is warm.
func TestDecisionRecordingAllocFreeLive(t *testing.T) {
	set := decision.NewSet(1, 1<<14)
	sys := NewSystem(Config{Workers: 1, StaticTxs: 1, Scheduler: SchedBFGTS, Decisions: set})
	v := NewTVar(7)
	run := func() {
		if err := sys.Atomic(0, 0, func(tx *Tx) error {
			v.Read(tx)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm pooled capacities
	// Pre-grow the shard to its cap so append never reallocates mid-gate,
	// then recycle it between runs.
	sh := set.Shard(0)
	for sh.Add(decision.Record{}) >= 0 {
	}
	sh.Reset()
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		run()
		if i++; i%1000 == 0 {
			sh.Reset()
		}
	})
	if allocs != 0 {
		t.Fatalf("recorded read-only transaction allocates %.1f objects/op, want 0", allocs)
	}
}

// TestErrorExitSettlesExecution alternates erroring and committing calls
// on one dtx with decision recording on. The first erroring call is made
// to suspend behind a parked enemy first, so it leaves with a BFGTS
// serialization pending. An error exit must settle its proceed record (as
// aborted, no waste charged: no conflict doomed it) and the suspension,
// and must clear the manager's per-execution state — before the fix the
// next call's commit validated the stale waitingOn against its own
// signature and the records stayed pending forever.
func TestErrorExitSettlesExecution(t *testing.T) {
	set := decision.NewSet(2, 0)
	sys := NewSystem(Config{Workers: 2, StaticTxs: 1, Scheduler: SchedBFGTS, Decisions: set})
	m := sys.mgr.(*bfgtsManager)
	v := NewTVar(1000)
	failure := errors.New("fn gave up")
	failing := func(tx *Tx) error {
		v.Write(tx, v.Read(tx)+1)
		return failure
	}
	committing := func(tx *Tx) error {
		v.Write(tx, v.Read(tx)+1)
		return nil
	}

	// Confidence just over the threshold and worker 1's dtx parked in the
	// CPU table: the first OnBegin predicts a conflict, suspends once (the
	// suspension's decay drops the edge back under the threshold), stalls
	// out its spin budget and proceeds.
	m.conf.Add(0, 0, m.confThreshold+0.02)
	sys.setRunning(1, 1)
	if err := sys.Atomic(0, 0, failing); !errors.Is(err, failure) {
		t.Fatalf("error = %v, want the one fn returned", err)
	}
	sys.setRunning(1, core.NoTx)
	if sys.met.stalls.Load()+sys.met.yields.Load() != 1 {
		t.Fatalf("set-up: want exactly one suspension, got %d stalls %d yields", sys.met.stalls.Load(), sys.met.yields.Load())
	}
	if st := &m.stats[0]; st.waitingOn != core.NoTx || st.decTok != -1 {
		t.Fatalf("error exit left waitingOn=%d decTok=%d for the next call", st.waitingOn, st.decTok)
	}

	const rounds = 5
	for i := 0; i < rounds; i++ {
		if err := sys.Atomic(0, 0, committing); err != nil {
			t.Fatal(err)
		}
		if err := sys.Atomic(0, 0, failing); !errors.Is(err, failure) {
			t.Fatalf("error = %v, want the one fn returned", err)
		}
	}
	if got := v.Peek(); got != 1000+rounds {
		t.Fatalf("value = %d, want %d: only the committing calls count", got, 1000+rounds)
	}
	if hits, misses := sys.met.validHits.Load(), sys.met.validMisses.Load(); hits+misses != 0 {
		t.Fatalf("a commit validated a suspension no committing call made (hits=%d misses=%d)", hits, misses)
	}

	recs := set.Merge()
	for i := range recs {
		if r := &recs[i]; r.Outcome == decision.OPending {
			t.Fatalf("record left pending: %+v", *r)
		}
	}
	g := decision.Estimate(recs)
	if g.Committed != rounds || g.Aborted != rounds+1 || g.Overcautious != 1 || g.Justified != 0 {
		t.Fatalf("ledger committed=%d aborted=%d overcautious=%d justified=%d, want %d/%d/1/0",
			g.Committed, g.Aborted, g.Overcautious, g.Justified, rounds, rounds+1)
	}
	if g.UndercautionCycles != 0 {
		t.Fatalf("error exits were charged %d ns of undercaution; no conflict doomed them", g.UndercautionCycles)
	}
}
