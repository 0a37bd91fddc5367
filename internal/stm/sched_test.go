package stm

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// TestBFGTSPredictTable pins the begin-time prediction on hand-set running
// slots and confidences: it returns the dtx running in the lowest worker
// slot whose static transaction's confidence against the caller's clears
// the threshold (0.30), skipping the caller's own slot and empty ones.
// Six workers, three static transactions: the dtx in slot w running stx s
// is 3w+s; the caller is worker 2 running stx 0.
func TestBFGTSPredictTable(t *testing.T) {
	const caller, stx = 2, 0
	no := core.NoTx
	for _, tc := range []struct {
		name    string
		running [6]int          // dtx per worker slot
		conf    map[int]float64 // confidence of stx 0 against each static tx
		want    int
	}{
		{"empty machine", [6]int{no, no, no, no, no, no}, map[int]float64{1: 1, 2: 1}, no},
		{"only self above threshold", [6]int{no, no, 3*2 + 1, no, no, no}, map[int]float64{1: 1}, no},
		{"below threshold", [6]int{no, 3*1 + 1, no, 3*3 + 1, no, no}, map[int]float64{1: 0.25}, no},
		{"no confidence learned", [6]int{0, 3*1 + 1, no, 3*3 + 2, 3*4 + 0, no}, nil, no},
		{"lowest slot wins", [6]int{no, 3*1 + 2, no, no, 3*4 + 2, 3*5 + 2}, map[int]float64{2: 1}, 3*1 + 2},
		{"skips slots below threshold", [6]int{3*0 + 1, 3*1 + 1, no, 3*3 + 2, no, 3*5 + 2}, map[int]float64{1: 0.25, 2: 0.5}, 3*3 + 2},
		{"skips empty slots", [6]int{no, no, no, no, 3*4 + 1, no}, map[int]float64{1: 0.5}, 3*4 + 1},
		{"skips self below others", [6]int{no, no, 3*2 + 2, no, 3*4 + 2, no}, map[int]float64{2: 1}, 3*4 + 2},
		{"same static tx elsewhere", [6]int{no, no, no, 3*3 + 0, no, no}, map[int]float64{0: 0.75}, 3*3 + 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := NewSystem(Config{Workers: 6, StaticTxs: 3, Scheduler: SchedBFGTS})
			m := sys.mgr.(*bfgtsManager)
			for other, c := range tc.conf {
				m.conf.Add(stx, other, c)
			}
			for w, dtx := range tc.running {
				sys.setRunning(w, dtx)
			}
			if got := m.predict(caller, stx); got != tc.want {
				t.Fatalf("predict = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestBFGTSBeginEscapeWatchdog pins the starvation hardening of the BFGTS
// begin loop: with the confidence table saturated and an "enemy" parked in
// the CPU table forever (its worker slot never clears, as happens when a
// foreign goroutine stalls mid-transaction), OnBegin must not spin-stall
// indefinitely — after beginEscapeLimit predicted-conflict rounds it
// proceeds optimistically and counts an escape.
func TestBFGTSBeginEscapeWatchdog(t *testing.T) {
	sys := NewSystem(Config{Workers: 2, StaticTxs: 1, Scheduler: SchedBFGTS})
	m := sys.mgr.(*bfgtsManager)
	// Saturate confidence so every predict() round reports a conflict, and
	// park worker 1's dtx in the CPU table with no transaction to finish.
	// Similarity 1.0 is the dangerous corner: the simulator's decay
	// DecayVal·(1−sim) would be zero, so only the decay floor and the
	// escape watchdog stand between this loop and livelock.
	m.conf.Add(0, 0, 1.0)
	m.stats[0].simBits.Store(math.Float64bits(1))
	m.stats[1].simBits.Store(math.Float64bits(1))
	// Through setRunning so the manager's Bloofi directory indexes the
	// parked enemy, exactly as a live transaction would.
	sys.setRunning(1, 1)

	done := make(chan struct{})
	go func() {
		m.OnBegin(0, 0, 0, 0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("bfgts begin loop livelocked against a parked enemy")
	}
	if sys.met.beginEscapes.Load() == 0 {
		t.Fatal("watchdog escape not counted")
	}
	if sys.met.predicted.Load() == 0 {
		t.Fatal("no conflicts predicted despite saturated confidence")
	}
}

// TestManagerStressInvariant hammers all three managers with a mixed
// read/transfer workload under -race: value is conserved across randomized
// transfers, every manager commits every operation exactly once, and the
// metrics snapshot is coherent.
func TestManagerStressInvariant(t *testing.T) {
	const (
		workers = 8
		vars    = 32
		opsEach = 400
		total   = vars * 100
	)
	for _, kind := range []SchedulerKind{SchedBackoff, SchedATS, SchedBFGTS} {
		t.Run(kind.String(), func(t *testing.T) {
			sys := NewSystem(Config{Workers: workers, StaticTxs: 2, Scheduler: kind})
			accts := make([]*TVar[int], vars)
			for i := range accts {
				accts[i] = NewTVar(100)
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w) + 1))
					for i := 0; i < opsEach; i++ {
						if i%4 == 0 {
							// Audit: read-only sweep, stx 1.
							err := sys.Atomic(w, 1, func(tx *Tx) error {
								sum := 0
								for _, a := range accts {
									sum += a.Read(tx)
								}
								if sum != total {
									t.Errorf("isolation broken: audit saw %d, want %d", sum, total)
								}
								return nil
							})
							if err != nil {
								t.Error(err)
							}
							continue
						}
						from, to := rng.Intn(vars), rng.Intn(vars)
						amt := rng.Intn(5)
						err := sys.Atomic(w, 0, func(tx *Tx) error {
							f := accts[from].Read(tx)
							accts[from].Write(tx, f-amt)
							accts[to].Write(tx, accts[to].Read(tx)+amt)
							return nil
						})
						if err != nil {
							t.Error(err)
						}
					}
				}(w)
			}
			wg.Wait()
			sum := 0
			for _, a := range accts {
				sum += a.Peek()
			}
			if sum != total {
				t.Fatalf("value not conserved: %d, want %d", sum, total)
			}
			if got := sys.Commits(); got != workers*opsEach {
				t.Fatalf("commits = %d, want %d", got, workers*opsEach)
			}
			reg := metrics.New()
			sys.SnapshotMetrics(reg)
			snap := reg.Snapshot()
			if snap == nil || len(snap.Keys()) == 0 {
				t.Fatal("metrics snapshot is empty")
			}
			if reg.Counter("stm.commits").Value() != int64(workers*opsEach) {
				t.Fatal("snapshot commits disagree with System.Commits")
			}
		})
	}
}

// TestCustomManagerHook proves the ContentionManager seam: a Config-
// injected manager observes every hook with validated arguments.
func TestCustomManagerHook(t *testing.T) {
	rec := &recordingManager{}
	sys := NewSystem(Config{
		Workers: 2, StaticTxs: 2,
		NewManager: func(s *System) ContentionManager { rec.sys = s; return rec },
	})
	v := NewTVar(7)
	if err := sys.Atomic(1, 1, func(tx *Tx) error {
		v.Write(tx, v.Read(tx)*2)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rec.sys != sys {
		t.Fatal("factory did not receive the System under construction")
	}
	if rec.begins != 1 || rec.commits != 1 {
		t.Fatalf("hooks saw begins=%d commits=%d, want 1/1", rec.begins, rec.commits)
	}
	if rec.lastDTx != 1*2+1 {
		t.Fatalf("OnCommit dtx = %d, want 3", rec.lastDTx)
	}
	if rec.lastSize != 1 {
		t.Fatalf("OnCommit size = %d, want 1 (one distinct line)", rec.lastSize)
	}
	if sys.Manager() != ContentionManager(rec) {
		t.Fatal("Manager() does not expose the injected manager")
	}
}

type recordingManager struct {
	sys      *System
	begins   int
	commits  int
	lastDTx  int
	lastSize int
}

func (r *recordingManager) Name() string                             { return "recording" }
func (r *recordingManager) OnBegin(worker, stx, dtx, attempt int)    { r.begins++ }
func (r *recordingManager) OnAbort(worker, stx, dtx, e, attempt int) {}
func (r *recordingManager) OnCommit(worker, stx, dtx int, lines, writes []uint64, size int) {
	r.commits++
	r.lastDTx = dtx
	r.lastSize = size
}
