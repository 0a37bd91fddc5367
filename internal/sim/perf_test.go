package sim

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/stamp"
)

// TestEngineDispatchAllocFree proves the event churn cycle — schedule one
// event, fire one event — stays off the allocator once the value heap has
// grown to the simulation's churn depth. This is the property the
// value-based heap exists for: container/heap with *event pointers paid one
// allocation per push.
func TestEngineDispatchAllocFree(t *testing.T) {
	e := NewEngine()
	h := e.Register(func() {})
	e.dispatch = func(int32, uint8, uint64) {}
	for i := 0; i < 64; i++ { // grow the heap's backing array once
		e.AfterHandle(int64(i), h)
	}
	for e.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.AfterHandle(1, h)
		e.afterOp(2, 3, opAccess, 7)
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("event dispatch costs %v allocs/op, want 0", allocs)
	}
}

// BenchmarkEngineChurn measures push+pop through a heap holding a realistic
// pending-event population (one event in flight per simulated thread).
func BenchmarkEngineChurn(b *testing.B) {
	e := NewEngine()
	e.dispatch = func(int32, uint8, uint64) {}
	const depth = 64
	for i := 0; i < depth; i++ {
		e.afterOp(int64(i%17), int32(i), opAccess, 0)
	}
	// One extra round so the heap has grown past the steady-state
	// population (each iteration below holds depth+1 events between its
	// push and its pop) before the timer starts.
	e.afterOp(0, 0, opAccess, 0)
	e.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.afterOp(int64(i%31), int32(i%depth), opAccess, 0)
		e.Step()
	}
}

// cellSetupBytes and cellSetupMallocs budget one warm cell of
// TestCellSetupAllocBudget under any manager: every manager's cell
// measures 10.0–10.7 KB in 200–210 allocations, and the budget adds a
// margin. Before shells, the Backoff cell allocated 132 KB in 1 781
// allocations; before recycled managers, the BFGTS-SW, BFGTS-HW,
// NoOverhead and PTS cells allocated 31, 37, 30 and 159 KB (the runtime's
// tables and signatures, the accelerator bank, the exact sets, the
// conflict graph and commit filters).
const (
	cellSetupBytes   = 12 << 10
	cellSetupMallocs = 240
)

// TestCellSetupAllocBudget gates the recycled set-up with exact counts: the
// MemStats delta across one warm Fig. 4a-shaped cell (16 cores × 4
// threads, intruder), not a floored per-run mean. A cell allocates its
// thread programs (about 150 B each) and its Result; everything else — the
// thread slab and its scratch, engines, machines, the TM's directory, the
// manager's RNG, the programs' access buffers — comes from a recycled
// shell, and a BFGTS or PTS manager is the one an earlier cell of its type
// retired in that shell, reset in place with its runtime, signature slab,
// accelerator bank, directory and conflict graph. Each subtest warms the
// shell with the cells in warm, then measures cell: the BFGTS-SW cell is
// measured at 512 bits after an 8192-bit warm-up (the slab has no
// geometry), and the PTS cell after a Backoff cell came between it and the
// PTS cell that retired its manager. A failure names the manager.
func TestCellSetupAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops shells at random")
	}
	f, _ := stamp.ByName("intruder")
	bfgts := func(mode sched.BFGTSMode, bits int) func(sched.Env) sched.Manager {
		return func(env sched.Env) sched.Manager {
			cfg := core.DefaultConfig(env.NumThreads, env.NumStatic)
			cfg.BloomBits = bits
			return sched.NewBFGTS(env, mode, cfg)
		}
	}
	type mgr = func(sched.Env) sched.Manager
	for _, c := range []struct {
		name string
		warm []mgr
		cell mgr
	}{
		{"Backoff", []mgr{managerFactory("backoff")}, managerFactory("backoff")},
		{"BFGTS-SW", []mgr{bfgts(sched.BFGTSSW, 8192)}, bfgts(sched.BFGTSSW, 512)},
		{"BFGTS-HW", []mgr{bfgts(sched.BFGTSHW, 2048)}, bfgts(sched.BFGTSHW, 2048)},
		{"BFGTS-NoOverhead", []mgr{managerFactory("bfgts-no")}, managerFactory("bfgts-no")},
		{"PTS", []mgr{managerFactory("pts"), managerFactory("backoff")}, managerFactory("pts")},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := func(m mgr) RunConfig {
				return RunConfig{
					Cores:          16,
					ThreadsPerCore: 4,
					Seed:           1,
					Workload:       f.New(400),
					NewManager:     m,
					MaxCycles:      2_000_000_000,
				}
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			for _, m := range c.warm {
				NewRunner(cfg(m)).Run() // the shell grows to the cell's shape
			}
			rc := cfg(c.cell)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			res := NewRunner(rc).Run()
			runtime.ReadMemStats(&m1)
			if res.Commits != 400 {
				t.Fatalf("%s cell committed %d of 400", c.name, res.Commits)
			}
			bytes, mallocs := m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
			t.Logf("warm %s cell: %d B in %d allocations", c.name, bytes, mallocs)
			if bytes > cellSetupBytes || mallocs > cellSetupMallocs {
				t.Errorf("warm %s cell allocated %d B in %d allocations, budget %d B in %d",
					c.name, bytes, mallocs, cellSetupBytes, cellSetupMallocs)
			}
		})
	}
}

// TestRunnerScratchPoolParallel exercises the shared runner-shell pool
// (thread slab, scratch, engines, TM) from concurrent runners (the
// harness's worker-pool shape) under the race detector, and checks that a
// run in a recycled shell is cycle-identical to the run that warmed it —
// recycling must not leak state between runs.
func TestRunnerScratchPoolParallel(t *testing.T) {
	run := func(seed uint64) *Result {
		w := newSynth("pool", 1, 30, 4)
		r := NewRunner(RunConfig{
			Cores:             4,
			ThreadsPerCore:    2,
			Seed:              seed,
			Workload:          w,
			NewManager:        managerFactory("bfgts-hw"),
			MaxCycles:         2_000_000_000,
			ProfileSimilarity: true,
		})
		res := r.Run()
		if res.TimedOut {
			t.Error("run timed out")
		}
		return res
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seed := uint64(g + 1)
			first := run(seed)
			second := run(seed) // reuses the shell released by the first run
			if first.Makespan != second.Makespan || first.Commits != second.Commits {
				t.Errorf("seed %d: pooled rerun diverged: makespan %d vs %d, commits %d vs %d",
					seed, first.Makespan, second.Makespan, first.Commits, second.Commits)
			}
		}(g)
	}
	wg.Wait()
}
