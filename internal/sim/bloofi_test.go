package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/workload"
)

// dirManagers are the managers whose begin-time scan runs through the
// Bloofi signature directory: PTS and the software-scan BFGTS variants.
// The hardware variants model the scan in the accelerator and never
// touch the directory.
func dirManagers() []string {
	return []string{"pts", "bfgts-sw", "bfgts-no"}
}

// linearScan wraps a manager factory so the manager walks the CPU table
// linearly at begin instead of probing the signature directory.
func linearScan(newMgr func(sched.Env) sched.Manager) func(sched.Env) sched.Manager {
	return func(env sched.Env) sched.Manager {
		env.LinearScan = true
		return newMgr(env)
	}
}

// runBloofiPair runs the same configuration twice — directory-backed and
// linear-scan begin probes — and returns both results.
func runBloofiPair(t *testing.T, w workload.Workload, mgr string, cores, tpc int, seed uint64, profile bool) (dir, linear *Result) {
	t.Helper()
	run := func(noBloofi bool) *Result {
		newMgr := managerFactory(mgr)
		if noBloofi {
			newMgr = linearScan(newMgr)
		}
		res := NewRunner(RunConfig{
			Cores:             cores,
			ThreadsPerCore:    tpc,
			Seed:              seed,
			Workload:          w,
			NewManager:        newMgr,
			ProfileSimilarity: profile,
			MaxCycles:         2_000_000_000,
		}).Run()
		if res.TimedOut {
			t.Fatalf("%s on %s timed out (noBloofi=%v)", mgr, w.Name(), noBloofi)
		}
		return res
	}
	return run(false), run(true)
}

// TestBloofiMatchesLinear is the signature-directory differential: over a
// randomized matrix of workload shapes, directory-backed managers,
// machine sizes and seeds, the Bloofi probe and the linear begin-time
// scan must produce cycle-identical Results — same makespan, same
// commit/abort counts, same breakdowns, same scan-length accounting. Any
// divergence means the directory changed which enemy a prediction found
// (or what the walk was billed), not just how fast the host found it.
func TestBloofiMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	managers := dirManagers()
	for trial := 0; trial < 12; trial++ {
		mgr := managers[trial%len(managers)]
		nStatic := 1 + rng.Intn(3)
		span := 2 + rng.Intn(6)
		txs := 8 + rng.Intn(25)
		hot := 4 + rng.Intn(60) // smaller → more contention
		cores := 2 + rng.Intn(6)
		tpc := 1 + rng.Intn(3)
		if trial%3 == 2 {
			// Deep trees: a branch-8 directory over ≤ 8 cores is two
			// levels and never suspends an interior frame, so small
			// machines alone cannot exercise the descent stack. These
			// trials cover 3-level trees and rightmost partial subtrees.
			cores = 17 + rng.Intn(100)
			tpc = 1
			txs = 4 + rng.Intn(6)
		}
		seed := uint64(1 + rng.Intn(1000))

		w := newSynth(fmt.Sprintf("bloofi%d", trial), nStatic, txs, span)
		w.body = int64(50 + rng.Intn(400))
		w.pre = int64(100 + rng.Intn(2000))
		w.pick = func(tid, i int, rng *workload.RNG) int { return rng.Intn(hot) }
		w.stxOf = func(tid, i int) int { return i % nStatic }

		name := fmt.Sprintf("trial=%d mgr=%s static=%d span=%d txs=%d hot=%d cores=%d tpc=%d seed=%d",
			trial, mgr, nStatic, span, txs, hot, cores, tpc, seed)
		dir, linear := runBloofiPair(t, w, mgr, cores, tpc, seed, trial%4 == 0)
		if !reflect.DeepEqual(dir, linear) {
			t.Errorf("%s: directory and linear Results differ\n bloofi: makespan=%d commits=%d aborts=%d breakdown=%v\n linear: makespan=%d commits=%d aborts=%d breakdown=%v",
				name,
				dir.Makespan, dir.Commits, dir.Aborts, dir.Breakdown,
				linear.Makespan, linear.Commits, linear.Aborts, linear.Breakdown)
		}
	}
}

// TestBloofiProbeSubLinear checks the acceptance bound of the directory:
// at 256 simulated cores on a low-overlap workload (conflicts exist but
// are sparse), the mean number of tree nodes a begin probe visits must
// stay under 25% of the mean running-set size — the probe prunes, it
// does not degenerate into the linear walk it replaced.
func TestBloofiProbeSubLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("256-core run")
	}
	const cores = 256
	reg := metrics.New()
	// Mostly-disjoint accesses with a small shared tail: enough conflicts
	// to learn nonzero confidence (so probes carry suspects), sparse
	// enough that most subtrees hold none.
	w := newSynth("lowoverlap", 4, 20, 5)
	w.pick = func(tid, i int, rng *workload.RNG) int {
		if rng.Intn(10) == 0 {
			return rng.Intn(16) // shared hot tail
		}
		return 1024 + tid*64 + rng.Intn(32) // private range
	}
	w.stxOf = func(tid, i int) int { return i % 4 }
	res := NewRunner(RunConfig{
		Cores:          cores,
		ThreadsPerCore: 1,
		Seed:           3,
		Workload:       w,
		NewManager:     managerFactory("bfgts-sw"),
		MaxCycles:      20_000_000_000,
		Metrics:        reg,
	}).Run()
	if res.TimedOut {
		t.Fatal("256-core run timed out")
	}
	nodes := reg.Histogram("sched.bfgts.probe.nodes").Stats()
	running := reg.Histogram("sched.bfgts.probe.running").Stats()
	if nodes.N() == 0 || running.N() == 0 {
		t.Fatal("probe histograms empty: directory path not exercised")
	}
	if running.Mean() < float64(cores)/4 {
		t.Fatalf("running set too small to be meaningful: mean %.1f of %d cores", running.Mean(), cores)
	}
	ratio := nodes.Mean() / running.Mean()
	t.Logf("mean probe nodes %.2f, mean running %.2f, ratio %.3f (n=%d)",
		nodes.Mean(), running.Mean(), ratio, nodes.N())
	if ratio >= 0.25 {
		t.Fatalf("probe visits %.1f%% of the running set on a low-overlap workload, want < 25%%", 100*ratio)
	}
}
