package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// runPath runs cfg horizon-batched, or on the legacy one-event-per-access
// path when noBatch is set.
func runPath(cfg RunConfig, noBatch bool) *Result {
	r := NewRunner(cfg)
	r.noBatch = noBatch
	return r.Run()
}

// runBatchPair runs the same configuration twice — horizon-batched and
// legacy one-event-per-access — and returns both results.
func runBatchPair(t *testing.T, w workload.Workload, mgr string, cores, tpc int, seed uint64, profile bool) (batched, legacy *Result) {
	t.Helper()
	run := func(noBatch bool) *Result {
		res := runPath(RunConfig{
			Cores:             cores,
			ThreadsPerCore:    tpc,
			Seed:              seed,
			Workload:          w,
			NewManager:        managerFactory(mgr),
			ProfileSimilarity: profile,
			MaxCycles:         2_000_000_000,
		}, noBatch)
		if res.TimedOut {
			t.Fatalf("%s on %s timed out (noBatch=%v)", mgr, w.Name(), noBatch)
		}
		return res
	}
	return run(false), run(true)
}

// TestBatchedMatchesLegacy is the horizon-batching differential: over a
// randomized matrix of workload shapes, managers, machine sizes and seeds,
// the batched and legacy execution paths must produce cycle-identical
// Results — same makespan, same commit/abort counts, same per-category
// breakdown, same conflict matrix, same latency histograms. Any divergence
// means batching changed the event order, not just the host speed.
func TestBatchedMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	managers := allManagers()
	for trial := 0; trial < 12; trial++ {
		mgr := managers[trial%len(managers)]
		nStatic := 1 + rng.Intn(3)
		span := 2 + rng.Intn(6)
		txs := 8 + rng.Intn(25)
		hot := 4 + rng.Intn(60) // smaller → more contention
		cores := 2 + rng.Intn(4)
		tpc := 1 + rng.Intn(3)
		seed := uint64(1 + rng.Intn(1000))

		w := newSynth(fmt.Sprintf("diff%d", trial), nStatic, txs, span)
		w.body = int64(50 + rng.Intn(400))
		w.pre = int64(100 + rng.Intn(2000))
		w.pick = func(tid, i int, rng *workload.RNG) int { return rng.Intn(hot) }
		w.stxOf = func(tid, i int) int { return i % nStatic }

		name := fmt.Sprintf("trial=%d mgr=%s static=%d span=%d txs=%d hot=%d cores=%d tpc=%d seed=%d",
			trial, mgr, nStatic, span, txs, hot, cores, tpc, seed)
		batched, legacy := runBatchPair(t, w, mgr, cores, tpc, seed, trial%4 == 0)
		if !reflect.DeepEqual(batched, legacy) {
			t.Errorf("%s: batched and legacy Results differ\n batched: makespan=%d commits=%d aborts=%d breakdown=%v\n legacy:  makespan=%d commits=%d aborts=%d breakdown=%v",
				name,
				batched.Makespan, batched.Commits, batched.Aborts, batched.Breakdown,
				legacy.Makespan, legacy.Commits, legacy.Aborts, legacy.Breakdown)
		}
	}
}

// TestBatchedMatchesLegacyUncontended pins the pure fast path: a disjoint
// workload where every access batches and the only engine re-entries are
// begin/commit boundaries and quantum expiry.
func TestBatchedMatchesLegacyUncontended(t *testing.T) {
	w := newSynth("disjoint-diff", 1, 40, 5)
	w.pick = func(tid, i int, rng *workload.RNG) int { return tid*2000 + i*8 }
	batched, legacy := runBatchPair(t, w, "backoff", 4, 2, 42, false)
	if !reflect.DeepEqual(batched, legacy) {
		t.Fatalf("disjoint workload diverged: batched makespan=%d, legacy makespan=%d",
			batched.Makespan, legacy.Makespan)
	}
	if batched.Aborts != 0 {
		t.Fatalf("disjoint workload aborted %d times", batched.Aborts)
	}
}

// TestSamplerUnderBatching runs the time-series sampler at a short period
// against both execution paths and requires identical sample points: same
// count, same timestamps, same values. The sampler is an engine event, so
// a batch that overran the sampler's horizon would shift or drop samples.
func TestSamplerUnderBatching(t *testing.T) {
	run := func(noBatch bool) *metrics.Snapshot {
		w := newSynth("sampled", 2, 30, 6)
		w.pick = func(tid, i int, rng *workload.RNG) int { return rng.Intn(8) }
		w.stxOf = func(tid, i int) int { return i % 2 }
		res := runPath(RunConfig{
			Cores:          4,
			ThreadsPerCore: 2,
			Seed:           42,
			Workload:       w,
			NewManager:     managerFactory("bfgts-hw"),
			MaxCycles:      2_000_000_000,
			Metrics:        metrics.New(),
			SampleInterval: 5_000, // short period: many chances to collide with a batch
		}, noBatch)
		if res.TimedOut {
			t.Fatalf("sampled run timed out (noBatch=%v)", noBatch)
		}
		return res.Metrics
	}
	batched, legacy := run(false), run(true)
	for _, key := range []string{"ts.pressure", "ts.mean_confidence", "ts.abort_rate"} {
		b, l := batched.Series[key], legacy.Series[key]
		if len(b) == 0 {
			t.Errorf("series %q empty", key)
			continue
		}
		if len(b) != len(l) {
			t.Errorf("series %q: %d samples batched vs %d legacy", key, len(b), len(l))
			continue
		}
		for i := range b {
			if b[i] != l[i] {
				t.Errorf("series %q sample %d: batched (t=%d v=%v) vs legacy (t=%d v=%v)",
					key, i, b[i].T, b[i].V, l[i].T, l[i].V)
				break
			}
		}
	}
}
