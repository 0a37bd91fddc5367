// Package repro's top-level benchmarks regenerate each table and figure of
// the paper at a reduced scale (so `go test -bench=.` stays tractable) and
// report the headline numbers as benchmark metrics:
//
//	BenchmarkTable1 — conflict graphs + similarity (reports delaunay tx3 sim)
//	BenchmarkTable4 — contention rates (reports delaunay Backoff %)
//	BenchmarkFig4a  — speedups (reports BFGTS-HW average)
//	BenchmarkFig4b  — improvement over PTS (reports BFGTS-HW average %)
//	BenchmarkFig5   — time breakdowns (reports ATS delaunay kernel share)
//	BenchmarkFig6a/b — Bloom-size sweeps (report labyrinth 8192b speedup)
//	BenchmarkSec532 — similarity-interval sweep (reports interval-20 gain)
//	BenchmarkAblations — aliasing and suspend-policy ablations
//
// For full-scale numbers use: go run ./cmd/bfgts-sim -exp all
package repro

import (
	"fmt"
	"testing"

	"repro/internal/harness"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchConfig is the reduced scale used for benchmarks.
func benchConfig() harness.Config {
	cfg := harness.DefaultConfig()
	cfg.Scale = 0.12
	return cfg
}

func runExperiment(b *testing.B, id string, metric func(*harness.Report) (float64, string)) {
	b.Helper()
	exp, ok := harness.ExperimentByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		rep := exp.Run(harness.NewRunner(benchConfig()))
		if metric != nil {
			v, name := metric(rep)
			b.ReportMetric(v, name)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	runExperiment(b, "table1", func(r *harness.Report) (float64, string) {
		return r.Values["sim_delaunay_3"], "delaunay-tx3-similarity"
	})
}

func BenchmarkTable4(b *testing.B) {
	runExperiment(b, "table4", func(r *harness.Report) (float64, string) {
		return r.Values["cont_delaunay_Backoff"], "delaunay-backoff-contention-%"
	})
}

func BenchmarkFig4a(b *testing.B) {
	runExperiment(b, "fig4a", func(r *harness.Report) (float64, string) {
		return r.Values["avg_BFGTS-HW"], "bfgts-hw-avg-speedup"
	})
}

func BenchmarkFig4b(b *testing.B) {
	runExperiment(b, "fig4b", func(r *harness.Report) (float64, string) {
		return r.Values["avgimp_BFGTS-HW"], "bfgts-hw-avg-improvement-%"
	})
}

func BenchmarkFig5(b *testing.B) {
	runExperiment(b, "fig5", func(r *harness.Report) (float64, string) {
		return r.Values["kernel_delaunay_ATS"], "ats-delaunay-kernel-share"
	})
}

func BenchmarkFig6a(b *testing.B) {
	runExperiment(b, "fig6a", func(r *harness.Report) (float64, string) {
		return r.Values["speedup_labyrinth_8192"], "bfgts-hw-labyrinth-8192b-speedup"
	})
}

func BenchmarkFig6b(b *testing.B) {
	runExperiment(b, "fig6b", func(r *harness.Report) (float64, string) {
		return r.Values["speedup_labyrinth_8192"], "hybrid-labyrinth-8192b-speedup"
	})
}

func BenchmarkSec532(b *testing.B) {
	runExperiment(b, "sec532", func(r *harness.Report) (float64, string) {
		return r.Values["imp_interval_20"], "interval20-improvement-%"
	})
}

func BenchmarkAblationAliasing(b *testing.B) {
	runExperiment(b, "abl-alias", nil)
}

// benchRunAll regenerates the whole registry through the parallel engine
// at a given pool width; compare the serial and parallel variants to see
// the wall-clock win on your host (identical output is asserted by
// TestParallelMatchesSerial, so these differ only in scheduling).
func benchRunAll(b *testing.B, workers int) {
	b.Helper()
	cfg := benchConfig()
	cfg.Scale = 0.05
	cfg.Workers = workers
	for i := 0; i < b.N; i++ {
		reps := harness.RunAll(harness.NewRunner(cfg), harness.Experiments())
		if len(reps) == 0 || reps[0] == nil {
			b.Fatal("RunAll returned no reports")
		}
	}
}

func BenchmarkRunAllSerial(b *testing.B)   { benchRunAll(b, 1) }
func BenchmarkRunAllParallel(b *testing.B) { benchRunAll(b, 0) }

func BenchmarkAblationSuspendPolicy(b *testing.B) {
	runExperiment(b, "abl-suspend", nil)
}

// BenchmarkWideSharded sweeps the shard count on a 256-core, 100k-transaction
// wide simulation under the shard-safe manager — the fully-partitioned path.
// The simulated result is identical at every shard count (pinned by
// TestPartitionedWideMatchesSequential); what changes is host wall-clock:
// each lane owns a small event heap whose horizon covers only its own
// cores, so horizon batching coalesces far more work per event and heap
// operations shrink, on top of any goroutine parallelism the host offers.
func BenchmarkWideSharded(b *testing.B) {
	for _, shards := range []int{1, 4, 16, 64, 128} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Setup (thread contexts, machines, directories) is
				// identical at every shard count; time only the run.
				b.StopTimer()
				r := sim.NewRunner(sim.RunConfig{
					Cores:          256,
					ThreadsPerCore: 4,
					Seed:           1,
					Workload:       workload.NewWide(256, 4, 100_000),
					NewManager:     func(env sched.Env) sched.Manager { return sched.NewPerThreadBackoff(env) },
					MaxCycles:      2_000_000_000_000,
					Shards:         shards,
				})
				b.StartTimer()
				res := r.Run()
				if res.TimedOut {
					b.Fatal("wide simulation timed out")
				}
				b.ReportMetric(float64(res.Makespan), "sim-cycles")
			}
		})
	}
}
