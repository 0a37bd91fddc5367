// Command bfgts-sim runs the paper's experiments on the simulator and
// prints the regenerated tables and figure data.
//
// Usage:
//
//	bfgts-sim -list
//	bfgts-sim -exp fig4a [-cores 16] [-tpc 4] [-seed 1] [-scale 1.0]
//	bfgts-sim -exp all [-parallel 8] [-seeds 5] [-quiet]
//	bfgts-sim -exp speedup -json-out results.json        (machine-readable)
//	bfgts-sim -bench intruder -manager BFGTS-HW -bloom 2048   (single run)
//	bfgts-sim -bench intruder -metrics-out metrics.json  (scheduler internals)
//	bfgts-sim -bench intruder -decisions-out dec.json -trace-chrome dec.trace.json
//	bfgts-sim -bench intruder -replay 16                 (counterfactual regret)
//
// Independent simulation cells fan out over a worker pool (-parallel,
// default one slot per CPU); output is byte-identical to -parallel 1.
// Progress lines stream to stderr unless -quiet is set.
//
// -json-out writes the full experiment matrix (every report, including
// per-cell speedup values) as schema-versioned JSON; -metrics-out attaches
// a metrics registry to a single run and writes its final snapshot.
//
// -decisions-out records every scheduling decision (serialize-vs-proceed
// at begin, stall-vs-abort on NACK) with its predictor inputs and settled
// outcome, and writes the schema-v2 decisions JSON; -trace-chrome writes
// the same stream as Chrome trace_event JSON for Perfetto. -replay N
// re-runs the window once per sampled begin decision with that decision
// inverted and prints each decision's exact counterfactual regret.
//
// -cpuprofile and -memprofile write pprof profiles covering the simulation
// itself (profiling starts after flag parsing and the memory profile is
// captured just before exit), for feeding `go tool pprof` when hunting
// hot-path regressions.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"

	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/trace"
)

func main() {
	list := flag.Bool("list", false, "list experiments")
	exp := flag.String("exp", "", "experiment id (or 'all')")
	bench := flag.String("bench", "", "single run: benchmark name")
	manager := flag.String("manager", "BFGTS-HW", "single run: manager name")
	bloom := flag.Int("bloom", 2048, "single run: Bloom filter bits for BFGTS variants")
	cores := flag.Int("cores", 16, "number of CPUs")
	tpc := flag.Int("tpc", 4, "threads per CPU")
	seed := flag.Uint64("seed", 1, "workload seed")
	scale := flag.Float64("scale", 1.0, "transaction-count scale factor")
	traceFile := flag.String("trace", "", "single run: write a JSONL event trace to this file")
	metricsOut := flag.String("metrics-out", "", "single run: write the scheduler-internals metrics snapshot (JSON) to this file")
	decisionsOut := flag.String("decisions-out", "", "single run: write the decision trace (schema-v2 JSON) to this file")
	traceChrome := flag.String("trace-chrome", "", "single run: write the decision trace as Chrome trace_event JSON (Perfetto) to this file")
	replay := flag.Int("replay", 0, "single run: counterfactually replay up to N begin decisions inverted and print exact regret")
	jsonOut := flag.String("json-out", "", "experiment run: write all reports as schema-versioned JSON to this file")
	seeds := flag.Int("seeds", 1, "run the experiment across this many seeds and report mean±sd")
	parallel := flag.Int("parallel", 0, "max simulations in flight (0 = all CPUs, 1 = serial)")
	shards := flag.Int("shards", 1, "split each simulation into this many synchronized engine/directory shards (identical output at any count)")
	quiet := flag.Bool("quiet", false, "suppress per-simulation progress lines on stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile covering the run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile at exit to this file")
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-12s %s\n", e.ID, e.Description)
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // flush recently freed objects so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	cfg := harness.Config{Cores: *cores, ThreadsPerCore: *tpc, Seed: *seed, Scale: *scale, Workers: *parallel, Shards: *shards}
	if !*quiet {
		var mu sync.Mutex
		done := 0
		cfg.Progress = func(line string) {
			mu.Lock()
			done++
			fmt.Fprintf(os.Stderr, "[%4d] %s\n", done, line)
			mu.Unlock()
		}
	}
	r := harness.NewRunner(cfg)

	if *bench != "" {
		singleRun(cfg, *bench, *manager, *bloom, *traceFile, *metricsOut,
			*decisionsOut, *traceChrome, *replay)
		return
	}

	if *exp == "" {
		fmt.Fprintln(os.Stderr, "need -exp, -bench or -list; see -h")
		os.Exit(2)
	}
	var reports []*harness.Report
	if *exp == "all" {
		if *seeds > 1 {
			// Every experiment goes through the multi-seed aggregator —
			// -seeds used to be silently ignored on the 'all' path.
			for _, e := range harness.Experiments() {
				reports = append(reports, harness.MultiSeed(e, cfg, *seeds))
			}
		} else {
			reports = harness.RunAll(r, harness.Experiments())
		}
	} else {
		e, ok := harness.ExperimentByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *exp)
			os.Exit(1)
		}
		if *seeds > 1 {
			reports = []*harness.Report{harness.MultiSeed(e, cfg, *seeds)}
		} else {
			reports = harness.RunAll(r, []harness.Experiment{e})
		}
	}
	// A deadlocked cell makes every number derived from it meaningless:
	// say which cells, print no tables, fail.
	seen := map[string]bool{}
	for _, rep := range reports {
		for _, d := range rep.Deadlocked {
			if !seen[d] {
				seen[d] = true
				fmt.Fprintln(os.Stderr, "bfgts-sim:", d)
			}
		}
	}
	if len(seen) > 0 {
		os.Exit(1)
	}
	for _, rep := range reports {
		fmt.Println(rep.Render())
	}
	if *jsonOut != "" {
		writeExport(cfg, reports, *jsonOut)
	}
}

// writeExport saves the session's reports as schema-versioned JSON.
func writeExport(cfg harness.Config, reports []*harness.Report, path string) {
	out, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer out.Close()
	if err := harness.NewExport(cfg, reports).EncodeJSON(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("json: %d report(s) -> %s\n", len(reports), path)
}

func singleRun(cfg harness.Config, bench, manager string, bloom int, traceFile, metricsOut, decisionsOut, traceChrome string, replay int) {
	r := harness.NewRunner(cfg)
	f, ok := stamp.ByName(bench)
	if !ok {
		if bench == "wide" {
			f, ok = harness.WideFactory(cfg.Cores, cfg.ThreadsPerCore), true
		} else {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", bench)
			os.Exit(1)
		}
	}
	spec, ok := specByName(manager, bloom)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown manager %q\n", manager)
		os.Exit(1)
	}
	var rec *trace.Recorder
	if traceFile != "" {
		rec = &trace.Recorder{Cap: 4 << 20}
	}
	var reg *metrics.Registry
	if metricsOut != "" {
		reg = metrics.New()
	}
	res := r.RunInstrumented(f, spec, rec, reg)
	if res.Deadlocked != nil {
		fmt.Fprintf(os.Stderr, "bfgts-sim: %s under %s: %v (%d commits so far)\n",
			res.WorkloadName, res.ManagerName, res.Deadlocked, res.Commits)
		os.Exit(1)
	}
	fmt.Printf("%s on %s: speedup %.2fx over one core, contention %.1f%%\n",
		res.ManagerName, res.WorkloadName, r.Speedup(f, res), res.ContentionPct())
	if rec != nil {
		out, err := os.Create(traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer out.Close()
		if err := rec.WriteJSONL(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("trace: %s -> %s\n", rec.Summary(), traceFile)
	}
	if res.Metrics != nil {
		out, err := os.Create(metricsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer out.Close()
		if err := res.Metrics.EncodeJSON(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("metrics: %d instrument(s) -> %s\n", len(res.Metrics.Keys()), metricsOut)
	}
	if decisionsOut != "" || traceChrome != "" {
		_, set := r.RunDecisions(f, spec)
		g := decision.Estimate(set.Merge())
		fmt.Printf("decisions: %d recorded (%d dropped), serialize rate %.1f%%, regret %.2f Mcycles (over %.2f / under %.2f)\n",
			g.Decisions, set.Dropped(), 100*g.SerializeRate(),
			float64(g.Total())/1e6, float64(g.OvercautionCycles)/1e6, float64(g.UndercautionCycles)/1e6)
		if decisionsOut != "" {
			e := decision.NewExport()
			e.AddRun(spec.Name, f.Name(), "cycles", set)
			writeTo(decisionsOut, e.EncodeJSON)
			fmt.Printf("decisions: schema v%d -> %s\n", decision.SchemaVersion, decisionsOut)
		}
		if traceChrome != "" {
			var c decision.ChromeTrace
			c.AddRun(0, f.Name()+"/"+spec.Name, set)
			writeTo(traceChrome, func(w io.Writer) error { _, err := c.WriteTo(w); return err })
			fmt.Printf("chrome trace -> %s (open in ui.perfetto.dev)\n", traceChrome)
		}
	}
	if replay > 0 {
		rr := r.ReplayFlips(f, spec, replay)
		fmt.Printf("replay: %d decision(s) inverted against base makespan %.2f Mcycles\n",
			len(rr.Flips), float64(rr.Base.Makespan)/1e6)
		for _, fl := range rr.Flips {
			fmt.Printf("  begin #%-6d tid %-3d tx%-2d %-7s (%s)  regret %+.3f Mcycles\n",
				fl.BeginIndex, fl.Tid, fl.Stx, fl.Choice, fl.Outcome,
				float64(fl.Regret)/1e6)
		}
	}
	fmt.Printf("commits %d  aborts %d  makespan %.2f Mcycles\n",
		res.Commits, res.Aborts, float64(res.Makespan)/1e6)
	b := res.Breakdown
	total := float64(b.Total())
	for _, c := range []sim.Category{sim.CatNonTx, sim.CatKernel, sim.CatTx, sim.CatAbort, sim.CatScheduling, sim.CatIdle} {
		pct := 0.0
		if total > 0 { // an empty breakdown used to print NaN% everywhere
			pct = 100 * float64(b[c]) / total
		}
		fmt.Printf("  %-11s %5.1f%%\n", c, pct)
	}
	fmt.Printf("attempts per committed execution: mean %.2f max %.0f\n",
		res.AttemptsPerCommit.Mean(), res.AttemptsPerCommit.Max())
	for s := range res.Latency {
		h := &res.Latency[s]
		if h.N() == 0 {
			continue
		}
		fmt.Printf("  tx%d latency: mean %.0f cyc, p50 <= %d, p99 <= %d  [%s]\n",
			s, h.Mean(), h.Percentile(50), h.Percentile(99), h.Sparkline())
	}
}

// writeTo creates path and streams enc into it, exiting on failure.
func writeTo(path string, enc func(io.Writer) error) {
	out, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer out.Close()
	if err := enc(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func specByName(name string, bloom int) (harness.ManagerSpec, bool) {
	for _, m := range harness.BaselineSpecs() {
		if m.Name == name {
			return m, true
		}
	}
	if name == "Backoff-PT" {
		return harness.PerThreadBackoffSpec(), true
	}
	modes := map[string]sched.BFGTSMode{
		"BFGTS-SW":         sched.BFGTSSW,
		"BFGTS-HW":         sched.BFGTSHW,
		"BFGTS-HW/Backoff": sched.BFGTSHWBackoff,
		"BFGTS-NoOverhead": sched.BFGTSNoOverhead,
	}
	mode, ok := modes[name]
	if !ok {
		return harness.ManagerSpec{}, false
	}
	return harness.ManagerSpec{
		Name: name,
		New: func(env sched.Env) sched.Manager {
			cfg := core.DefaultConfig(env.NumThreads, env.NumStatic)
			cfg.BloomBits = bloom
			return sched.NewBFGTS(env, mode, cfg)
		},
	}, true
}
