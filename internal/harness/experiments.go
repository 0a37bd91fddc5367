package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/workload"
)

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	ID          string
	Description string
	Run         func(r *Runner) *Report
	// Warm, if non-nil, schedules every independent simulation the
	// experiment will need concurrently over the runner's pool and waits
	// for them. Run then replays the cells from the memo cache in
	// presentation order, so parallel output is byte-identical to serial.
	// Experiments with cross-cell data dependencies (abl-warmstart) leave
	// it nil and run serially.
	Warm func(r *Runner)
}

// Experiments returns the registry, in the paper's presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Conflict graph and measured similarity per static transaction (Table 1)", Table1, warmTable1},
		{"table4", "Contention rates per contention manager (Table 4)", Table4, warmFig4},
		{"fig4a", "Speedup over one core, 7 managers x 7 benchmarks (Figure 4a)", Fig4a, warmFig4},
		{"fig4b", "Percent improvement over PTS (Figure 4b)", Fig4b, warmFig4},
		{"fig5", "Normalized execution-time breakdown (Figure 5)", Fig5, warmFig4},
		{"fig6a", "BFGTS-HW Bloom-filter size sensitivity (Figure 6a)", Fig6a, warmSweep(sched.BFGTSHW)},
		{"fig6b", "BFGTS-HW/Backoff Bloom-filter size sensitivity (Figure 6b)", Fig6b, warmSweep(sched.BFGTSHWBackoff)},
		{"sec532", "Small-transaction similarity-update interval sweep (Section 5.3.2)", Sec532, warmSec532},
		{"abl-reactive", "Reactive managers (Polite/Karma/Timestamp) vs proactive scheduling", AblReactive, warmReactive},
		{"abl-warmstart", "Ablation: warm-started confidence tables vs cold start", AblWarmStart, nil},
		{"abl-scaling", "Core-count scaling of Backoff vs PTS vs BFGTS-HW on a dense benchmark", AblScaling, warmScaling},
		{"abl-alias", "Ablation: confidence-table aliasing (paper's future-work scheme)", AblAliasing, warmAliasing},
		{"abl-suspend", "Ablation: spin-vs-yield suspend policy (Example 2's size test)", AblSuspend, warmSuspend},
		{"regret", "Per-manager decision-regret accounting (overcaution vs undercaution)", Regret, warmRegret},
		{"wide", "Dense many-core benchmark for sharded simulation (integer-exact at any -shards)", Wide, warmWide},
	}
}

// WideFactory builds the wide benchmark at a given machine geometry. Unlike
// the stamp factories, the workload's address layout depends on the core
// count (per-core private regions plus a shared read-only region), so the
// factory is constructed per configuration rather than registered globally.
func WideFactory(cores, tpc int) workload.Factory {
	return workload.NewFactory("wide", 100_000, func(totalTxs int) workload.Workload {
		return workload.NewWide(cores, tpc, totalTxs)
	})
}

// wideSpecs are the managers the wide experiment compares: the shared-rand
// Backoff baseline (sequential at any shard count), its shard-safe per-thread
// variant (fully partitioned), and the reactive/proactive schedulers.
func wideSpecs() []ManagerSpec {
	return []ManagerSpec{
		BaselineSpecs()[0],
		PerThreadBackoffSpec(),
		BaselineSpecs()[2],
		bfgtsSpec(sched.BFGTSHW, 2048, 0),
	}
}

// Wide reports the dense wide benchmark used by the sharded-simulation
// gates. Every reported value derives from integers (makespan, commit and
// abort counts, and their ratio), so the report is byte-identical at any
// -shards setting; the attempts-per-commit mean is deliberately excluded —
// its Welford merge order differs across shard counts by ULPs (see
// sim.Result.AttemptsPerCommit).
func Wide(r *Runner) *Report {
	rep := &Report{
		ID: "wide",
		Title: fmt.Sprintf("Dense wide benchmark (%d cores, %d threads/core)",
			r.cfg.Cores, r.cfg.ThreadsPerCore),
		Columns: []string{"Manager", "Makespan", "Commits", "Aborts", "Contention"},
		Values:  map[string]float64{},
	}
	f := WideFactory(r.cfg.Cores, r.cfg.ThreadsPerCore)
	for _, m := range wideSpecs() {
		res := r.Run(f, m, false)
		rep.Rows = append(rep.Rows, []string{
			m.Name,
			fmt.Sprintf("%d", res.Makespan),
			fmt.Sprintf("%d", res.Commits),
			fmt.Sprintf("%d", res.Aborts),
			fmt.Sprintf("%.1f%%", res.ContentionPct()),
		})
		rep.Values["makespan_"+m.Name] = float64(res.Makespan)
		rep.Values["commits_"+m.Name] = float64(res.Commits)
		rep.Values["aborts_"+m.Name] = float64(res.Aborts)
		rep.Values["cont_"+m.Name] = res.ContentionPct()
	}
	return rep
}

// warmWide schedules the wide experiment's cells.
func warmWide(r *Runner) {
	f := WideFactory(r.cfg.Cores, r.cfg.ThreadsPerCore)
	var fns []func()
	for _, m := range wideSpecs() {
		fns = append(fns, func() { r.Run(f, m, false) })
	}
	fanOut(fns)
}

// RunAll executes experiments concurrently against one shared runner —
// the singleflight cache dedupes cells shared across experiments (Fig4b
// re-derives Fig4a; Table 4 and Figure 5 reuse the Figure 4 matrix) —
// and returns reports in input order, byte-identical to a serial loop.
func RunAll(r *Runner, exps []Experiment) []*Report {
	reports := make([]*Report, len(exps))
	var wg sync.WaitGroup
	for i, e := range exps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[i] = runExperiment(e, r)
		}()
	}
	wg.Wait()
	return reports
}

// runExperiment warms and runs one experiment on r, and flags the report
// if the session has had to refuse a deadlocked cell.
func runExperiment(e Experiment, r *Runner) *Report {
	if e.Warm != nil {
		e.Warm(r)
	}
	rep := e.Run(r)
	rep.Deadlocked = r.refusedCells()
	return rep
}

// warmTable1 schedules Table 1's profiled baseline runs.
func warmTable1(r *Runner) {
	var fns []func()
	for _, f := range stamp.All() {
		fns = append(fns, func() { r.Run(f, BaselineSpecs()[0], true) })
	}
	fanOut(fns)
}

// bfgtsSweepModes are the BFGTS variants Figure 4 resolves via BestBloom.
var bfgtsSweepModes = []sched.BFGTSMode{sched.BFGTSSW, sched.BFGTSHW, sched.BFGTSHWBackoff}

// warmFig4 schedules the full Figure 4 cell matrix: per benchmark the
// one-core baseline, the three reactive baselines, every (mode, Bloom
// size) sweep point behind BestBloom, and the no-overhead bound.
func warmFig4(r *Runner) {
	var fns []func()
	for _, f := range stamp.All() {
		fns = append(fns, func() { r.Baseline(f) })
		for _, m := range BaselineSpecs() {
			fns = append(fns, func() { r.Run(f, m, false) })
		}
		for _, mode := range bfgtsSweepModes {
			for _, bits := range BloomSizes {
				fns = append(fns, func() { r.Run(f, bfgtsSpec(mode, bits, 0), false) })
			}
		}
		fns = append(fns, func() { r.Run(f, bfgtsSpec(sched.BFGTSNoOverhead, 0, 0), false) })
	}
	fanOut(fns)
}

// warmSweep schedules one BFGTS mode's Bloom-size sweep plus baselines.
func warmSweep(mode sched.BFGTSMode) func(r *Runner) {
	return func(r *Runner) {
		var fns []func()
		for _, f := range stamp.All() {
			fns = append(fns, func() { r.Baseline(f) })
			for _, bits := range BloomSizes {
				fns = append(fns, func() { r.Run(f, bfgtsSpec(mode, bits, 0), false) })
			}
		}
		fanOut(fns)
	}
}

// warmSec532 schedules the similarity-interval sweep cells.
func warmSec532(r *Runner) {
	var fns []func()
	for _, f := range stamp.All() {
		fns = append(fns, func() { r.Baseline(f) })
		fns = append(fns, func() { r.Run(f, BaselineSpecs()[1], false) })
		for _, interval := range []int{1, 10, 20} {
			for _, bits := range BloomSizes {
				fns = append(fns, func() { r.Run(f, bfgtsSpecInterval(bits, interval), false) })
			}
		}
	}
	fanOut(fns)
}

// warmReactive schedules the reactive-manager comparison cells.
func warmReactive(r *Runner) {
	var fns []func()
	for _, f := range stamp.All() {
		fns = append(fns, func() { r.Baseline(f) })
		for _, m := range ReactiveSpecs() {
			fns = append(fns, func() { r.Run(f, m, false) })
		}
		fns = append(fns, func() { r.Run(f, bfgtsSpec(sched.BFGTSHW, 2048, 0), false) })
	}
	fanOut(fns)
}

// warmScaling schedules the core-count sweep cells.
func warmScaling(r *Runner) {
	f, _ := stamp.ByName("delaunay")
	fns := []func(){func() { r.Baseline(f) }}
	for _, m := range scalingSpecs() {
		for _, cores := range scalingCores {
			fns = append(fns, func() { r.runAt(f, m, cores, r.cfg.ThreadsPerCore, false) })
		}
	}
	fanOut(fns)
}

// warmAliasing schedules the aliasing ablation cells.
func warmAliasing(r *Runner) {
	var fns []func()
	for _, f := range stamp.All() {
		fns = append(fns, func() { r.Baseline(f) })
		fns = append(fns, func() { r.Run(f, bfgtsSpec(sched.BFGTSHW, 2048, 0), false) })
		fns = append(fns, func() { r.Run(f, aliasedSpec(), false) })
	}
	fanOut(fns)
}

// warmSuspend schedules the suspend-policy ablation cells.
func warmSuspend(r *Runner) {
	var fns []func()
	for _, f := range stamp.All() {
		fns = append(fns, func() { r.Baseline(f) })
		fns = append(fns, func() { r.Run(f, bfgtsSpec(sched.BFGTSHW, 2048, 0), false) })
		fns = append(fns, func() { r.Run(f, alwaysYieldSpec(), false) })
	}
	fanOut(fns)
}

// experimentAliases maps friendly names onto registry IDs.
var experimentAliases = map[string]string{
	"speedup": "fig4a",
}

// ExperimentByID finds an experiment by ID or alias.
func ExperimentByID(id string) (Experiment, bool) {
	if canonical, ok := experimentAliases[id]; ok {
		id = canonical
	}
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// fig4Specs returns the seven managers of Figure 4, resolving each BFGTS
// variant to its best Bloom size per benchmark (the paper reports optimal
// sizes). The returned closure runs one cell.
func fig4Cell(r *Runner, f workload.Factory, name string) *sim.Result {
	switch name {
	case "Backoff", "PTS", "ATS":
		for _, m := range BaselineSpecs() {
			if m.Name == name {
				return r.Run(f, m, false)
			}
		}
	case "BFGTS-SW":
		_, res := r.BestBloom(f, sched.BFGTSSW)
		return res
	case "BFGTS-HW":
		_, res := r.BestBloom(f, sched.BFGTSHW)
		return res
	case "BFGTS-HW/Backoff":
		_, res := r.BestBloom(f, sched.BFGTSHWBackoff)
		return res
	case "BFGTS-NoOverhead":
		return r.Run(f, bfgtsSpec(sched.BFGTSNoOverhead, 0, 0), false)
	}
	panic("harness: unknown manager " + name)
}

// Fig4Managers is the manager order of Figure 4.
var Fig4Managers = []string{
	"Backoff", "PTS", "ATS",
	"BFGTS-SW", "BFGTS-HW", "BFGTS-HW/Backoff", "BFGTS-NoOverhead",
}

// Table1 reproduces the conflict-graph/similarity table.
func Table1(r *Runner) *Report {
	rep := &Report{
		ID:      "table1",
		Title:   "Conflict graph and per-sTx similarity (Backoff manager, exact Eq. 1 profiling)",
		Columns: []string{"Benchmark", "Tx", "ConflictGraph", "Similarity"},
		Values:  map[string]float64{},
	}
	for _, f := range stamp.All() {
		res := r.Run(f, BaselineSpecs()[0], true)
		n := len(res.ConflictMatrix)
		for s := 0; s < n; s++ {
			var peers []string
			for o := 0; o < n; o++ {
				if res.ConflictMatrix[s][o] > 0 {
					peers = append(peers, fmt.Sprintf("%d", o))
				}
			}
			bench := ""
			if s == 0 {
				bench = f.Name()
			}
			rep.Rows = append(rep.Rows, []string{
				bench, fmt.Sprintf("%d:", s), strings.Join(peers, " "),
				fmt.Sprintf("%.2f", res.Similarity[s]),
			})
			rep.Values[fmt.Sprintf("sim_%s_%d", f.Name(), s)] = res.Similarity[s]
		}
	}
	return rep
}

// Table4 reproduces the contention-rate table.
func Table4(r *Runner) *Report {
	rep := &Report{
		ID:      "table4",
		Title:   "Contention rates (% of transaction executions aborted)",
		Columns: append([]string{"Benchmark"}, Fig4Managers...),
		Values:  map[string]float64{},
	}
	for _, f := range stamp.All() {
		row := []string{f.Name()}
		for _, m := range Fig4Managers {
			res := fig4Cell(r, f, m)
			row = append(row, fmt.Sprintf("%.1f%%", res.ContentionPct()))
			rep.Values[fmt.Sprintf("cont_%s_%s", f.Name(), m)] = res.ContentionPct()
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// Fig4a reproduces the speedup-over-one-core chart.
func Fig4a(r *Runner) *Report {
	rep := &Report{
		ID:      "fig4a",
		Title:   "Speedup over one core (16 CPUs, 64 threads)",
		Columns: append([]string{"Benchmark"}, Fig4Managers...),
		Values:  map[string]float64{},
	}
	sums := make([]float64, len(Fig4Managers))
	for _, f := range stamp.All() {
		row := []string{f.Name()}
		for i, m := range Fig4Managers {
			sp := r.Speedup(f, fig4Cell(r, f, m))
			sums[i] += sp
			row = append(row, fmt.Sprintf("%.2f", sp))
			rep.Values[fmt.Sprintf("speedup_%s_%s", f.Name(), m)] = sp
		}
		rep.Rows = append(rep.Rows, row)
	}
	avg := []string{"AVG"}
	n := float64(len(stamp.All()))
	for i, m := range Fig4Managers {
		avg = append(avg, fmt.Sprintf("%.2f", sums[i]/n))
		rep.Values["avg_"+m] = sums[i] / n
	}
	rep.Rows = append(rep.Rows, avg)
	return rep
}

// Fig4b derives percent improvement over PTS from the Figure 4(a) data.
func Fig4b(r *Runner) *Report {
	base := Fig4a(r)
	rep := &Report{
		ID:      "fig4b",
		Title:   "Percent improvement over PTS",
		Columns: append([]string{"Benchmark"}, Fig4Managers...),
		Values:  map[string]float64{},
	}
	sums := make([]float64, len(Fig4Managers))
	for _, f := range stamp.All() {
		row := []string{f.Name()}
		pts := base.Values[fmt.Sprintf("speedup_%s_PTS", f.Name())]
		for i, m := range Fig4Managers {
			sp := base.Values[fmt.Sprintf("speedup_%s_%s", f.Name(), m)]
			imp := 100 * (sp - pts) / pts
			sums[i] += imp
			row = append(row, fmt.Sprintf("%+.1f%%", imp))
			rep.Values[fmt.Sprintf("imp_%s_%s", f.Name(), m)] = imp
		}
		rep.Rows = append(rep.Rows, row)
	}
	avg := []string{"AVG"}
	n := float64(len(stamp.All()))
	for i, m := range Fig4Managers {
		avg = append(avg, fmt.Sprintf("%+.1f%%", sums[i]/n))
		rep.Values["avgimp_"+m] = sums[i] / n
	}
	rep.Rows = append(rep.Rows, avg)
	return rep
}

// fig5Managers is the subset of managers Figure 5 breaks down.
var fig5Managers = []string{"PTS", "ATS", "BFGTS-SW", "BFGTS-HW", "BFGTS-HW/Backoff"}

// Fig5 reproduces the normalized time breakdown. Each row's categories sum
// to the benchmark's runtime normalized to single-core execution (core
// idle time is folded into Kernel, as blocked-thread time manifests there).
func Fig5(r *Runner) *Report {
	rep := &Report{
		ID:      "fig5",
		Title:   "Execution-time breakdown normalized to one-core runtime",
		Columns: []string{"Benchmark", "Manager", "NonTx", "Kernel", "Tx", "Abort", "Scheduling", "Total"},
		Values:  map[string]float64{},
	}
	for _, f := range stamp.All() {
		base := r.Baseline(f)
		denom := float64(r.cfg.Cores) * float64(base.Makespan)
		for _, m := range fig5Managers {
			res := fig4Cell(r, f, m)
			b := res.Breakdown
			kernel := float64(b[sim.CatKernel]+b[sim.CatIdle]) / denom
			vals := []float64{
				float64(b[sim.CatNonTx]) / denom,
				kernel,
				float64(b[sim.CatTx]) / denom,
				float64(b[sim.CatAbort]) / denom,
				float64(b[sim.CatScheduling]) / denom,
			}
			total := 0.0
			row := []string{f.Name(), m}
			for _, v := range vals {
				row = append(row, fmt.Sprintf("%.3f", v))
				total += v
			}
			row = append(row, fmt.Sprintf("%.3f", total))
			rep.Rows = append(rep.Rows, row)
			rep.Values[fmt.Sprintf("kernel_%s_%s", f.Name(), m)] = kernel
			rep.Values[fmt.Sprintf("sched_%s_%s", f.Name(), m)] = vals[4]
			rep.Values[fmt.Sprintf("abort_%s_%s", f.Name(), m)] = vals[3]
		}
	}
	return rep
}

func bloomSweep(r *Runner, id, title string, mode sched.BFGTSMode) *Report {
	rep := &Report{
		ID:      id,
		Title:   title,
		Columns: []string{"Benchmark", "512b", "1024b", "2048b", "4096b", "8192b", "best"},
		Values:  map[string]float64{},
	}
	for _, f := range stamp.All() {
		row := []string{f.Name()}
		bestBits, bestSp := 0, 0.0
		for _, bits := range BloomSizes {
			sp := r.Speedup(f, r.Run(f, bfgtsSpec(mode, bits, 0), false))
			row = append(row, fmt.Sprintf("%.2f", sp))
			rep.Values[fmt.Sprintf("speedup_%s_%d", f.Name(), bits)] = sp
			if sp > bestSp {
				bestSp, bestBits = sp, bits
			}
		}
		row = append(row, fmt.Sprintf("%db", bestBits))
		rep.Values[fmt.Sprintf("best_%s", f.Name())] = float64(bestBits)
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// Fig6a is the BFGTS-HW Bloom-size sweep.
func Fig6a(r *Runner) *Report {
	return bloomSweep(r, "fig6a", "BFGTS-HW speedup vs Bloom filter size", sched.BFGTSHW)
}

// Fig6b is the BFGTS-HW/Backoff Bloom-size sweep.
func Fig6b(r *Runner) *Report {
	return bloomSweep(r, "fig6b", "BFGTS-HW/Backoff speedup vs Bloom filter size", sched.BFGTSHWBackoff)
}

// Sec532 sweeps the small-transaction similarity-update interval for
// BFGTS-HW and reports average improvement over PTS per interval.
func Sec532(r *Runner) *Report {
	rep := &Report{
		ID:      "sec532",
		Title:   "Average improvement over PTS vs similarity-update interval (BFGTS-HW)",
		Columns: []string{"Interval", "AvgImprovementOverPTS"},
		Values:  map[string]float64{},
	}
	for _, interval := range []int{1, 10, 20} {
		sum := 0.0
		for _, f := range stamp.All() {
			pts := r.Speedup(f, r.Run(f, BaselineSpecs()[1], false))
			// Use each benchmark's optimal Bloom size at this interval.
			best := 0.0
			for _, bits := range BloomSizes {
				sp := r.Speedup(f, r.Run(f, bfgtsSpecInterval(bits, interval), false))
				if sp > best {
					best = sp
				}
			}
			sum += 100 * (best - pts) / pts
		}
		avg := sum / float64(len(stamp.All()))
		rep.Rows = append(rep.Rows, []string{fmt.Sprintf("%d", interval), fmt.Sprintf("%+.1f%%", avg)})
		rep.Values[fmt.Sprintf("imp_interval_%d", interval)] = avg
	}
	return rep
}

func bfgtsSpecInterval(bits, interval int) ManagerSpec {
	s := bfgtsSpec(sched.BFGTSHW, bits, interval)
	s.Name = fmt.Sprintf("%s/i%d", s.Name, interval)
	return s
}

// aliasedSpec is BFGTS-HW with static IDs folded into 2 confidence-table
// buckets — shared by AblAliasing and its warm pass so both hit one cell.
func aliasedSpec() ManagerSpec {
	return ManagerSpec{
		Name: "BFGTS-HW/alias2",
		New: func(env sched.Env) sched.Manager {
			cfg := core.DefaultConfig(env.NumThreads, env.NumStatic)
			cfg.AliasBuckets = 2
			return sched.NewBFGTS(env, sched.BFGTSHW, cfg)
		},
	}
}

// alwaysYieldSpec is BFGTS-HW with the small-transaction spin path
// disabled — shared by AblSuspend and its warm pass.
func alwaysYieldSpec() ManagerSpec {
	return ManagerSpec{
		Name: "BFGTS-HW/yield",
		New: func(env sched.Env) sched.Manager {
			cfg := core.DefaultConfig(env.NumThreads, env.NumStatic)
			cfg.SmallTxLines = 0 // nothing counts as small: always yield
			return sched.NewBFGTS(env, sched.BFGTSHW, cfg)
		},
	}
}

// AblAliasing compares BFGTS-HW with and without confidence-table
// aliasing (folding static IDs into 2 buckets), quantifying what the
// paper's future-work compression would cost.
func AblAliasing(r *Runner) *Report {
	rep := &Report{
		ID:      "abl-alias",
		Title:   "BFGTS-HW speedup: full confidence table vs 2-bucket aliasing",
		Columns: []string{"Benchmark", "Full", "Aliased", "Delta"},
		Values:  map[string]float64{},
	}
	for _, f := range stamp.All() {
		full := r.Speedup(f, r.Run(f, bfgtsSpec(sched.BFGTSHW, 2048, 0), false))
		al := r.Speedup(f, r.Run(f, aliasedSpec(), false))
		rep.Rows = append(rep.Rows, []string{
			f.Name(), fmt.Sprintf("%.2f", full), fmt.Sprintf("%.2f", al),
			fmt.Sprintf("%+.1f%%", 100*(al-full)/full),
		})
		rep.Values["full_"+f.Name()] = full
		rep.Values["alias_"+f.Name()] = al
	}
	return rep
}

// AblSuspend compares Example 2's size-dependent spin-vs-yield policy
// against always-yield, isolating the value of the small-transaction stall
// path.
func AblSuspend(r *Runner) *Report {
	rep := &Report{
		ID:      "abl-suspend",
		Title:   "BFGTS-HW speedup: size-aware suspend (Example 2) vs always-yield",
		Columns: []string{"Benchmark", "SizeAware", "AlwaysYield", "Delta"},
		Values:  map[string]float64{},
	}
	for _, f := range stamp.All() {
		aware := r.Speedup(f, r.Run(f, bfgtsSpec(sched.BFGTSHW, 2048, 0), false))
		yield := r.Speedup(f, r.Run(f, alwaysYieldSpec(), false))
		rep.Rows = append(rep.Rows, []string{
			f.Name(), fmt.Sprintf("%.2f", aware), fmt.Sprintf("%.2f", yield),
			fmt.Sprintf("%+.1f%%", 100*(yield-aware)/aware),
		})
		rep.Values["aware_"+f.Name()] = aware
		rep.Values["yield_"+f.Name()] = yield
	}
	return rep
}

// SortedValueKeys lists a report's value keys deterministically (test aid).
func SortedValueKeys(rep *Report) []string {
	keys := make([]string, 0, len(rep.Values))
	for k := range rep.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ReactiveSpecs are the Scherer & Scott-style reactive managers (plus the
// plain Backoff baseline) used by AblReactive.
func ReactiveSpecs() []ManagerSpec {
	return []ManagerSpec{
		{Name: "Backoff", New: func(env sched.Env) sched.Manager { return sched.NewBackoff(env) }},
		{Name: "Polite", New: func(env sched.Env) sched.Manager { return sched.NewPolite(env) }},
		{Name: "Karma", New: func(env sched.Env) sched.Manager { return sched.NewKarma(env) }},
		{Name: "Timestamp", New: func(env sched.Env) sched.Manager { return sched.NewTimestampCM(env) }},
	}
}

// AblReactive reproduces the paper's Section 1/2 framing: reactive
// contention managers fix conflicts after the fact and cannot rescue
// dense-contention benchmarks, however clever their stall heuristics; a
// proactive scheduler can. Speedups over one core, BFGTS-HW included as
// the proactive reference.
func AblReactive(r *Runner) *Report {
	specs := ReactiveSpecs()
	cols := []string{"Benchmark"}
	for _, m := range specs {
		cols = append(cols, m.Name)
	}
	cols = append(cols, "BFGTS-HW")
	rep := &Report{
		ID:      "abl-reactive",
		Title:   "Reactive stall heuristics vs proactive scheduling (speedup over one core)",
		Columns: cols,
		Values:  map[string]float64{},
	}
	for _, f := range stamp.All() {
		row := []string{f.Name()}
		for _, m := range specs {
			sp := r.Speedup(f, r.Run(f, m, false))
			row = append(row, fmt.Sprintf("%.2f", sp))
			rep.Values[fmt.Sprintf("speedup_%s_%s", f.Name(), m.Name)] = sp
		}
		sp := r.Speedup(f, r.Run(f, bfgtsSpec(sched.BFGTSHW, 2048, 0), false))
		row = append(row, fmt.Sprintf("%.2f", sp))
		rep.Values[fmt.Sprintf("speedup_%s_BFGTS-HW", f.Name())] = sp
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// AblWarmStart measures what skipping the learning phase is worth: run
// BFGTS-HW cold, export the learned state (core.Runtime.ExportState), and
// run again with the tables pre-loaded. Gains concentrate where learning
// is expensive relative to run length (dense conflict graphs).
func AblWarmStart(r *Runner) *Report {
	rep := &Report{
		ID:      "abl-warmstart",
		Title:   "BFGTS-HW speedup: cold start vs warm-started confidence tables",
		Columns: []string{"Benchmark", "Cold", "Warm", "Delta"},
		Values:  map[string]float64{},
	}
	for _, f := range stamp.All() {
		var trained *core.State
		coldSpec := ManagerSpec{
			Name: "BFGTS-HW/cold",
			New: func(env sched.Env) sched.Manager {
				m := sched.NewBFGTS(env, sched.BFGTSHW, core.DefaultConfig(env.NumThreads, env.NumStatic))
				return &stateCapture{BFGTS: m, out: &trained}
			},
		}
		cold := r.Speedup(f, r.Run(f, coldSpec, false))
		warmSpec := ManagerSpec{
			Name: "BFGTS-HW/warm",
			New: func(env sched.Env) sched.Manager {
				m := sched.NewBFGTS(env, sched.BFGTSHW, core.DefaultConfig(env.NumThreads, env.NumStatic))
				if trained != nil {
					if err := m.Runtime().ImportState(trained); err != nil {
						panic(err)
					}
				}
				return m
			},
		}
		warm := r.Speedup(f, r.Run(f, warmSpec, false))
		rep.Rows = append(rep.Rows, []string{
			f.Name(), fmt.Sprintf("%.2f", cold), fmt.Sprintf("%.2f", warm),
			fmt.Sprintf("%+.1f%%", 100*(warm-cold)/cold),
		})
		rep.Values["cold_"+f.Name()] = cold
		rep.Values["warm_"+f.Name()] = warm
	}
	return rep
}

// stateCapture snapshots the runtime's learned state when the run ends
// (approximated by capturing on every commit; the last one wins).
type stateCapture struct {
	*sched.BFGTS
	out     **core.State
	commits int
}

// OnCommit intercepts to refresh the snapshot periodically.
func (s *stateCapture) OnCommit(tid, stx int, lines, writes []uint64, size int) int64 {
	cost := s.BFGTS.OnCommit(tid, stx, lines, writes, size)
	s.commits++
	if s.commits%512 == 0 {
		*s.out = s.BFGTS.Runtime().ExportState()
	}
	return cost
}

// scalingCores and scalingSpecs define the AblScaling sweep grid, shared
// with its warm pass.
var scalingCores = []int{1, 2, 4, 8, 16}

func scalingSpecs() []ManagerSpec {
	return []ManagerSpec{
		BaselineSpecs()[0],
		BaselineSpecs()[1],
		bfgtsSpec(sched.BFGTSHW, 2048, 0),
	}
}

// AblScaling sweeps the machine size (1..16 cores, 4 threads per core) on
// the dense-contention benchmark to show where proactive scheduling's
// advantage comes from: Backoff degrades with added cores (more concurrent
// conflicters), BFGTS keeps extracting what parallelism exists.
func AblScaling(r *Runner) *Report {
	rep := &Report{
		ID:      "abl-scaling",
		Title:   "Speedup over one core vs core count (delaunay, 4 threads/core)",
		Columns: []string{"Cores", "Backoff", "PTS", "BFGTS-HW"},
		Values:  map[string]float64{},
	}
	f, _ := stamp.ByName("delaunay")
	specs := scalingSpecs()
	base := r.Baseline(f)
	for _, cores := range scalingCores {
		row := []string{fmt.Sprintf("%d", cores)}
		for _, m := range specs {
			res := r.runAt(f, m, cores, r.cfg.ThreadsPerCore, false)
			sp := float64(base.Makespan) / float64(res.Makespan)
			row = append(row, fmt.Sprintf("%.2f", sp))
			rep.Values[fmt.Sprintf("speedup_%d_%s", cores, m.Name)] = sp
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}
