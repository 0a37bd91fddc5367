package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/workload"
)

// Sizes of one repetition, chosen so a repetition takes 1.5 to 2 seconds on
// the 2-vCPU 2.1 GHz reference container and a run holds ten or more: the
// host's bursts last from a few seconds up, and a run needs enough
// repetitions between them for its quartile (measure.go, quiet) to find.
const (
	fig4aScale = 0.11    // harness.Config.Scale of sim_fig4a
	wideTxs    = 60_000  // transactions per sim_wide cell
	lanesTxs   = 650_000 // transactions of the sharded cell in sim_wide's traced run
	wideCores  = 256
	wideTPC    = 4
	laneShards = 16
	// maxCycles is the live-lock guard harness.Runner gives every cell.
	maxCycles = 100_000_000_000
)

// bfgtsSpec builds a BFGTS manager spec from the exported constructors,
// under the name harness gives the same configuration, so a cell run by
// harness.RunAll is found again in the runner's cache.
func bfgtsSpec(mode sched.BFGTSMode, bits int) harness.ManagerSpec {
	name := mode.String()
	if bits != 0 {
		name = fmt.Sprintf("%s/%db", name, bits)
	}
	return harness.ManagerSpec{
		Name:      name,
		BloomBits: bits,
		New: func(env sched.Env) sched.Manager {
			cfg := core.DefaultConfig(env.NumThreads, env.NumStatic)
			if bits != 0 {
				cfg.BloomBits = bits
			}
			return sched.NewBFGTS(env, mode, cfg)
		},
	}
}

// family maps a manager spec onto its sim.host_ns_per_tx suffix.
func family(spec string) string {
	switch {
	case strings.HasPrefix(spec, "Backoff"):
		return "backoff"
	case spec == "PTS":
		return "pts"
	case spec == "ATS":
		return "ats"
	case strings.HasPrefix(spec, "BFGTS-SW"):
		return "bfgts_sw"
	case strings.HasPrefix(spec, "BFGTS-HW/Backoff"):
		return "bfgts_hw_backoff"
	case strings.HasPrefix(spec, "BFGTS-HW"):
		return "bfgts_hw"
	case strings.HasPrefix(spec, "BFGTS-NoOverhead"):
		return "bfgts_noov"
	}
	panic("bench: no family for manager " + spec)
}

// simCell is one simulation of a sim workload.
type simCell struct {
	f    workload.Factory
	spec harness.ManagerSpec
	// baseline marks Figure 4a's one-core, one-thread reference run.
	baseline bool
}

func (c simCell) result(r *harness.Runner) *sim.Result {
	if c.baseline {
		return r.Baseline(c.f)
	}
	return r.Run(c.f, c.spec, false)
}

// simWorkload is sim_fig4a or sim_wide: a harness
// configuration, the cells it simulates, and how a user would run them.
type simWorkload struct {
	cfg    config
	hcfg   harness.Config // Scale is the full-size scale
	cells  []simCell
	fig4a  harness.Experiment // sim_fig4a only
	engine int                // pending events per heap, for the engine drive
}

func newSimWorkload(cfg config) *simWorkload {
	s := &simWorkload{cfg: cfg}
	switch cfg.workload {
	case wlFig4a:
		s.fig4a, _ = harness.ExperimentByID("fig4a")
		s.hcfg = harness.Config{Cores: 16, ThreadsPerCore: 4, Seed: simSeed(cfg.seed), Scale: fig4aScale * cfg.size, Workers: 1}
		s.engine = 64
		for _, f := range stamp.All() {
			s.cells = append(s.cells, simCell{f: f, spec: harness.BaselineSpecs()[0], baseline: true})
			for _, m := range harness.BaselineSpecs() {
				s.cells = append(s.cells, simCell{f: f, spec: m})
			}
			for _, mode := range []sched.BFGTSMode{sched.BFGTSSW, sched.BFGTSHW, sched.BFGTSHWBackoff} {
				for _, bits := range harness.BloomSizes {
					s.cells = append(s.cells, simCell{f: f, spec: bfgtsSpec(mode, bits)})
				}
			}
			s.cells = append(s.cells, simCell{f: f, spec: bfgtsSpec(sched.BFGTSNoOverhead, 0)})
		}
	case wlWide:
		s.hcfg = harness.Config{Cores: wideCores, ThreadsPerCore: wideTPC, Seed: simSeed(cfg.seed), Scale: cfg.size, Workers: 1}
		s.engine = wideCores * wideTPC
		f := wideFactory(wideTxs)
		for _, m := range []harness.ManagerSpec{
			harness.PerThreadBackoffSpec(),
			harness.BaselineSpecs()[2], // ATS
			harness.BaselineSpecs()[1], // PTS
			bfgtsSpec(sched.BFGTSSW, 2048),
			bfgtsSpec(sched.BFGTSHW, 2048),
		} {
			s.cells = append(s.cells, simCell{f: f, spec: m})
		}
	}
	return s
}

// simSeeds are the seeds the simulations run with: --seed n picks
// simSeeds[n % len(simSeeds)], the same inputs for the same n whatever the
// code under test does. They are a fixed list, not all of uint64, because
// the simulator's ATS manager has a defect this benchmark found and may not
// fix (README, "A defect found on the way"): on about one seed in twelve a
// 16-core ATS cell ends early with commits missing, and the contract wants
// workloads on which no operation fails. These are the seeds from 1 up, 11
// and 33 left out, at which every cell of the sim workloads committed
// everything, at warm-up and at full size, when the benchmark was written. A
// cell that loses commits on one of them fails the run like any other;
// TestSimSeedsCommitEverything replays the ATS cells on the whole list.
var simSeeds = [32]uint64{
	1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16, 17,
	18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 34,
}

func simSeed(seed uint64) uint64 { return simSeeds[seed%uint64(len(simSeeds))] }

// wideFactory is harness.WideFactory at the benchmark's transaction count.
func wideFactory(txs int) workload.Factory {
	return workload.NewFactory("wide", txs, func(total int) workload.Workload {
		return workload.NewWide(wideCores, wideTPC, total)
	})
}

// scaledTxs is the transaction count harness gives a factory at a scale.
func scaledTxs(f workload.Factory, scale float64) int {
	return max(64, int(float64(f.Txs)*scale))
}

// rep runs the workload the way a user does — through harness, on a fresh
// runner — and then reads every cell back out of the runner's cache to
// check and digest it.
func (s *simWorkload) rep(frac float64) rep {
	hc := s.hcfg
	hc.Scale *= frac
	var simulated atomic.Int64
	hc.Progress = func(string) { simulated.Add(1) }
	var r *harness.Runner
	wall, allocB, mallocs := timed(func() {
		r = harness.NewRunner(hc)
		if s.cfg.workload == wlFig4a {
			harness.RunAll(r, []harness.Experiment{s.fig4a})
			return
		}
		for _, c := range s.cells {
			c.result(r)
		}
	})
	out := rep{wall: wall, allocB: allocB, mallocs: mallocs}
	digest := sha256.New()
	for _, c := range s.cells {
		s.check(&out, digest, c, c.result(r), hc.Scale)
	}
	if int(simulated.Load()) != len(s.cells) {
		// The cell list no longer matches what the experiment simulates.
		out.failed = out.attempted
	}
	out.digest = fmt.Sprintf("%x", digest.Sum(nil))
	return out
}

// check counts one cell into the repetition and folds it into the digest.
func (s *simWorkload) check(out *rep, digest io.Writer, c simCell, res *sim.Result, scale float64) {
	want := int64(scaledTxs(c.f, scale))
	if s.cfg.breakInvariant {
		want++
	}
	out.attempted++
	if res.TimedOut || res.Commits != want {
		out.failed++
	}
	out.commits += res.Commits
	out.simCycles += res.Makespan
	name := c.spec.Name
	if c.baseline {
		name += "@1x1"
	}
	fmt.Fprintf(digest, "%s|%s|%d|%d|%d|%v\n", c.f.Name(), name, res.Makespan, res.Commits, res.Aborts, res.Breakdown)
}

// runCell builds and runs one cell directly on internal/sim, with the
// fields harness.Runner sets, recording a span around each call when tr is
// non-nil.
func (s *simWorkload) runCell(tr *tracer, id int, c simCell, scale float64, mod func(*sim.RunConfig)) (*sim.Result, time.Duration) {
	rc := sim.RunConfig{
		Cores:          s.hcfg.Cores,
		ThreadsPerCore: s.hcfg.ThreadsPerCore,
		Seed:           s.hcfg.Seed,
		NewManager:     c.spec.New,
		MaxCycles:      maxCycles,
		Shards:         s.hcfg.Shards,
	}
	if c.baseline {
		rc.Cores, rc.ThreadsPerCore = 1, 1
	}
	if mod != nil {
		mod(&rc)
	}
	tr.do("workload.build", id, func() { rc.Workload = c.f.New(scaledTxs(c.f, scale)) })
	var r *sim.Runner
	tr.do("sim.new_runner", id, func() { r = sim.NewRunner(rc) })
	var res *sim.Result
	run := tr.do("sim.run", id, func() { res = r.Run() })
	return res, run
}

// traced runs every cell once with spans, then the workload's comparisons
// and the simulator-side layer drives.
func (s *simWorkload) traced(tr *tracer, base []rep, out *results) rep {
	scale := s.hcfg.Scale
	type famSum struct {
		run      time.Duration
		attempts int64
	}
	fams := map[string]*famSum{}
	var aborts, attempts int64

	traced := rep{}
	digest := sha256.New()
	runtime.GC()
	root := tr.begin("rep", 0)
	for i, c := range s.cells {
		cid := tr.begin("cell", i+1)
		res, run := s.runCell(tr, i+1, c, scale, nil)
		tr.do("digest", i+1, func() { s.check(&traced, digest, c, res, scale) })
		tr.end(cid)
		aborts += res.Aborts
		attempts += res.Commits + res.Aborts
		if c.baseline {
			continue // other geometry: not comparable with the manager cells
		}
		f := fams[family(c.spec.Name)]
		if f == nil {
			f = &famSum{}
			fams[family(c.spec.Name)] = f
		}
		f.run += run
		f.attempts += res.Commits + res.Aborts
	}
	tr.end(root)
	traced.wall = tr.spans[root].dur()
	traced.digest = fmt.Sprintf("%x", digest.Sum(nil))

	baseWall := medianOf(base, rep.wallS)
	out.set("sim.mcycles_per_s", medianOf(base, func(r rep) float64 {
		return float64(r.simCycles) / 1e6 / r.wall.Seconds()
	}))
	out.set("workload.build_ms", ms(tr.total("workload.build")))
	out.set("sim.new_runner_ms", ms(tr.total("sim.new_runner")))
	out.set("sim.run_ms", ms(tr.total("sim.run")))
	for name, f := range fams {
		out.set("sim.host_ns_per_tx."+name, float64(f.run.Nanoseconds())/float64(f.attempts))
	}
	out.set("tm.abort_ratio", float64(aborts)/float64(attempts))

	switch s.cfg.workload {
	case wlFig4a:
		s.fig4aExtras(out, baseWall)
	case wlWide:
		s.lanesExtras(out, &traced)
	}
	simDrives(s, out, traced.commits, traced.wall)
	return traced
}

// fig4aExtras measures what only the Figure 4a job has: the parallel pool,
// the warm-cache reports, the export, and the observer and entangled-shard
// budgets on two of its cells.
func (s *simWorkload) fig4aExtras(out *results, baseWall float64) {
	hc := s.hcfg
	hc.Workers = runtime.NumCPU()
	r := harness.NewRunner(hc)
	var reports []*harness.Report
	var par time.Duration
	allProcs(func() {
		t0 := time.Now()
		reports = harness.RunAll(r, []harness.Experiment{s.fig4a})
		par = time.Since(t0)
	})
	out.set("harness.parallel_speedup", baseWall/par.Seconds())
	out.set("model.speedup", reports[0].Values["avg_BFGTS-HW"])

	var cached []harness.Experiment
	for _, id := range []string{"fig4b", "table4", "fig5"} {
		e, _ := harness.ExperimentByID(id)
		cached = append(cached, e)
	}
	t0 := time.Now()
	warm := harness.RunAll(r, cached)
	out.set("harness.cached_rerun_ms", ms(time.Since(t0)))

	// The paper's Figure 4b averages, percent improvement over PTS.
	paper := map[string]float64{"ATS": -10, "BFGTS-SW": 7, "BFGTS-HW": 25, "BFGTS-HW/Backoff": 30, "BFGTS-NoOverhead": 50}
	gap := 0.0
	for m, want := range paper {
		gap += math.Abs(warm[0].Values["avgimp_"+m] - want)
	}
	out.set("model.paper_gap_pp", gap/float64(len(paper)))

	t0 = time.Now()
	_ = harness.NewExport(hc, append(reports, warm...)).EncodeJSON(io.Discard) // Discard cannot fail
	out.set("harness.export_ms", ms(time.Since(t0)))

	// Observer and entangled-shard budgets: intruder and delaunay under
	// BFGTS-HW, at four times the repetition's scale so one run is tens of
	// milliseconds.
	var both []simCell
	for _, name := range []string{"intruder", "delaunay"} {
		f, _ := stamp.ByName(name)
		both = append(both, simCell{f: f, spec: bfgtsSpec(sched.BFGTSHW, 2048)})
	}
	threads := s.hcfg.Cores * s.hcfg.ThreadsPerCore
	run := func(cells []simCell, mod func(*sim.RunConfig)) func() float64 {
		return func() float64 {
			var sum time.Duration
			for _, c := range cells {
				_, d := s.runCell(nil, 0, c, 4*s.hcfg.Scale, mod)
				sum += d
			}
			return sum.Seconds()
		}
	}
	med := alternate(5,
		run(both, nil),
		run(both, func(rc *sim.RunConfig) { rc.Metrics = metrics.New() }),
		run(both, func(rc *sim.RunConfig) { rc.Decisions = decision.NewSet(threads, 0) }),
		run(both[:1], nil),
		run(both[:1], func(rc *sim.RunConfig) { rc.Shards = 4 }),
	)
	out.set("observe.metrics_overhead_pct", 100*(med[1]-med[0])/med[0])
	out.set("observe.decisions_overhead_pct", 100*(med[2]-med[0])/med[0])
	out.set("sim.entangled_overhead_ratio", med[4]/med[3])
}

// alternate times the variants round-robin, so drift in the host hits all
// of them alike, and returns each variant's median.
func alternate(rounds int, variants ...func() float64) []float64 {
	samples := make([][]float64, len(variants))
	for r := 0; r < rounds; r++ {
		for v, fn := range variants {
			samples[v] = append(samples[v], fn())
		}
	}
	med := make([]float64, len(variants))
	for v := range med {
		med[v] = median(samples[v])
	}
	return med
}

// lanesExtras measures the partitioned engine, which no timed repetition
// uses: the wide machine under Backoff-PT at lanesTxs transactions and
// Shards 16 — lane goroutines with their own heaps, the null-message
// barrier, SPSC rings — then the same with a metrics registry for the
// barrier and ring counts, unsharded (the reference every sharded result
// must equal in each integer field), and sharded on every processor. The
// four runs are one checked operation of the traced repetition.
func (s *simWorkload) lanesExtras(out *results, traced *rep) {
	c := simCell{f: wideFactory(lanesTxs), spec: harness.PerThreadBackoffSpec()}
	scale := s.hcfg.Scale
	sharded := func(rc *sim.RunConfig) { rc.Shards = laneShards }
	lanes, lanesRun := s.runCell(nil, 0, c, scale, sharded)
	withReg, _ := s.runCell(nil, 0, c, scale, func(rc *sim.RunConfig) {
		sharded(rc)
		rc.Metrics = metrics.New()
	})
	snap := withReg.Metrics
	var waits int64
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "sim.shard.") && strings.HasSuffix(name, ".horizon_wait") {
			waits += h.N
		}
	}
	out.set("sim.shard.barrier_waits", float64(waits))
	out.set("sim.shard.msgs_sent", float64(snap.Counters["sim.shard.msgs.sent"]))
	out.set("sim.shard.send_stall_spins", float64(snap.Counters["sim.shard.send_stall_spins"]))

	seq, seqRun := s.runCell(nil, 0, c, scale, nil)
	var par *sim.Result
	var parRun time.Duration
	allProcs(func() { par, parRun = s.runCell(nil, 0, c, scale, sharded) })
	out.set("sim.shard.wall_s", lanesRun.Seconds())
	out.set("sim.shard.seq_wall_s", seqRun.Seconds())
	out.set("sim.shard.speedup_vs_seq", seqRun.Seconds()/lanesRun.Seconds())
	out.set("sim.shard.parallel_speedup", lanesRun.Seconds()/parRun.Seconds())

	want := int64(scaledTxs(c.f, scale))
	if s.cfg.breakInvariant {
		want++
	}
	traced.attempted++
	if seq.TimedOut || seq.Commits != want || !sameIntegers(lanes, seq) || !sameIntegers(withReg, seq) || !sameIntegers(par, seq) {
		traced.failed++
	}
}

// sameIntegers compares every integer field of two results.
// AttemptsPerCommit's mean may differ in its last bits across shard counts
// by design and is left out.
func sameIntegers(a, b *sim.Result) bool {
	if a.Makespan != b.Makespan || a.Commits != b.Commits || a.Aborts != b.Aborts ||
		a.Breakdown != b.Breakdown || len(a.ConflictMatrix) != len(b.ConflictMatrix) {
		return false
	}
	for i := range a.ConflictMatrix {
		for j := range a.ConflictMatrix[i] {
			if a.ConflictMatrix[i][j] != b.ConflictMatrix[i][j] {
				return false
			}
		}
	}
	return true
}
