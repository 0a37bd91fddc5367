package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // how long an untraced run cycles through set-ups and repetitions
	trace    bool
	// size multiplies every workload's size and the layer drives' batch
	// length. Measuring runs have 1; only the tests set a small one.
	size   float64
	outDir string
	// breakInvariant makes the output checks expect one commit too many,
	// so every checked operation fails. Tests use it to see a failure
	// reach failed and the exit status.
	breakInvariant bool
}

const (
	warmFrac  = 0.1 // the warm-up repetition's share of the full size
	minReps   = 3
	traceReps = 4 // untraced repetitions a traced run compares itself with
)

// rep is what one repetition measured.
type rep struct {
	wall      time.Duration
	commits   int64 // committed transactions, simulated or real
	simCycles int64 // sum of the cells' makespans (sim workloads)
	attempted int64 // operations whose outputs were checked
	failed    int64
	allocB    uint64 // runtime.MemStats.TotalAlloc over the timed part
	mallocs   uint64
	digest    string // sim workloads: sha256 over the cells' results
}

func (r rep) wallS() float64  { return r.wall.Seconds() }
func (r rep) txPerS() float64 { return float64(r.commits) / r.wall.Seconds() }

// job is one of the benchmark workloads, ready to run.
type job interface {
	// rep runs one repetition at frac of the workload's size with tracing
	// off and checks its outputs.
	rep(frac float64) rep
	// traced runs one repetition with spans recorded, then the
	// comparisons and layer drives behind the per-layer metrics. base are
	// the untraced repetitions of this run. It returns the traced
	// repetition, whose wall compares with theirs.
	traced(tr *tracer, base []rep, out *results) rep
}

func newJob(cfg config) (job, error) {
	switch cfg.workload {
	case wlFig4a, wlWide:
		return newSimWorkload(cfg), nil
	case wlHot, wlSparse:
		return newSTMWorkload(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// procs is the GOMAXPROCS a workload is measured at. The simulator is
// measured on one processor: its jobs are sequential (Workers 1), and on a
// shared host a second, mostly idle vCPU that only the collector's workers
// wake is where much of sim_fig4a's run-to-run spread came from (README,
// "End-to-end metrics"). What more processors buy is measured
// in the traced run (harness.parallel_speedup, sim.shard.parallel_speedup).
// The STM's clients are W real threads and get every processor.
func procs(workload string) int {
	if strings.HasPrefix(workload, "sim_") {
		return 1
	}
	return runtime.NumCPU()
}

// allProcs runs fn with every processor, for the traced run's parallel
// comparisons, and puts GOMAXPROCS back.
func allProcs(fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	fn()
}

// timed runs fn after a collection, so one repetition's garbage is not
// charged to the next, and reports its wall time and allocation.
func timed(fn func()) (wall time.Duration, allocB, mallocs uint64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	return wall, m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs
}

// runResult is everything one run reports; it is written to the result
// file, and summary is its last line of standard output.
type runResult struct {
	Workload    string    `json:"workload"`
	Seconds     float64   `json:"seconds"`
	Trace       bool      `json:"trace"`
	Host        hostInfo  `json:"host"`
	InputSeed   uint64    `json:"input_seed"` // sim workloads: simSeed(Host.Seed), the seed the simulations ran with
	Correct     bool      `json:"correct"`
	Attempted   int64     `json:"attempted"`
	Failed      int64     `json:"failed"`
	FailedShare float64   `json:"failed_share"`
	RepWallS    []float64 `json:"rep_wall_s"` // the untraced repetitions, in order
	// Speed are wall_s and tx_per_s over those repetitions. An untraced run
	// prints and files them but does not report them as metrics: only the
	// traced run does, as per-layer metrics, which no bound gates.
	Speed        map[string]value `json:"speed,omitempty"`
	Metrics      map[string]value `json:"metrics"`
	ResultDigest string           `json:"result_digest,omitempty"`
	SelfTime     []selfRow        `json:"self_time,omitempty"`
	TraceFile    string           `json:"trace_file,omitempty"`
}

// summary is the contract's result line.
func (r *runResult) summary() string {
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // finish rejected every non-finite value
	}
	return string(line)
}

// runOne sets the workload up, measures it, and with cfg.trace runs the
// traced repetition and the layer drives as well.
func runOne(cfg config) (*runResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs(cfg.workload)))
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	host := fingerprint(cfg.seed)
	res := &runResult{Workload: cfg.workload, Seconds: cfg.seconds,
		Trace: cfg.trace, Host: host, InputSeed: cfg.seed}
	if strings.HasPrefix(cfg.workload, "sim_") {
		res.InputSeed = simSeed(cfg.seed)
	}
	count := func(r rep) {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	// Same seed, same size: every full-size repetition of a simulation
	// must give the first one's digest, or all its cells count as failed.
	var reps []rep
	countFull := func(r rep) {
		count(r)
		if len(reps) > 0 && r.digest != reps[0].digest {
			res.Failed += r.attempted - r.failed
		}
	}

	// A cycle is a set-up and then one repetition on the job it built, so
	// set-ups and repetitions sample the same stretch of host time. An
	// untraced run cycles for cfg.seconds; a traced run sets up once and
	// only needs a few untraced repetitions to hold its traced one against.
	var w job
	var setups []float64
	setUp := func() error {
		t0 := time.Now()
		var err error
		if w, err = newJob(cfg); err != nil {
			return err
		}
		count(w.rep(warmFrac))
		setups = append(setups, time.Since(t0).Seconds())
		return nil
	}
	start := time.Now()
	more := func() bool {
		if cfg.trace {
			return len(reps) < traceReps
		}
		return len(reps) < minReps || time.Since(start).Seconds() < cfg.seconds
	}
	for more() {
		if !cfg.trace || w == nil {
			if err := setUp(); err != nil {
				return nil, err
			}
		}
		r := w.rep(1)
		countFull(r)
		reps = append(reps, r)
	}
	for _, r := range reps {
		res.RepWallS = append(res.RepWallS, r.wall.Seconds())
	}
	res.ResultDigest = reps[0].digest

	wallS, txPerS := quiet(each(reps, rep.wallS), lower), quiet(each(reps, rep.txPerS), higher)
	if !cfg.trace {
		out := newResults(endToEnd)
		out.set("setup_s", quiet(setups, lower))
		out.set("alloc_mb", medianOf(reps, func(r rep) float64 { return float64(r.allocB) / 1e6 }))
		var err error
		if res.Metrics, err = out.finish(cfg.workload); err != nil {
			return nil, err
		}
		res.Speed = map[string]value{"wall_s": {wallS, "s"}, "tx_per_s": {txPerS, "tx/s"}}
	} else {
		out := newResults(perLayer)
		out.set("wall_s", wallS)
		out.set("tx_per_s", txPerS)
		tr := newTracer()
		traced := w.traced(tr, reps, out)
		countFull(traced)
		base := medianOf(reps, rep.wallS)
		out.set("trace.overhead_pct", 100*(traced.wall.Seconds()-base)/base)
		out.set("host.allocs_per_tx", medianOf(reps, func(r rep) float64 {
			return float64(r.mallocs) / float64(r.commits)
		}))
		var gc1 runtime.MemStats
		runtime.ReadMemStats(&gc1)
		out.set("host.gc_cycles", float64(gc1.NumGC-gc0.NumGC))
		out.set("host.gc_pause_ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6)
		out.set("host.peak_rss_mb", peakRSSMB())
		out.set("host.loadavg1", host.LoadAvg1)
		out.set("host.calib_ns", host.CalibNs)
		var err error
		if res.Metrics, err = out.finish(cfg.workload); err != nil {
			return nil, err
		}
		res.SelfTime = tr.selfTimes()
		res.TraceFile = filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
		if err := writeFile(res.TraceFile, tr.writeChrome); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	res.FailedShare = float64(res.Failed) / float64(res.Attempted)

	return res, writeJSON(resultFile(cfg.outDir, cfg.workload, cfg.trace), res)
}

// resultFile names the file one run's result goes to.
func resultFile(outDir, workload string, trace bool) string {
	return filepath.Join(outDir, fmt.Sprintf("result-%s-trace%d.json", workload, b2i(trace)))
}

// writeJSON writes v, indented, to path.
func writeJSON(path string, v any) error {
	return writeFile(path, func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// writeFile creates path (and its directory) and streams enc into it.
func writeFile(path string, enc func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := enc(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// quantile is the p-quantile of xs, interpolated linearly between the two
// order statistics around it.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := p * float64(len(s)-1)
	i := int(k)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (k-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quiet is what a run reports for a timing: the quartile of its repetitions
// on the good side. The shared host only ever takes time away, in bursts of
// seconds to minutes, so the slow repetitions say what the neighbours did
// and the fast ones what the program does; a quartile, not the extreme, so
// that a quarter of the repetitions may be odd in the other direction too
// (stm_sparse has repetitions that take half the usual time).
func quiet(xs []float64, better string) float64 {
	if better == higher {
		return quantile(xs, 0.75)
	}
	return quantile(xs, 0.25)
}

func each(reps []rep, f func(rep) float64) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return xs
}

func medianOf(reps []rep, f func(rep) float64) float64 { return median(each(reps, f)) }
