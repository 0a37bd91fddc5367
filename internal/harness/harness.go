// Package harness maps every table and figure of the paper's evaluation
// (Section 5) to runnable experiments over the simulator: Table 1
// (conflict graphs and similarity), Table 4 (contention rates), Figure 4
// (speedup and improvement over PTS), Figure 5 (time breakdown), Figure 6
// (Bloom-filter size sensitivity), the Section 5.3.2 similarity-interval
// sweep, and ablations for the design choices DESIGN.md calls out.
//
// Experiments return structured Reports that the CLI renders as ASCII and
// the test suite asserts shape properties against.
package harness

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config scales and seeds a whole experiment.
type Config struct {
	Cores          int
	ThreadsPerCore int
	Seed           uint64
	// Scale multiplies every benchmark's transaction count; use < 1 for
	// quick runs (benchmarks, CI).
	Scale float64
	// Workers bounds how many simulations may execute concurrently when
	// experiments fan out (RunAll, MultiSeed, warm passes). 0 means
	// runtime.NumCPU(); 1 serializes all compute.
	Workers int
	// NoBatch runs every simulation on the legacy one-event-per-access
	// engine path instead of horizon-batched execution. Output is
	// cycle-identical either way; the switch exists for differential
	// testing and bisection.
	NoBatch bool
	// NoBloofi runs every simulation with the Bloofi signature directory
	// disabled, using the literal linear begin-time scans. Output is
	// byte-identical either way; the switch exists for differential
	// testing and bisection.
	NoBloofi bool
	// Shards splits every simulation into that many concurrently
	// synchronized engine/directory shards (sim.RunConfig.Shards). Output
	// is byte-identical at any shard count; the knob trades single-run
	// wall-clock for shard coordination. 0 or 1 means unsharded.
	Shards int
	// Progress, if non-nil, receives one line per simulation as it
	// finishes (cache hits are silent). It may be called from multiple
	// goroutines concurrently.
	Progress func(line string)
}

// DefaultConfig is the paper's machine: 16 CPUs, 64 threads.
func DefaultConfig() Config {
	return Config{Cores: 16, ThreadsPerCore: 4, Seed: 1, Scale: 1.0}
}

// ManagerSpec names a contention-manager configuration.
type ManagerSpec struct {
	Name      string
	BloomBits int // 0 where not applicable
	New       func(env sched.Env) sched.Manager
}

// bfgtsSpec builds a BFGTS variant spec with a given Bloom size and
// similarity interval.
func bfgtsSpec(mode sched.BFGTSMode, bloomBits, simInterval int) ManagerSpec {
	name := mode.String()
	if bloomBits != 0 {
		name = fmt.Sprintf("%s/%db", name, bloomBits)
	}
	return ManagerSpec{
		Name:      name,
		BloomBits: bloomBits,
		New: func(env sched.Env) sched.Manager {
			cfg := core.DefaultConfig(env.NumThreads, env.NumStatic)
			if bloomBits != 0 {
				cfg.BloomBits = bloomBits
			}
			if simInterval != 0 {
				cfg.SimInterval = simInterval
			}
			return sched.NewBFGTS(env, mode, cfg)
		},
	}
}

// BaselineSpecs are the non-BFGTS managers.
func BaselineSpecs() []ManagerSpec {
	return []ManagerSpec{
		{Name: "Backoff", New: func(env sched.Env) sched.Manager { return sched.NewBackoff(env) }},
		{Name: "PTS", New: func(env sched.Env) sched.Manager { return sched.NewPTS(env) }},
		{Name: "ATS", New: func(env sched.Env) sched.Manager { return sched.NewATS(env) }},
	}
}

// PerThreadBackoffSpec is the shard-safe Backoff variant (per-thread
// jitter streams). It is kept out of BaselineSpecs so the pinned baseline
// reports are unchanged; the wide experiment and the sharded differential
// gates use it where fully-partitioned execution matters.
func PerThreadBackoffSpec() ManagerSpec {
	return ManagerSpec{
		Name: "Backoff-PT",
		New:  func(env sched.Env) sched.Manager { return sched.NewPerThreadBackoff(env) },
	}
}

// BloomSizes is the paper's sweep range.
var BloomSizes = []int{512, 1024, 2048, 4096, 8192}

// runKey identifies a simulation for the in-process cache.
type runKey struct {
	bench    string
	manager  string
	cores    int
	tpc      int
	seed     uint64
	scale    float64
	profile  bool
	noBatch  bool
	noBloofi bool
	shards   int
}

// cacheEntry is one memoized simulation. The first caller of a runKey
// (the leader) allocates the entry, runs the simulation, and closes done;
// concurrent callers of the same key block on done and share the result —
// a singleflight memo, so racing experiments never duplicate a cell.
type cacheEntry struct {
	done chan struct{}
	res  *sim.Result
}

// decCacheEntry is one memoized decision-traced simulation: the result
// plus its decision set, which is read-only once done closes and so safe
// to share across experiments.
type decCacheEntry struct {
	done chan struct{}
	res  *sim.Result
	set  *decision.Set
}

// Runner executes and caches simulations for one experiment session.
// All methods are safe for concurrent use.
type Runner struct {
	cfg  Config
	pool *Pool

	mu       sync.Mutex
	cache    map[runKey]*cacheEntry
	decCache map[runKey]*decCacheEntry
	refused  []string // cells that deadlocked, one diagnostic line each
}

// NewRunner returns a fresh experiment session with its own worker pool
// sized from cfg.Workers.
func NewRunner(cfg Config) *Runner {
	return newRunnerPool(cfg, NewPool(cfg.Workers))
}

// newRunnerPool builds a session that shares an existing pool — used by
// MultiSeed so per-seed sessions contend for one global compute budget.
func newRunnerPool(cfg Config, pool *Pool) *Runner {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	return &Runner{
		cfg:      cfg,
		pool:     pool,
		cache:    make(map[runKey]*cacheEntry),
		decCache: make(map[runKey]*decCacheEntry),
	}
}

// refuse keeps a deadlocked simulation out of the session's books. Its
// Result is a diagnostic, not a measurement: uncache (if any) drops the
// memo entry so a later request simulates again instead of being served
// the partial counts, and the cell is noted for the session's reports
// (Report.Deadlocked).
func (r *Runner) refuse(key runKey, res *sim.Result, uncache func()) {
	if res.Deadlocked == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if uncache != nil {
		uncache()
	}
	r.refused = append(r.refused, fmt.Sprintf("%s under %s (cores=%d tpc=%d seed=%d): %v",
		key.bench, key.manager, key.cores, key.tpc, key.seed, res.Deadlocked))
}

// refusedCells returns the diagnostics of every cell refused so far.
func (r *Runner) refusedCells() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.refused...)
}

// Run simulates one (benchmark, manager) cell, memoizing by configuration.
func (r *Runner) Run(f workload.Factory, m ManagerSpec, profile bool) *sim.Result {
	return r.runAt(f, m, r.cfg.Cores, r.cfg.ThreadsPerCore, profile)
}

// RunTraced simulates one cell with an event trace attached (uncached).
func (r *Runner) RunTraced(f workload.Factory, m ManagerSpec, rec *trace.Recorder) *sim.Result {
	return r.RunInstrumented(f, m, rec, nil)
}

// RunInstrumented simulates one cell with an optional event trace and an
// optional metrics registry attached. Instrumented runs bypass the memo
// cache: their observers are caller-owned, so sharing a cached result
// would silently drop the instrumentation.
func (r *Runner) RunInstrumented(f workload.Factory, m ManagerSpec, rec *trace.Recorder, reg *metrics.Registry) *sim.Result {
	if rec == nil && reg == nil {
		return r.Run(f, m, false)
	}
	var res *sim.Result
	r.pool.do(func() {
		w := f.New(scaledTxs(f, r.cfg.Scale))
		res = sim.NewRunner(sim.RunConfig{
			Cores:          r.cfg.Cores,
			ThreadsPerCore: r.cfg.ThreadsPerCore,
			Seed:           r.cfg.Seed,
			Workload:       w,
			NewManager:     m.New,
			// Exact-set profiling feeds the bloom.est_error summary; it
			// costs host time, not simulated cycles. It reads every
			// thread's sets across the whole machine, so it is a global
			// observer that would force a sharded run back to the
			// entangled path — when the caller explicitly asked for the
			// sharded engine, prefer the engine: shard-safe configs then
			// take the partitioned path and the snapshot carries the
			// sim.shard.* instruments instead of bloom.est_error.
			ProfileSimilarity: reg != nil && r.cfg.Shards <= 1,
			MaxCycles:         100_000_000_000,
			Trace:             rec,
			Metrics:           reg,
			NoBatch:           r.cfg.NoBatch,
			NoBloofi:          r.cfg.NoBloofi,
			Shards:            r.cfg.Shards,
		}).Run()
	})
	res.ManagerName = m.Name
	r.refuse(runKey{bench: f.Name(), manager: m.Name, cores: r.cfg.Cores, tpc: r.cfg.ThreadsPerCore, seed: r.cfg.Seed}, res, nil)
	return res
}

// RunDecisions simulates one cell with a decision trace attached and
// returns both the result and the merged-ready decision set. Decision
// runs are memoized in their own singleflight cache (decision recording
// is observer-only, so the result matches the plain cell cycle for
// cycle); the returned set is read-only and shared — callers must not
// Reset its shards.
func (r *Runner) RunDecisions(f workload.Factory, m ManagerSpec) (*sim.Result, *decision.Set) {
	key := runKey{f.Name(), m.Name, r.cfg.Cores, r.cfg.ThreadsPerCore, r.cfg.Seed, r.cfg.Scale, false, r.cfg.NoBatch, r.cfg.NoBloofi, r.cfg.Shards}
	r.mu.Lock()
	if e, ok := r.decCache[key]; ok {
		r.mu.Unlock()
		<-e.done
		return e.res, e.set
	}
	e := &decCacheEntry{done: make(chan struct{})}
	r.decCache[key] = e
	r.mu.Unlock()
	defer close(e.done)
	r.pool.do(func() {
		w := f.New(scaledTxs(f, r.cfg.Scale))
		set := decision.NewSet(r.cfg.Cores*r.cfg.ThreadsPerCore, 0)
		res := sim.NewRunner(sim.RunConfig{
			Cores:          r.cfg.Cores,
			ThreadsPerCore: r.cfg.ThreadsPerCore,
			Seed:           r.cfg.Seed,
			Workload:       w,
			NewManager:     m.New,
			MaxCycles:      100_000_000_000,
			Decisions:      set,
			NoBatch:        r.cfg.NoBatch,
			NoBloofi:       r.cfg.NoBloofi,
			Shards:         r.cfg.Shards,
		}).Run()
		res.ManagerName = m.Name
		e.res, e.set = res, set
	})
	r.refuse(key, e.res, func() { delete(r.decCache, key) })
	return e.res, e.set
}

// ReplayFlips runs the counterfactual replayer on one cell: a decision-
// traced base run plus one full re-run per sampled begin decision with
// that decision inverted (sim.ReplayFlips). Replay re-simulates the
// window up to maxFlips+1 times, so it is uncached and pool-bounded as
// one long job.
func (r *Runner) ReplayFlips(f workload.Factory, m ManagerSpec, maxFlips int) *sim.ReplayResult {
	var out *sim.ReplayResult
	r.pool.do(func() {
		w := f.New(scaledTxs(f, r.cfg.Scale))
		out = sim.ReplayFlips(sim.RunConfig{
			Cores:          r.cfg.Cores,
			ThreadsPerCore: r.cfg.ThreadsPerCore,
			Seed:           r.cfg.Seed,
			Workload:       w,
			NewManager:     m.New,
			MaxCycles:      100_000_000_000,
			NoBatch:        r.cfg.NoBatch,
			NoBloofi:       r.cfg.NoBloofi,
			Shards:         r.cfg.Shards,
		}, maxFlips)
	})
	out.Base.ManagerName = m.Name
	return out
}

// Baseline simulates the single-core, single-thread reference run that
// Figure 4(a) speedups normalize against.
func (r *Runner) Baseline(f workload.Factory) *sim.Result {
	return r.runAt(f, BaselineSpecs()[0], 1, 1, false)
}

func (r *Runner) runAt(f workload.Factory, m ManagerSpec, cores, tpc int, profile bool) *sim.Result {
	key := runKey{f.Name(), m.Name, cores, tpc, r.cfg.Seed, r.cfg.Scale, profile, r.cfg.NoBatch, r.cfg.NoBloofi, r.cfg.Shards}
	r.mu.Lock()
	if e, ok := r.cache[key]; ok {
		r.mu.Unlock()
		<-e.done // wait out an in-flight leader; closed == complete
		return e.res
	}
	e := &cacheEntry{done: make(chan struct{})}
	r.cache[key] = e
	r.mu.Unlock()
	defer close(e.done) // wake waiters even if the simulation panics
	r.pool.do(func() {
		w := f.New(scaledTxs(f, r.cfg.Scale))
		res := sim.NewRunner(sim.RunConfig{
			Cores:             cores,
			ThreadsPerCore:    tpc,
			Seed:              r.cfg.Seed,
			Workload:          w,
			NewManager:        m.New,
			ProfileSimilarity: profile,
			MaxCycles:         100_000_000_000,
			NoBatch:           r.cfg.NoBatch,
			NoBloofi:          r.cfg.NoBloofi,
			Shards:            r.cfg.Shards,
		}).Run()
		res.ManagerName = m.Name // keep the spec name (includes Bloom size)
		e.res = res
	})
	r.refuse(key, e.res, func() { delete(r.cache, key) })
	if r.cfg.Progress != nil {
		r.cfg.Progress(fmt.Sprintf("%-10s %-22s cores=%-2d tpc=%d seed=%d  %8.2f Mcycles",
			key.bench, key.manager, key.cores, key.tpc, key.seed, float64(e.res.Makespan)/1e6))
	}
	return e.res
}

func scaledTxs(f workload.Factory, scale float64) int {
	n := int(float64(f.Txs) * scale)
	if n < 64 {
		n = 64
	}
	return n
}

// Speedup returns the Figure 4(a) metric for a result against the
// benchmark's single-core baseline.
func (r *Runner) Speedup(f workload.Factory, res *sim.Result) float64 {
	base := r.Baseline(f)
	if res.Makespan == 0 {
		return 0
	}
	return float64(base.Makespan) / float64(res.Makespan)
}

// BestBloom runs the Bloom-size sweep for a BFGTS mode on one benchmark
// and returns the best-performing size and its result — the paper reports
// each BFGTS variant "with their optimal size Bloom filter".
func (r *Runner) BestBloom(f workload.Factory, mode sched.BFGTSMode) (int, *sim.Result) {
	bestBits := 0
	var best *sim.Result
	for _, bits := range BloomSizes {
		res := r.Run(f, bfgtsSpec(mode, bits, 0), false)
		if best == nil || res.Makespan < best.Makespan {
			best, bestBits = res, bits
		}
	}
	return bestBits, best
}
