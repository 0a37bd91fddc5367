package harness

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/decision"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/stats"
	"repro/internal/workload"
)

// recycleCell is one simulation of TestRecycledCellsMatchFresh: a
// benchmark under a manager, or (spec nil) the benchmark's 1×1 baseline.
type recycleCell struct {
	f    workload.Factory
	spec *ManagerSpec
}

func (c recycleCell) String() string {
	if c.spec == nil {
		return c.f.Name() + "/baseline"
	}
	return c.f.Name() + "/" + c.spec.Name
}

// recycleOut is everything a cell produced: the plain result, the
// instrumented result with its metrics snapshot, and the decision-traced
// result with its merged records. frozen holds deep copies of the three
// results taken the moment they were returned.
type recycleOut struct {
	plain, inst, dec *sim.Result
	recs             []decision.Record
	frozen           [3]*sim.Result
}

// run simulates the cell every way on session r, calling before ahead of
// each simulation.
func (c recycleCell) run(r *Runner, before func()) *recycleOut {
	before()
	if c.spec == nil {
		res := r.Baseline(c.f)
		return &recycleOut{plain: res, frozen: [3]*sim.Result{cloneResult(res)}}
	}
	o := &recycleOut{plain: r.Run(c.f, *c.spec, false)}
	o.frozen[0] = cloneResult(o.plain)
	if r.cfg.Shards <= 1 {
		// Partitioned runs' shard instruments count host-side spins, so
		// only unsharded sessions compare snapshots.
		before()
		o.inst = r.RunInstrumented(c.f, *c.spec, nil, metrics.New())
		o.frozen[1] = cloneResult(o.inst)
	}
	before()
	var set *decision.Set
	o.dec, set = r.RunDecisions(c.f, *c.spec)
	o.recs = set.Merge()
	o.frozen[2] = cloneResult(o.dec)
	return o
}

// cloneResult deep-copies every reference-typed field of a Result except
// Metrics, whose snapshot the caller's registry built.
func cloneResult(res *sim.Result) *sim.Result {
	c := *res
	c.ConflictMatrix = make([][]int64, len(res.ConflictMatrix))
	for i, row := range res.ConflictMatrix {
		c.ConflictMatrix[i] = append([]int64(nil), row...)
	}
	c.CommitsPerStx = append([]int64(nil), res.CommitsPerStx...)
	c.Similarity = append([]float64(nil), res.Similarity...)
	c.Latency = append([]stats.Histogram(nil), res.Latency...)
	if res.Deadlocked != nil {
		d := sim.Deadlock{Parked: append([]sim.ParkedThread(nil), res.Deadlocked.Parked...)}
		c.Deadlocked = &d
	}
	return &c
}

// TestRecycledCellsMatchFresh pins that recycling simulator shells, and
// the managers retired in them, from one cell to the next is invisible.
// Every manager runs on all seven kernels and on the wide machine (each
// kernel also runs its 1×1 baseline), at reduced scale, three ways: in one
// cell order and in the reverse one, each on a four-worker session so
// shells change hands between goroutines and geometries, and each cell
// fresh, after two collections have emptied the shell pool. BFGTS-SW and
// BFGTS-HW run at 512, 1024 and 8192 bits, so a recycled runtime's
// signature slab is re-carved across Bloom geometries in both directions
// and between Bloom filters and NoOverhead's exact sets. Results, metrics snapshots and
// decision traces must agree across all three. Every Result is also
// deep-copied as it is returned and compared with itself once its whole
// pass is over: a Result aliasing its shell — the conflict matrix used to
// be the TM's own — changes when a later cell reuses that shell.
func TestRecycledCellsMatchFresh(t *testing.T) {
	specs := append(BaselineSpecs(), PerThreadBackoffSpec())
	for _, mode := range []sched.BFGTSMode{sched.BFGTSSW, sched.BFGTSHW} {
		for _, bits := range []int{512, 1024, 8192} {
			specs = append(specs, bfgtsSpec(mode, bits, 0))
		}
	}
	for _, mode := range []sched.BFGTSMode{sched.BFGTSHWBackoff, sched.BFGTSNoOverhead} {
		specs = append(specs, bfgtsSpec(mode, 1024, 0))
	}
	cfg := Config{Cores: 8, ThreadsPerCore: 2, Seed: 3, Scale: 0.01, Workers: 4}
	var cells []recycleCell
	for _, f := range stamp.All() {
		cells = append(cells, recycleCell{f: f})
		for i := range specs {
			cells = append(cells, recycleCell{f: f, spec: &specs[i]})
		}
	}
	wide := WideFactory(cfg.Cores, cfg.ThreadsPerCore)
	for i := range specs {
		cells = append(cells, recycleCell{f: wide, spec: &specs[i]})
	}
	sharded := cfg
	sharded.Shards = 2 // Backoff-PT takes the partitioned path
	type session struct {
		cfg   Config
		cells []recycleCell
	}
	sessions := []session{{cfg, cells}, {sharded, cells[len(cells)-len(specs):]}}

	for _, s := range sessions {
		n := len(s.cells)
		pass := func(order func(i int) int) []*recycleOut {
			r := NewRunner(s.cfg)
			outs := make([]*recycleOut, n)
			fns := make([]func(), n)
			for i := range fns {
				j := order(i)
				fns[i] = func() { outs[j] = s.cells[j].run(r, func() {}) }
			}
			fanOut(fns)
			return outs
		}
		forward := pass(func(i int) int { return i })
		backward := pass(func(i int) int { return n - 1 - i })
		fresh := make([]*recycleOut, n)
		emptyPools := func() { runtime.GC(); runtime.GC() }
		for i, c := range s.cells {
			fresh[i] = c.run(NewRunner(s.cfg), emptyPools)
		}
		for i, c := range s.cells {
			name := fmt.Sprintf("shards=%d %v", s.cfg.Shards, c)
			for _, o := range []*recycleOut{forward[i], backward[i], fresh[i]} {
				for k, res := range []*sim.Result{o.plain, o.inst, o.dec} {
					if res != nil && !reflect.DeepEqual(res, o.frozen[k]) {
						t.Errorf("%s: result %d changed after later cells reused its shell", name, k)
					}
				}
			}
			for _, o := range []*recycleOut{backward[i], fresh[i]} {
				want := forward[i]
				if !reflect.DeepEqual(o.plain, want.plain) {
					t.Errorf("%s: plain results differ between orders (makespan %d vs %d)", name, o.plain.Makespan, want.plain.Makespan)
				}
				if !reflect.DeepEqual(o.inst, want.inst) {
					t.Errorf("%s: instrumented results or metrics snapshots differ between orders", name)
				}
				if !reflect.DeepEqual(o.dec, want.dec) || !reflect.DeepEqual(o.recs, want.recs) {
					t.Errorf("%s: decision-traced results or records differ between orders", name)
				}
			}
		}
	}
}
