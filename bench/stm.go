package main

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/bloofi"
	"repro/internal/bloom"
	"repro/internal/metrics"
	"repro/internal/stm"
	"repro/internal/workload"
)

// Sizes of one repetition: Atomic calls per client. Both workloads are
// closed loops of W clients, each issuing its next call when the previous
// one returns.
const (
	hotCalls    = 525_000
	sparseCalls = 750_000
	sparseKeys  = 65_536
	hotShared   = 4 // TVars every stm_hot transaction read-modify-writes
	hotPrivate  = 4 // and per-worker TVars beside them
	lookupReads = 8 // reads of one stm_sparse lookup
	sampleEvery = 8 // the traced run times every 8th call
	// traceSpans bounds the Atomic samples per worker written to the
	// trace file; every sample still feeds the percentiles.
	traceSpans = 2000
)

// stmWorkers is W: the client goroutines, and the System's worker slots.
func stmWorkers() int { return min(runtime.NumCPU(), 4) }

// stmState is one System with the TVars a workload runs over.
type stmState struct {
	sys  *stm.System
	hot  []*stm.TVar[int]   // stm_hot: shared
	priv [][]*stm.TVar[int] // stm_hot: per worker
	keys []*stm.TVar[int]   // stm_sparse
}

// stmWorkload is stm_hot or stm_sparse.
type stmWorkload struct {
	cfg   config
	hot   bool
	w     int
	calls int       // per client at full size
	st    *stmState // under BFGTS: the system the timed repetitions use
	reps  uint64    // repetitions run, so each draws fresh key streams
}

func newSTMWorkload(cfg config) *stmWorkload {
	s := &stmWorkload{cfg: cfg, hot: cfg.workload == wlHot, w: stmWorkers()}
	s.calls = sparseCalls
	if s.hot {
		s.calls = hotCalls
	}
	s.calls = max(64, int(float64(s.calls)*cfg.size))
	s.st = s.newState(nil, stm.SchedBFGTS, s.w)
	return s
}

// newState builds a System and populates the workload's TVars.
func (s *stmWorkload) newState(tr *tracer, kind stm.SchedulerKind, workers int) *stmState {
	st := &stmState{}
	tr.do("stm.new_system", 0, func() {
		st.sys = stm.NewSystem(stm.Config{Workers: workers, StaticTxs: 2, Scheduler: kind})
	})
	tr.do("populate", 0, func() {
		tvars := func(n int) []*stm.TVar[int] {
			vs := make([]*stm.TVar[int], n)
			for i := range vs {
				vs[i] = stm.NewTVar(0)
			}
			return vs
		}
		if s.hot {
			st.hot = tvars(hotShared)
			for w := 0; w < workers; w++ {
				st.priv = append(st.priv, tvars(hotPrivate))
			}
		} else {
			st.keys = tvars(sparseKeys)
		}
	})
	return st
}

// client is one closed-loop caller: its key stream and the transaction
// bodies, built once so a call allocates nothing of the benchmark's own.
type client struct {
	st   *stmState
	w    int
	rng  *workload.RNG
	a, b int   // stm_sparse: the keys of the next call
	sum  int   // keeps lookups' reads alive
	errs int64 // Atomic calls that returned an error

	hotTx, lookupTx, transferTx func(*stm.Tx) error
}

func newClient(st *stmState, w int, rng *workload.RNG) *client {
	c := &client{st: st, w: w, rng: rng}
	c.hotTx = func(tx *stm.Tx) error {
		for _, v := range st.hot {
			v.Write(tx, v.Read(tx)+1)
		}
		for _, v := range st.priv[w] {
			v.Write(tx, v.Read(tx)+1)
		}
		return nil
	}
	c.lookupTx = func(tx *stm.Tx) error {
		k := c.a
		for i := 0; i < lookupReads; i++ {
			c.sum += st.keys[(k+i*c.b)&(sparseKeys-1)].Read(tx)
		}
		return nil
	}
	c.transferTx = func(tx *stm.Tx) error {
		from, to := st.keys[c.a], st.keys[c.b]
		from.Write(tx, from.Read(tx)-1)
		to.Write(tx, to.Read(tx)+1)
		return nil
	}
	return c
}

// call issues the workload's next transaction.
func (c *client) call(hot bool) {
	var err error
	switch {
	case hot:
		// Two atomic blocks with the same footprint, so the confidence
		// table has pairs to learn.
		err = c.st.sys.Atomic(c.w, int(c.rng.Uint64()&1), c.hotTx)
	case c.rng.Intn(10) == 0:
		c.a, c.b = c.rng.Intn(sparseKeys), c.rng.Intn(sparseKeys)
		err = c.st.sys.Atomic(c.w, 1, c.transferTx)
	default:
		// Eight keys at a random odd stride from a random start.
		c.a, c.b = c.rng.Intn(sparseKeys), c.rng.Intn(sparseKeys)|1
		err = c.st.sys.Atomic(c.w, 0, c.lookupTx)
	}
	if err != nil {
		c.errs++
	}
}

// sample is one timed Atomic call.
type sample struct{ start, end time.Time }

// run has each of the workers issue calls calls against st and returns the
// wall time from release to the last return. With sampled set every
// sampleEvery'th call is timed into a preallocated slice.
func (s *stmWorkload) run(st *stmState, workers, calls int, sampled bool) (time.Duration, []*client, [][]sample) {
	s.reps++
	base := workload.NewRNG(s.cfg.seed).Derive(s.reps)
	clients := make([]*client, workers)
	samples := make([][]sample, workers)
	for w := range clients {
		clients[w] = newClient(st, w, base.Derive(uint64(w)))
		if sampled {
			samples[w] = make([]sample, 0, calls/sampleEvery+1)
		}
	}
	var ready, done sync.WaitGroup
	release := make(chan struct{})
	for w := range clients {
		ready.Add(1)
		done.Add(1)
		go func(c *client, w int) {
			defer done.Done()
			ready.Done()
			<-release
			for i := 0; i < calls; i++ {
				if sampled && i%sampleEvery == 0 {
					t0 := time.Now()
					c.call(s.hot)
					samples[w] = append(samples[w], sample{t0, time.Now()})
					continue
				}
				c.call(s.hot)
			}
		}(clients[w], w)
	}
	ready.Wait()
	t0 := time.Now()
	close(release)
	done.Wait()
	return time.Since(t0), clients, samples
}

// snapshot reads the values the invariants are stated over.
func (st *stmState) snapshot() (hot []int, priv [][]int, sum int) {
	for _, v := range st.hot {
		hot = append(hot, v.Peek())
	}
	for _, vs := range st.priv {
		var row []int
		for _, v := range vs {
			row = append(row, v.Peek())
		}
		priv = append(priv, row)
	}
	for _, v := range st.keys {
		sum += v.Peek()
	}
	return hot, priv, sum
}

// measure runs one repetition against st and checks it: no Atomic call may
// fail; every shared TVar of stm_hot must have grown by the commits, every
// private one by its worker's calls; stm_sparse's transfers must sum to
// zero. A broken invariant fails every call of the repetition.
func (s *stmWorkload) measure(st *stmState, workers, calls int, sampled bool) (rep, [][]sample) {
	hot0, priv0, _ := st.snapshot()
	commits0 := st.sys.Commits()
	var clients []*client
	var samples [][]sample
	var wall time.Duration
	_, allocB, mallocs := timed(func() { wall, clients, samples = s.run(st, workers, calls, sampled) })

	out := rep{wall: wall, allocB: allocB, mallocs: mallocs,
		commits: st.sys.Commits() - commits0, attempted: int64(workers * calls)}
	for _, c := range clients {
		out.failed += c.errs
	}
	want := int64(workers * calls)
	if s.cfg.breakInvariant {
		want++
	}
	ok := out.commits == want
	hot1, priv1, sum := st.snapshot()
	for i := range hot1 {
		ok = ok && int64(hot1[i]-hot0[i]) == want
	}
	for w := range priv1 {
		for i := range priv1[w] {
			ok = ok && priv1[w][i]-priv0[w][i] == calls
		}
	}
	if !ok || sum != 0 {
		out.failed = out.attempted
	}
	return out, samples
}

// callsAt is the calls per client at frac of the full size.
func (s *stmWorkload) callsAt(frac float64) int { return max(64, int(float64(s.calls)*frac)) }

func (s *stmWorkload) rep(frac float64) rep {
	r, _ := s.measure(s.st, s.w, s.callsAt(frac), false)
	return r
}

// traced runs the workload once with spans and sampled latencies, once
// each under the Backoff and ATS managers, and then the STM-side layer
// drives.
func (s *stmWorkload) traced(tr *tracer, base []rep, out *results) rep {
	var traced rep
	var samples [][]sample
	var bfgts *stmState
	var others [2]rep
	root := tr.begin("rep", 0)
	for i, kind := range []stm.SchedulerKind{stm.SchedBFGTS, stm.SchedBackoff, stm.SchedATS} {
		st := s.newState(tr, kind, s.w)
		// Every manager gets the warm-up the timed system had.
		tr.do("warmup."+kind.String(), 0, func() { s.run(st, s.w, s.callsAt(warmFrac), false) })
		id := tr.begin("run."+kind.String(), 0)
		r, smp := s.measure(st, s.w, s.calls, kind == stm.SchedBFGTS)
		tr.end(id)
		if kind == stm.SchedBFGTS {
			traced, samples, bfgts = r, smp, st
			for w, ws := range smp {
				for _, sm := range ws[:min(len(ws), traceSpans)] {
					tr.add("stm.atomic", w+1, id, sm.start, sm.end)
				}
			}
		} else {
			others[i-1] = r
			traced.attempted += r.attempted
			traced.failed += r.failed
		}
	}
	tr.end(root)

	var lat []float64
	for _, ws := range samples {
		for _, sm := range ws {
			lat = append(lat, float64(sm.end.Sub(sm.start).Nanoseconds())/1e3)
		}
	}
	sort.Float64s(lat)
	pct := func(p float64) float64 { return lat[min(len(lat)-1, int(p*float64(len(lat))))] }
	out.set("stm.tx_p50_us", pct(0.50))
	out.set("stm.tx_p99_us", pct(0.99))
	out.set("stm.tx_p999_us", pct(0.999))

	baseTx := medianOf(base, rep.txPerS)
	out.set("stm.tx_per_s.backoff", others[0].txPerS())
	out.set("stm.tx_per_s.ats", others[1].txPerS())
	out.set("stm.bfgts_vs_backoff", baseTx/others[0].txPerS())

	// The System's own counters cover its warm-up and its traced run.
	reg := metrics.New()
	bfgts.sys.SnapshotMetrics(reg)
	snap := reg.Snapshot()
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	attempts := c("stm.commits") + c("stm.aborts")
	out.set("stm.abort_ratio", c("stm.aborts")/attempts)
	out.set("stm.predicted_share", c("stm.predicted_conflicts")/c("stm.begins"))
	out.set("stm.yields", c("stm.yields"))
	out.set("stm.stalls", c("stm.stalls"))
	out.set("stm.begin_escapes", c("stm.begin_escapes"))
	validations := c("stm.validation_hits") + c("stm.validation_misses")
	out.set("stm.validation_precision", ratio(c("stm.validation_hits"), validations))
	warm := float64(s.callsAt(warmFrac))
	workerNs := float64(s.w) * float64(traced.wall.Nanoseconds()) * (1 + warm/float64(s.calls))
	out.set("stm.backoff_wait_share", c("stm.backoff_nanos")/workerNs)
	out.set("stm.probe_nodes_mean", snap.Histograms["stm.predict.probe_nodes"].Mean)
	out.set("stm.probe_len_mean", snap.Histograms["stm.predict.probe_len"].Mean)

	s.drives(out, attempts, c("stm.commits"), workerNs)
	return traced
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// drives measures the STM-side layers: the atomic signature and directory
// at the System's sizes (1024-bit filters, W slots), and single-worker
// transactions under Backoff — the TL2 core with nobody to conflict with —
// and under BFGTS, whose difference is what the manager's hooks add.
func (s *stmWorkload) drives(out *results, attempts, commits, workerNs float64) {
	batch := driveBatch(s.cfg)

	f := bloom.NewAtomicFilter(1024, bloom.DefaultHashes)
	key := uint64(0)
	addNs := drive(batch, func(n int) {
		for ; n > 0; n-- {
			if n%16 == 0 {
				f.Reset()
			}
			key++
			f.Add(key)
		}
	})
	resetNs := drive(batch, func(n int) {
		for ; n > 0; n-- {
			f.Reset()
		}
	})
	out.set("bloom.atomic_ns_per_add", addNs)
	out.set("bloom.atomic_ns_per_reset", resetNs)
	// An upper bound: as if every commit rebuilt both of its signatures.
	lines, writes := float64(hotShared+hotPrivate), float64(hotShared+hotPrivate)
	if !s.hot {
		lines, writes = 0.9*lookupReads+0.1*2, 0.1*2
	}
	out.set("bloom.atomic_est_share", commits*((lines+writes)*addNs+2*resetNs)/workerNs)

	tree := bloofi.NewAtomicTree(bloofi.Config{Capacity: s.w})
	for slot := 0; slot < s.w; slot++ {
		tree.Set(slot, uint64(slot&1))
	}
	i := 0
	setClearNs := drive(batch, func(n int) {
		for ; n > 0; n-- {
			slot := i % s.w
			tree.Clear(slot)
			tree.Insert(slot, uint64(i&1))
			i++
		}
	})
	out.set("bloofi.atomic_ns_per_set_clear", setClearNs)
	// Every attempt publishes its running slot once and clears it once.
	out.set("bloofi.atomic_est_share", attempts*setClearNs/workerNs)
	probe := bloofi.NewAtomicProbe(tree)
	keys := []uint64{0, 1}
	out.set("bloofi.atomic_ns_per_probe", drive(batch, func(n int) {
		for ; n > 0; n-- {
			probe.Reset(keys)
			for {
				if _, ok := probe.Next(); !ok {
					break
				}
			}
		}
	}))

	solo := func(kind stm.SchedulerKind) *client {
		return newClient(s.newState(nil, kind, 1), 0, workload.NewRNG(s.cfg.seed))
	}
	c := solo(stm.SchedBackoff)
	roTx, rwTx := c.lookupTx, c.transferTx
	if s.hot {
		// stm_hot has no read-only transaction; read its eight TVars.
		roTx = func(tx *stm.Tx) error {
			for _, v := range c.st.hot {
				c.sum += v.Read(tx)
			}
			for _, v := range c.st.priv[0] {
				c.sum += v.Read(tx)
			}
			return nil
		}
		rwTx = c.hotTx
	}
	atomicNs := func(c *client, stx int, fn func(*stm.Tx) error) float64 {
		return drive(batch, func(n int) {
			for ; n > 0; n-- {
				c.a, c.b = c.rng.Intn(sparseKeys), c.rng.Intn(sparseKeys)|1
				if c.st.sys.Atomic(0, stx, fn) != nil {
					c.errs++
				}
			}
		})
	}
	out.set("stm.ns_per_ro_tx", atomicNs(c, 0, roTx))
	out.set("stm.ns_per_rw_tx", atomicNs(c, 1, rwTx))
	mix := func(c *client) float64 {
		return drive(batch, func(n int) {
			for ; n > 0; n-- {
				c.call(s.hot)
			}
		})
	}
	out.set("stm.bfgts_overhead_ns_per_tx", mix(solo(stm.SchedBFGTS))-mix(c))
}
