package main

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/bloofi"
	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/hwaccel"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/tm"
	"repro/internal/workload"
)

// A layer drive calls one layer's exported API in a loop, at the
// parameters of the workload being reported, and gives nanoseconds per
// call. None of it feeds an end-to-end metric.

// drive grows n until fn(n) — n calls of the layer under test — takes at
// least batch, then times five such batches and returns the median
// nanoseconds per call.
func drive(batch time.Duration, fn func(n int)) float64 {
	n := 64
	for {
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		if d >= batch || n >= 1<<28 {
			break
		}
		if d < batch/16 {
			n *= 8
		} else {
			n *= 2
		}
	}
	per := make([]float64, 5)
	for i := range per {
		t0 := time.Now()
		fn(n)
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// driveBatch is one timed batch: 40 ms when measuring, long enough to swamp
// timer cost, and shorter with the toy sizes the tests run.
func driveBatch(cfg config) time.Duration {
	return max(time.Millisecond, time.Duration(cfg.size*float64(40*time.Millisecond)))
}

// txStream yields a workload's transactions without end: it drains every
// thread's Program in turn, applies OnCommit as the simulator would at
// commit, and builds a fresh workload instance when all are done.
type txStream struct {
	factories []workload.Factory
	scale     float64
	threads   int
	seed      uint64

	next    int // factory to instantiate next
	progs   []workload.Program
	turn    int
	nStatic int
}

func (s *txStream) refill() {
	f := s.factories[s.next%len(s.factories)]
	s.next++
	w := f.New(scaledTxs(f, s.scale))
	s.nStatic = w.NumStatic()
	s.progs = s.progs[:0]
	base := workload.NewRNG(s.seed) // per-thread seeds as sim.NewRunner derives them
	for tid := 0; tid < s.threads; tid++ {
		s.progs = append(s.progs, w.NewProgram(tid, s.threads, base.Derive(uint64(tid)).Uint64()))
	}
}

// tx returns the next transaction and the thread issuing it.
func (s *txStream) tx() (tid int, desc *workload.TxDesc) {
	for {
		if len(s.progs) == 0 {
			s.refill()
		}
		s.turn = (s.turn + 1) % len(s.progs)
		if _, d, ok := s.progs[s.turn].Next(); ok {
			if d.OnCommit != nil {
				d.OnCommit()
			}
			return s.turn, d
		}
		s.progs = append(s.progs[:s.turn], s.progs[s.turn+1:]...)
	}
}

// txRec is a recorded transaction: what the tm, sched and core drives
// replay, so generation cost stays out of their loops.
type txRec struct {
	tid, stx      int
	acc           []workload.Access
	lines, writes []uint64 // distinct lines and the written subset, as commit hooks get them
}

func record(s *txStream, n int) []txRec {
	recs := make([]txRec, n)
	for i := range recs {
		tid, d := s.tx()
		r := txRec{tid: tid, stx: d.STx, acc: append([]workload.Access(nil), d.Accesses...)}
		seen := map[uint64]bool{}
		written := map[uint64]bool{}
		for _, a := range d.Accesses {
			if !seen[a.Addr] {
				seen[a.Addr] = true
				r.lines = append(r.lines, a.Addr)
			}
			if a.Write && !written[a.Addr] {
				written[a.Addr] = true
				r.writes = append(r.writes, a.Addr)
			}
		}
		recs[i] = r
	}
	return recs
}

// simDrives measures the simulator-side layers at the workload's geometry:
// its cores and threads, 2048-bit signatures, and its own transaction
// streams (sim_fig4a's manager and tm drives replay intruder; its
// generator drive drains all seven kernels).
func simDrives(s *simWorkload, out *results, commits int64, wall time.Duration) {
	batch := driveBatch(s.cfg)
	cores, threads := s.hcfg.Cores, s.hcfg.Cores*s.hcfg.ThreadsPerCore
	var all, one []workload.Factory
	for _, c := range s.cells {
		if len(all) == 0 || all[len(all)-1].Name() != c.f.Name() {
			all = append(all, c.f)
		}
	}
	one = all
	if s.cfg.workload == wlFig4a {
		f, _ := stamp.ByName("intruder")
		one = []workload.Factory{f}
	}

	gen := &txStream{factories: all, scale: s.hcfg.Scale, threads: threads, seed: s.hcfg.Seed}
	genNs := drive(batch, func(n int) {
		for i := 0; i < n; i++ {
			gen.tx()
		}
	})
	out.set("workload.gen_ns_per_tx", genNs)
	// Every committed transaction is generated exactly once.
	out.set("workload.gen_est_share", float64(commits)*genNs/float64(wall.Nanoseconds()))

	out.set("sim.engine.ns_per_event", driveEngine(batch, s.engine))

	stream := &txStream{factories: one, scale: s.hcfg.Scale, threads: threads, seed: s.hcfg.Seed}
	recs := record(stream, 4096)
	nStatic := stream.nStatic
	accPerTx := 0.0
	for _, r := range recs {
		accPerTx += float64(len(r.acc)) / float64(len(recs))
	}
	// Replaying with 0, 1 and 2 passes over each transaction's accesses
	// separates the first touch of a line (with its share of the release
	// at commit) from a re-access of a line the transaction already holds.
	l0 := driveTM(batch, recs, nStatic, cores, 0)
	l1 := driveTM(batch, recs, nStatic, cores, 1)
	l2 := driveTM(batch, recs, nStatic, cores, 2)
	out.set("tm.ns_per_tx_lifecycle", l1)
	out.set("tm.ns_per_access_first", (l1-l0)/accPerTx)
	out.set("tm.ns_per_access_re", (l2-l1)/accPerTx)

	env := func() sched.Env {
		return sched.Env{
			NumCPUs: cores, NumThreads: threads, NumStatic: nStatic,
			CPUOf: func(tid int) int { return tid % cores },
			Wake:  func(int) {},
			Rand:  rand.New(rand.NewSource(int64(s.hcfg.Seed))),
		}
	}
	for _, m := range []struct {
		name string
		mgr  sched.Manager
	}{
		{"pts", sched.NewPTS(env())},
		{"bfgts_sw", sched.NewBFGTS(env(), sched.BFGTSSW, core.DefaultConfig(threads, nStatic))},
		{"bfgts_hw", sched.NewBFGTS(env(), sched.BFGTSHW, core.DefaultConfig(threads, nStatic))},
	} {
		begin, commit := driveManager(batch, m.mgr, recs, cores, nStatic)
		out.set("sched.ns_per_begin."+m.name, begin)
		out.set("sched.ns_per_commit."+m.name, commit)
	}

	ccfg := core.DefaultConfig(threads, nStatic)
	rt := core.NewRuntime(ccfg, core.DefaultCosts())
	table := make([]int, cores)
	for cpu := range table {
		table[cpu] = ccfg.DTx(cpu, recs[cpu%len(recs)].stx)
	}
	i := 0
	out.set("core.ns_per_commit_tx", drive(batch, func(n int) {
		for ; n > 0; n-- {
			r := &recs[i%len(recs)]
			rt.CommitTx(ccfg.DTx(r.tid, r.stx), r.lines, r.writes, len(r.lines))
			i++
		}
	}))
	out.set("core.ns_per_predict_sw", drive(batch, func(n int) {
		for ; n > 0; n-- {
			r := &recs[i%len(recs)]
			rt.PredictSW(r.stx, table, r.tid%cores)
			i++
		}
	}))

	bank := hwaccel.NewBank(rt, cores, hwaccel.DefaultCacheConfig())
	for cpu, dtx := range table {
		bank.BroadcastBegin(cpu, dtx)
	}
	out.set("hwaccel.ns_per_predict", drive(batch, func(n int) {
		for ; n > 0; n-- {
			r := &recs[i%len(recs)]
			bank.Unit(r.tid % cores).Predict(r.stx)
			i++
		}
	}))
	out.set("hwaccel.ns_per_broadcast", drive(batch, func(n int) {
		for ; n > 0; n -= 2 {
			cpu := i % cores
			bank.BroadcastEnd(cpu)
			bank.BroadcastBegin(cpu, table[cpu])
			i++
		}
	}))

	// Signatures as commitTx builds them: reset, then one Add per line.
	fa, fb := bloom.NewFilter(2048, bloom.DefaultHashes), bloom.NewFilter(2048, bloom.DefaultHashes)
	out.set("bloom.ns_per_add", drive(batch, func(n int) {
		for n > 0 {
			r := &recs[i%len(recs)]
			fa.Reset()
			for _, a := range r.lines {
				fa.Add(a)
			}
			n -= max(1, len(r.lines))
			i++
		}
	}))
	for _, a := range recs[0].lines {
		fa.Add(a)
	}
	for _, a := range recs[1].lines {
		fb.Add(a)
	}
	sink := 0.0
	out.set("bloom.ns_per_eq3", drive(batch, func(n int) {
		for ; n > 0; n-- {
			sink += fa.EstimateIntersection(fb)
		}
	}))
	out.set("bloom.ns_per_similarity", drive(batch, func(n int) {
		for ; n > 0; n-- {
			sink += fa.Similarity(fb, float64(len(recs[0].lines)))
		}
	}))
	driveSink = sink

	// The directory as PTS keeps it: every CPU slot occupied, keyed by
	// the dynamic transaction running there; a probe asks for three
	// suspects, two of them present.
	tree := bloofi.New(bloofi.Config{Capacity: cores})
	for cpu, dtx := range table {
		tree.Set(cpu, uint64(dtx))
	}
	out.set("bloofi.tree_ns_per_set_clear", drive(batch, func(n int) {
		for ; n > 0; n-- {
			cpu := i % cores
			tree.Remove(cpu)
			tree.Insert(cpu, uint64(table[cpu]))
			i++
		}
	}))
	probe := bloofi.NewProbe(tree)
	keys := []uint64{uint64(table[0]), uint64(table[cores/2]), uint64(ccfg.DTx(threads, 0))}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	var probes, nodes int
	out.set("bloofi.tree_ns_per_probe", drive(batch, func(n int) {
		for ; n > 0; n-- {
			probe.Reset(keys)
			for {
				if _, ok := probe.Next(); !ok {
					break
				}
			}
			probes++
			nodes += probe.Nodes()
		}
	}))
	out.set("bloofi.tree_probe_nodes", float64(nodes)/float64(probes))
}

// driveSink keeps the estimator drives' results alive.
var driveSink float64

// driveEngine measures one pop plus one push through a heap holding depth
// pending events: depth registered handlers that each reschedule
// themselves, as the runner's per-thread continuations do.
func driveEngine(batch time.Duration, depth int) float64 {
	e := sim.NewEngine()
	x := uint64(1)
	for i := 0; i < depth; i++ {
		var h sim.Handle
		h = e.Register(func() {
			x = x*6364136223846793005 + 1442695040888963407
			e.AfterHandle(int64(x>>58)+1, h)
		})
		e.AfterHandle(int64(i%17)+1, h)
	}
	return drive(batch, func(n int) {
		for ; n > 0; n-- {
			e.Step()
		}
	})
}

// driveTM replays recorded transactions through tm.System with `open`
// transactions in flight: begin, `passes` passes over the accesses, and a
// commit when the slot comes round again. A NACKed or doomed transaction
// aborts instead, as the runner would make it. It returns ns per
// transaction.
func driveTM(batch time.Duration, recs []txRec, nStatic, open, passes int) float64 {
	sys := tm.NewSystem(nStatic)
	ring := make([]*tm.Tx, open)
	i := 0
	finish := func(tx *tm.Tx) {
		if tx.Doomed {
			sys.Abort(tx)
		} else {
			sys.Commit(tx)
		}
	}
	return drive(batch, func(n int) {
		for ; n > 0; n-- {
			slot := i % open
			if ring[slot] != nil {
				finish(ring[slot])
				ring[slot] = nil
			}
			r := &recs[i%len(recs)]
			i++
			tx := sys.Begin(r.tid, r.stx, slot)
			ok := true
			for p := 0; p < passes && ok; p++ {
				for _, a := range r.acc {
					if !sys.Access(tx, a.Addr, a.Write).OK {
						ok = false
						break
					}
				}
			}
			if !ok {
				sys.Abort(tx)
				continue
			}
			ring[slot] = tx
		}
	})
}

// driveManager measures a manager's begin and commit hooks with every CPU
// slot occupied and some learned confidence between the static
// transactions, so predictions have suspects to look for.
func driveManager(batch time.Duration, m sched.Manager, recs []txRec, cores, nStatic int) (begin, commit float64) {
	for i := 0; i < 40; i++ {
		a, b := &recs[i%len(recs)], &recs[(i+1)%len(recs)]
		if a.tid != b.tid {
			m.OnAbort(a.tid, a.stx, b.tid, b.stx, 1)
		}
	}
	for cpu := 0; cpu < cores; cpu++ {
		m.OnCPUSlot(cpu, cpu*nStatic+recs[cpu%len(recs)].stx)
	}
	i := 0
	begin = drive(batch, func(n int) {
		for ; n > 0; n-- {
			r := &recs[i%len(recs)]
			m.OnBegin(r.tid, r.stx)
			i++
		}
	})
	commit = drive(batch, func(n int) {
		for ; n > 0; n-- {
			r := &recs[i%len(recs)]
			m.OnCommit(r.tid, r.stx, r.lines, r.writes, len(r.lines))
			i++
		}
	})
	return begin, commit
}
