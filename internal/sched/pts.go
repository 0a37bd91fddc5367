package sched

import (
	"sort"

	"repro/internal/bloofi"
	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/metrics"
)

// PTS is Proactive Transaction Scheduling (Blake et al., MICRO 2009), the
// paper's closest prior work. Like BFGTS it learns a conflict graph and
// serializes transactions predicted to conflict with a running one, but:
//
//   - the graph is keyed by *dynamic* transaction ID pairs, so the
//     structure is enormous (the paper reports tens of megabytes) and the
//     begin-time scan walks cold software structures on every begin;
//   - confidence updates use fixed increments/decrements, unweighted by
//     any notion of how stable a transaction's footprint is; and
//   - commit-time validation uses the raw bitwise Bloom intersection
//     ("rudimentary Bloom filter use"), whose false positives at realistic
//     fill ratios strengthen confidences that should decay.
//
// These are precisely the three deficiencies BFGTS fixes.
type PTS struct {
	env Env

	Threshold float64
	Inc, Dec  float64

	// conf is the conflict graph: confidence per ordered dTxID pair.
	conf map[[2]int]float64
	// sigs holds, per dTxID, its most recent committed read/write-set
	// filter (nil before its first commit). spare is the empty filter the
	// next commit builds into, traded for the one it displaces, so a
	// filter is carved from slab only for a dTxID's first commit: at most
	// len(sigs)+1 exist at once, the room init reserves.
	sigs  []*bloom.Filter
	spare *bloom.Filter
	slab  bloom.Slab
	// waitingOn records, per dTxID, the dTxID it last serialized behind,
	// or core.NoTx.
	waitingOn []int
	// suspects holds, per dTxID, the ascending dTxIDs whose edge from it
	// currently clears Threshold — maintained at every addConf threshold
	// crossing, so the directory probe's suspect set is exactly the set
	// the linear scan would have matched. Threshold is fixed after
	// construction, which is what keeps the lists coherent.
	suspects [][]uint64

	cpuTable []int
	// dir/probe index occupied CPU slots under the dynamic transaction ID
	// running there (unused under Env.LinearScan). Unlike BFGTS there is
	// no static-ID folding: PTS's conflict graph is keyed by dTxID pairs,
	// so the dTxID itself is the identity key.
	dir   *bloofi.Tree
	probe *bloofi.Probe

	// scanEntryCost is the per-CPU-table-entry cost of the begin scan.
	// PTS's per-dTxID tables are far too large for any cache to hold, so
	// each probe is priced as a near-memory access, which is what makes
	// "overhead of executing a scan of software structures on every
	// transaction begin" one of the paper's three PTS complaints.
	scanEntryCost int64

	bloomBits int

	// Decision-point instruments (nil = disabled, free).
	metScanLen    *metrics.Histogram // CPU-table entries probed per begin scan
	metSerial     *metrics.Counter   // begins that serialized behind a prediction
	metEdges      *metrics.Gauge     // materialized conflict-graph edges
	metAborts     *metrics.Counter
	metProbeNodes *metrics.Histogram // tree nodes visited per begin probe
	metProbeCands *metrics.Histogram // candidate slots surfaced per probe
	metProbeRun   *metrics.Histogram // running-set size at probe time
}

// NewPTS returns the manager with the standard configuration from the PTS
// paper as used in this paper's comparison. A PTS retired in env.Retired
// is taken and re-initialised in place.
func NewPTS(env Env) *PTS {
	var p *PTS
	if r := env.Retired; r != nil {
		p, r.pts = r.pts, nil
	}
	if p == nil {
		p = new(PTS)
	}
	p.init(env)
	return p
}

// init makes p the manager NewPTS describes, whether p is new or retired:
// the conflict graph, the per-dTxID tables, the filter slab, the CPU table
// and the directory it already holds are emptied in place, and everything
// else starts over.
func (p *PTS) init(env Env) {
	n := env.NumThreads * env.NumStatic
	conf := p.conf
	if conf == nil {
		conf = make(map[[2]int]float64)
	}
	clear(conf)
	suspects := p.suspects
	if cap(suspects) < n {
		suspects = append(suspects[:cap(suspects)], make([][]uint64, n-cap(suspects))...)
	}
	suspects = suspects[:n]
	for i := range suspects {
		suspects[i] = suspects[i][:0]
	}
	*p = PTS{
		env:           env,
		Threshold:     0.30,
		Inc:           0.35,
		Dec:           0.05,
		conf:          conf,
		sigs:          resize(p.sigs, n),
		slab:          p.slab,
		waitingOn:     idleTable(p.waitingOn, n),
		suspects:      suspects,
		cpuTable:      idleTable(p.cpuTable, env.NumCPUs),
		dir:           p.dir,
		probe:         p.probe,
		scanEntryCost: 45,
		bloomBits:     2048,
	}
	p.slab.Reset(n+1, p.bloomBits)
	if !env.LinearScan {
		p.dir, p.probe = resetDir(p.dir, p.probe, env.NumCPUs)
	}
	if reg := env.Metrics; reg != nil {
		p.metScanLen = reg.Histogram("sched.pts.scan_len")
		p.metSerial = reg.Counter("sched.pts.serializations")
		p.metEdges = reg.Gauge("sched.pts.graph_edges")
		p.metAborts = reg.Counter("sched.aborts")
		if !env.LinearScan {
			p.metProbeNodes = reg.Histogram("sched.pts.probe.nodes")
			p.metProbeCands = reg.Histogram("sched.pts.probe.candidates")
			p.metProbeRun = reg.Histogram("sched.pts.probe.running")
		}
	}
}

// resize returns s with length n and every element zero, reusing its
// storage when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// idleTable returns t with length n and every entry core.NoTx, reusing
// its storage when it is large enough.
func idleTable(t []int, n int) []int {
	t = resize(t, n)
	for i := range t {
		t[i] = core.NoTx
	}
	return t
}

// resetDir returns an empty Bloofi directory over n slots with its probe:
// dir emptied in place when its capacity is n, a new one otherwise.
func resetDir(dir *bloofi.Tree, probe *bloofi.Probe, n int) (*bloofi.Tree, *bloofi.Probe) {
	if dir == nil || dir.Capacity() != n {
		dir = bloofi.New(bloofi.Config{Capacity: n})
		return dir, bloofi.NewProbe(dir)
	}
	dir.Reset()
	return dir, probe
}

// Name implements Manager.
func (p *PTS) Name() string { return "PTS" }

func (p *PTS) dtx(tid, stx int) int { return tid*p.env.NumStatic + stx }

// Confidence exposes the learned edge weight between two dynamic
// transactions (for tests and diagnostics).
func (p *PTS) Confidence(d1, d2 int) float64 { return p.conf[[2]int{d1, d2}] }

// GraphEdges returns the number of materialized conflict-graph edges, the
// driver of PTS's memory-footprint problem.
func (p *PTS) GraphEdges() int { return len(p.conf) }

func (p *PTS) addConf(d1, d2 int, delta float64) {
	k := [2]int{d1, d2}
	old := p.conf[k]
	v := old + delta
	if v < 0 {
		v = 0
	} else if v > 1 {
		v = 1
	}
	if v == 0 {
		delete(p.conf, k)
	} else {
		p.conf[k] = v
	}
	p.updateSuspects(d1, d2, old > p.Threshold, v > p.Threshold)
}

// updateSuspects keeps suspects[d1] in sync with the conflict graph when
// the (d1, d2) edge crosses Threshold in either direction. The list stays
// sorted (the directory probe binary-searches it), and edges that merely
// move within one side of the threshold cost nothing.
func (p *PTS) updateSuspects(d1, d2 int, was, now bool) {
	if was == now {
		return
	}
	s := p.suspects[d1]
	key := uint64(d2)
	i := sort.Search(len(s), func(j int) bool { return s[j] >= key })
	if now {
		s = append(s, 0)
		copy(s[i+1:], s[i:])
		s[i] = key
	} else {
		copy(s[i:], s[i+1:])
		s = s[:len(s)-1]
	}
	p.suspects[d1] = s
}

// OnBegin implements Manager: scan the CPU table in software against the
// per-dTxID conflict graph — through the Bloofi directory when enabled,
// byte-identically to the linear walk (including the scan-length metric,
// reconstructed from the directory's subtree counters).
func (p *PTS) OnBegin(tid, stx int) BeginResult {
	self := p.dtx(tid, stx)
	selfCPU := p.env.CPUOf(tid)
	res := BeginResult{Action: Proceed, WaitDTx: core.NoTx}
	res.Overhead = 120 + int64(p.env.NumCPUs)*p.scanEntryCost
	if !p.env.LinearScan {
		p.beginProbe(self, selfCPU, &res)
		return res
	}
	scanned := 0
	for cpu, dtx := range p.cpuTable {
		if cpu == selfCPU || dtx == core.NoTx {
			continue
		}
		scanned++
		if c := p.conf[[2]int{self, dtx}]; c > p.Threshold {
			p.waitingOn[self] = dtx
			res.Action = YieldRetry
			res.WaitDTx = dtx
			res.Confidence = c
			p.metSerial.Inc()
			break
		}
	}
	p.metScanLen.Observe(int64(scanned))
	return res
}

// beginProbe is the directory-backed begin scan. The suspect list for
// self holds exactly the dTxIDs whose edge clears Threshold, so the first
// candidate the probe surfaces (in ascending slot order, skipping the
// beginning thread's own CPU) is the same hit the linear walk would have
// taken. The linear walk's scanned-entry count is recovered from the
// subtree occupancy counters: every occupied non-self slot before the hit
// was "scanned", plus the hit itself; with no hit, every occupied
// non-self slot was.
func (p *PTS) beginProbe(self, selfCPU int, res *BeginResult) {
	selfOcc := p.dir.Occupied(selfCPU)
	p.probe.Reset(p.suspects[self])
	var scanned int64
	hit := false
	for {
		cpu, ok := p.probe.Next()
		if !ok {
			break
		}
		if cpu == selfCPU {
			continue
		}
		dtx := p.cpuTable[cpu]
		if dtx == core.NoTx {
			continue
		}
		if c := p.conf[[2]int{self, dtx}]; c > p.Threshold {
			p.waitingOn[self] = dtx
			res.Action = YieldRetry
			res.WaitDTx = dtx
			res.Confidence = c
			p.metSerial.Inc()
			scanned = int64(p.dir.OccupiedBefore(cpu)) + 1
			if selfOcc && selfCPU < cpu {
				scanned--
			}
			hit = true
			break
		}
	}
	if !hit {
		scanned = int64(p.dir.Len())
		if selfOcc {
			scanned--
		}
	}
	p.metScanLen.Observe(scanned)
	p.metProbeNodes.Observe(int64(p.probe.Nodes()))
	p.metProbeCands.Observe(int64(p.probe.Candidates()))
	p.metProbeRun.Observe(int64(p.dir.Len()))
}

// OnCPUSlot implements Manager.
func (p *PTS) OnCPUSlot(cpu, dtx int) {
	p.cpuTable[cpu] = dtx
	if p.env.LinearScan {
		return
	}
	if dtx == core.NoTx {
		if p.dir.Occupied(cpu) {
			p.dir.Remove(cpu)
		}
		return
	}
	p.dir.Set(cpu, uint64(dtx))
}

// OnAbort implements Manager: strengthen the edge between the two dynamic
// transactions by the fixed increment.
func (p *PTS) OnAbort(tid, stx, enemyTid, enemyStx, attempts int) AbortResult {
	self, enemy := p.dtx(tid, stx), p.dtx(enemyTid, enemyStx)
	p.metAborts.Inc()
	p.addConf(self, enemy, p.Inc)
	p.addConf(enemy, self, p.Inc)
	p.metEdges.Set(float64(len(p.conf)))
	shift := attempts
	if shift > 8 {
		shift = 8
	}
	return AbortResult{
		Backoff:  p.env.Rand.Int63n(200<<shift) + 1,
		Overhead: 150, // two read-modify-writes in the cold graph structure
	}
}

// OnCommit implements Manager: save the new filter and validate any
// recorded serialization with a raw bitwise intersection.
func (p *PTS) OnCommit(tid, stx int, lines, writes []uint64, size int) int64 {
	self := p.dtx(tid, stx)
	sig := p.spare
	if sig == nil {
		sig = p.slab.Filter(p.bloomBits, bloom.DefaultHashes)
	} else {
		sig.Reset()
	}
	for _, a := range lines {
		sig.Add(a)
	}
	cost := int64(100) + int64(size)*2 // build filter, bookkeeping

	if waited := p.waitingOn[self]; waited != core.NoTx {
		p.waitingOn[self] = core.NoTx
		if prev := p.sigs[waited]; prev != nil {
			cost += int64(sig.Words()) * 2 // word-wise AND walk
			if sig.IntersectsNonNull(prev) {
				p.addConf(self, waited, p.Inc)
			} else {
				p.addConf(self, waited, -p.Dec)
			}
			p.metEdges.Set(float64(len(p.conf)))
			cost += 50
		}
	}
	// The displaced filter was only consulted above (as the waited-on
	// side of validation, never self), so the next commit may build into
	// it.
	p.spare, p.sigs[self] = p.sigs[self], sig
	return cost
}
