package stm

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/bloofi"
	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/stats"
)

// bfgtsManager is the paper's Bloom-filter-guided scheduler as a
// production contention manager: begin-time prediction against a conflict
// confidence table, suspend decisions sized by transaction history, and
// commit-time signature comparison feeding the confidence loop — all on
// live goroutines with no global lock anywhere on the hot path.
//
// The sharing discipline, per dtx slot:
//
//   - confidence lives in a core.SharedConf (atomic fixed-point cells), so
//     the begin-time scan is one atomic load per running transaction;
//   - avgSize and sim are float bits in atomic words: written only by the
//     slot's owner at commit, read by anyone deciding against it;
//   - commits/sinceSim/hasHistory/waitingOn are plain fields touched only
//     on the owning worker's goroutine (begin/abort/commit all run there);
//   - signatures are double-buffered bloom.AtomicFilter pairs behind a
//     published index: the owner rebuilds the spare pair at commit, then
//     flips. A concurrent validator probing the published pair may race a
//     later rebuild into torn words — race-free by construction and
//     acceptable, because every consumer is a scheduling heuristic.
type bfgtsManager struct {
	sys  *System
	conf *core.SharedConf

	stats []bfgtsStat
	sigs  []sigSlot

	// dir is the Bloofi directory over the running array (nil under
	// Config.LinearPredict): each occupied worker slot is indexed under
	// the folded static ID of the transaction running there, maintained
	// through the System's runningObserver hook so it can never go stale.
	// probes holds one cursor + scratch per worker (owner-only).
	dir    *bloofi.AtomicTree
	probes []bfgtsWorkerProbe

	confThreshold float64
	incVal        float64
	decayVal      float64
	smallTxLines  float64
	simInterval   int
}

// bfgtsWorkerProbe is one worker's begin-time probe state: a lock-free
// directory cursor, the reusable suspect-key buffer (capacity = the
// confidence table's axis), and plain owner-only histograms folded into
// a Registry by SnapshotMetrics.
type bfgtsWorkerProbe struct {
	probe *bloofi.AtomicProbe
	sus   []uint64

	lenHist  stats.Histogram // candidates visited per begin prediction
	nodeHist stats.Histogram // directory nodes visited per prediction
	runHist  stats.Histogram // running-set size at prediction time
}

// bfgtsStat is one dynamic transaction's history shard.
type bfgtsStat struct {
	avgSizeBits atomic.Uint64 // float64 bits; owner-written, shared-read
	simBits     atomic.Uint64 // float64 bits; owner-written, shared-read

	// Owner-only (accessed solely from the owning worker's goroutine).
	commits    int64
	sinceSim   int
	waitingOn  int // dtx this execution serialized behind, or core.NoTx
	decTok     int // pending serialize decision token, or -1 (settled by validate)
	hasHistory bool

	_ [15]byte // round toward a cache line against false sharing
}

//bfgts:allocfree
func (st *bfgtsStat) avgSize() float64 { return math.Float64frombits(st.avgSizeBits.Load()) }

//bfgts:allocfree
func (st *bfgtsStat) sim() float64 { return math.Float64frombits(st.simBits.Load()) }

// sigSlot double-buffers a dtx's read/write-set signatures. pair[cur.Load()]
// is the published (last committed) signature; the other pair is the
// owner's rebuild scratch.
type sigSlot struct {
	cur  atomic.Uint32
	pair [2]sigPair
}

type sigPair struct {
	rw *bloom.AtomicFilter // full read/write set
	w  *bloom.AtomicFilter // written subset
}

const (
	// initialSim seeds the similarity EWMA at the paper's neutral prior.
	initialSim = 0.5
	// minDecayFrac floors the confidence decay at this fraction of
	// DecayVal. The simulator's decay DecayVal·(1−sim) vanishes as sim→1,
	// which in a live system can freeze a saturated confidence cell and
	// starve a predictor loop; production hardening keeps a trickle.
	minDecayFrac = 0.05
	// stallSpinBudget bounds how many scheduler yields a spin-stall burns
	// waiting for its enemy to leave the CPU table before re-predicting.
	stallSpinBudget = 4096
	// beginEscapeLimit bounds predicted-conflict iterations in one OnBegin:
	// past it the transaction proceeds optimistically (the TM layer's
	// versioned locks keep it safe) rather than risk livelock when the
	// table says "conflict" forever. Escapes are counted in the metrics.
	beginEscapeLimit = 32
	// yieldSleep is the suspend duration when the enemy is a big
	// transaction (avgSize ≥ SmallTxLines): long enough to deschedule.
	yieldSleep = 5 * time.Microsecond
)

func newBFGTSManager(s *System) *bfgtsManager {
	cc := core.DefaultConfig(s.cfg.Workers, s.cfg.StaticTxs)
	n := s.cfg.Workers * s.cfg.StaticTxs
	m := &bfgtsManager{
		sys:           s,
		conf:          core.NewSharedConf(s.cfg.StaticTxs, cc.AliasBuckets),
		stats:         make([]bfgtsStat, n),
		sigs:          make([]sigSlot, n),
		confThreshold: cc.ConfThreshold,
		incVal:        cc.IncVal,
		decayVal:      cc.DecayVal,
		smallTxLines:  cc.SmallTxLines,
		simInterval:   cc.SimInterval,
	}
	for i := range m.stats {
		m.stats[i].simBits.Store(math.Float64bits(initialSim))
		m.stats[i].waitingOn = core.NoTx
		m.stats[i].decTok = -1
	}
	for i := range m.sigs {
		for p := 0; p < 2; p++ {
			m.sigs[i].pair[p].rw = bloom.NewAtomicFilter(s.cfg.BloomBits, cc.BloomHashes)
			m.sigs[i].pair[p].w = bloom.NewAtomicFilter(s.cfg.BloomBits, cc.BloomHashes)
		}
	}
	m.probes = make([]bfgtsWorkerProbe, s.cfg.Workers)
	if !s.cfg.LinearPredict {
		m.dir = bloofi.NewAtomicTree(bloofi.Config{Capacity: s.cfg.Workers})
		for i := range m.probes {
			m.probes[i].probe = bloofi.NewAtomicProbe(m.dir)
			m.probes[i].sus = make([]uint64, 0, m.conf.Dim())
		}
	}
	return m
}

// onRunning implements runningObserver: mirror the worker's running-slot
// transition into the directory. Only the slot's owner calls this (the
// running array has a single mutator per slot), so the leaf mutation
// needs no synchronization beyond the tree's own; clears are idempotent
// because Atomic's deferred cleanup re-clears an already cleared slot.
//
//bfgts:allocfree
func (m *bfgtsManager) onRunning(worker, dtx int) {
	if m.dir == nil {
		return
	}
	if dtx == core.NoTx {
		if m.dir.Occupied(worker) {
			m.dir.Clear(worker)
		}
		return
	}
	m.dir.Set(worker, uint64(m.conf.Fold(dtx%m.sys.cfg.StaticTxs)))
}

func (m *bfgtsManager) Name() string { return "BFGTS" }

// OnBegin is the paper's begin-time scan (Example 1): walk the CPU table,
// look up conflict confidence against each running transaction, and when
// a likely enemy is found either yield (enemy is big) or spin-stall until
// it drains. The scan takes no lock: the CPU table is the System's running
// array read with atomic loads, and each confidence lookup is one atomic
// load of a SharedConf cell.
//
//bfgts:allocfree
func (m *bfgtsManager) OnBegin(worker, stx, dtx, attempt int) {
	w := &m.sys.workers[worker]
	dec := m.sys.decShard(worker)
	rounds := 0
	for {
		enemy := m.predict(worker, stx)
		if enemy == core.NoTx {
			return
		}
		m.sys.met.predicted.Add(1)
		if rounds++; rounds > beginEscapeLimit {
			m.sys.met.beginEscapes.Add(1)
			return
		}
		yield := m.suspend(dtx, enemy)
		// Record the suspension with the inputs that drove it; the wait is
		// measured around the sleep/stall, and validate settles the outcome
		// at commit. Each round overwrites decTok, mirroring waitingOn:
		// only the final suspension of an execution is validated.
		tok, t0 := -1, int64(0)
		if dec != nil {
			choice := decision.CSpin
			if yield {
				choice = decision.CYield
			}
			t0 = m.sys.decNow()
			tok = dec.Add(decision.Record{
				Time:       t0,
				Tid:        int32(worker),
				Stx:        int32(stx),
				Attempt:    int32(attempt + 1),
				Point:      decision.PBegin,
				Choice:     choice,
				EnemyDTx:   int32(enemy),
				EnemyStx:   int32(enemy % m.sys.cfg.StaticTxs),
				Confidence: m.conf.Load(stx, enemy%m.sys.cfg.StaticTxs),
				Similarity: 0.5 * (m.stats[dtx].sim() + m.stats[enemy].sim()),
			})
			m.stats[dtx].decTok = tok
		}
		if yield {
			m.sys.met.yields.Add(1)
			time.Sleep(yieldSleep + w.jitter(int64(yieldSleep)))
		} else {
			m.sys.met.stalls.Add(1)
			m.stallOn(enemy)
		}
		if dec != nil {
			dec.SetWait(tok, m.sys.decNow()-t0)
		}
	}
}

// predict returns the first running dtx whose confidence against stx
// clears the threshold, or core.NoTx — through the Bloofi directory when
// enabled, so only tree-surfaced candidates pay a confidence lookup.
//
//bfgts:allocfree
func (m *bfgtsManager) predict(worker, stx int) int {
	if m.dir != nil {
		return m.predictDir(worker, stx)
	}
	return m.predictLinear(worker, stx)
}

// predictLinear is the literal begin-time scan: one atomic load of the
// running slot plus one confidence load per occupied entry.
//
//bfgts:allocfree
func (m *bfgtsManager) predictLinear(worker, stx int) int {
	running := m.sys.running
	enemy := core.NoTx
	scanned := int64(0)
	for cpu := range running {
		if cpu == worker {
			continue
		}
		d := running[cpu].Load()
		if d == int64(core.NoTx) {
			continue
		}
		scanned++
		if m.conf.Load(stx, int(d)%m.sys.cfg.StaticTxs) > m.confThreshold {
			enemy = int(d)
			break
		}
	}
	m.probes[worker].lenHist.Add(scanned)
	return enemy
}

// predictDir is the directory-backed scan: compute the exact suspect set
// from the confidence row, descend only matching subtrees, and re-verify
// every surfaced candidate against the authoritative running slot and
// confidence cell. Races with concurrent inserts/repairs can make the
// probe miss a candidate the linear walk would have caught (the
// transaction then proceeds optimistically — the TM layer's versioned
// locks keep it safe) or surface a stale one (rejected by the
// re-verification), never anything worse.
//
//bfgts:allocfree
func (m *bfgtsManager) predictDir(worker, stx int) int {
	wp := &m.probes[worker]
	wp.sus = m.conf.SuspectsInto(stx, m.confThreshold, wp.sus[:0])
	wp.probe.Reset(wp.sus)
	enemy := core.NoTx
	for {
		slot, ok := wp.probe.Next()
		if !ok {
			break
		}
		if slot == worker {
			continue
		}
		d := m.sys.running[slot].Load()
		if d == int64(core.NoTx) {
			continue
		}
		if m.conf.Load(stx, int(d)%m.sys.cfg.StaticTxs) > m.confThreshold {
			enemy = int(d)
			break
		}
	}
	wp.lenHist.Add(int64(wp.probe.Candidates()))
	wp.nodeHist.Add(int64(wp.probe.Nodes()))
	wp.runHist.Add(int64(m.dir.Len()))
	return enemy
}

// suspend records the serialization decision for a predicted conflict:
// decay the confidence edge (floored — see minDecayFrac), remember the
// enemy for commit-time validation, and report whether to yield (big
// enemy) or spin-stall (small enemy).
//
//bfgts:allocfree
func (m *bfgtsManager) suspend(dtx, enemyDTx int) (yield bool) {
	self, en := &m.stats[dtx], &m.stats[enemyDTx]
	sim := 0.5 * (self.sim() + en.sim())
	decay := m.decayVal * (1 - sim)
	if floor := m.decayVal * minDecayFrac; decay < floor {
		decay = floor
	}
	m.conf.Add(dtx%m.sys.cfg.StaticTxs, enemyDTx%m.sys.cfg.StaticTxs, -decay)
	self.waitingOn = enemyDTx
	return en.avgSize() >= m.smallTxLines
}

// stallOn burns scheduler yields until the enemy leaves the CPU table or
// the spin budget runs out (then OnBegin re-predicts; the decay applied by
// suspend plus the escape counter guarantee progress).
//
//bfgts:allocfree
func (m *bfgtsManager) stallOn(enemyDTx int) {
	ew := enemyDTx / m.sys.cfg.StaticTxs
	for i := 0; i < stallSpinBudget; i++ {
		if m.sys.running[ew].Load() != int64(enemyDTx) {
			return
		}
		runtime.Gosched()
	}
}

// OnAbort strengthens the confidence edge between the aborted transaction
// and its (validated, same-System) enemy, scaled by their similarity
// history and floored so novel pairs still learn; then backs off.
//
//bfgts:allocfree
func (m *bfgtsManager) OnAbort(worker, stx, dtx, enemyDTx, attempt int) {
	if enemyDTx != core.NoTx {
		sim := 0.5 * (m.stats[dtx].sim() + m.stats[enemyDTx].sim())
		inc := m.incVal * sim
		if floor := m.incVal * 0.30; inc < floor {
			inc = floor
		}
		estx := enemyDTx % m.sys.cfg.StaticTxs
		m.conf.Add(stx, estx, inc)
		m.sys.met.confStrengthens.Add(1)
		if m.conf.Fold(stx) != m.conf.Fold(estx) {
			// The reverse edge, unless aliasing folds both onto one cell
			// (which would double-pump it).
			m.conf.Add(estx, stx, inc)
		}
	}
	m.sys.backoff(worker, attempt)
}

// OnCommit folds the committed set size into the history EWMA, rebuilds
// the spare signature pair and flips it live (batched for small
// transactions per SimInterval), updates the similarity EWMA against the
// previous signature, and validates any begin-time serialization decision
// by intersecting published signatures — strengthening the confidence edge
// when the suspicion was justified, decaying it when it was not.
//
//bfgts:allocfree
func (m *bfgtsManager) OnCommit(worker, stx, dtx int, lines, writes []uint64, size int) {
	st := &m.stats[dtx]
	avg := float64(size)
	if st.commits > 0 {
		avg = 0.5 * (st.avgSize() + avg)
	}
	st.avgSizeBits.Store(math.Float64bits(avg))
	st.commits++
	st.sinceSim++
	small := avg <= m.smallTxLines
	if !small || st.sinceSim >= m.simInterval {
		m.republish(st, dtx, lines, writes, avg)
	}
	if st.waitingOn != core.NoTx {
		m.validate(st, stx, dtx)
	}
}

// republish rebuilds the dtx's spare signature pair from the committed
// set, updates the similarity EWMA against the published previous
// signature, and flips the spare live.
//
//bfgts:allocfree
//bfgts:seqlock-pub cur
func (m *bfgtsManager) republish(st *bfgtsStat, dtx int, lines, writes []uint64, avg float64) {
	slot := &m.sigs[dtx]
	cur := slot.cur.Load()
	next := &slot.pair[1-cur]
	next.rw.Reset()
	next.w.Reset()
	for _, a := range lines {
		next.rw.Add(a)
	}
	for _, a := range writes {
		next.w.Add(a)
	}
	if st.hasHistory {
		newSim := next.rw.Similarity(slot.pair[cur].rw, avg)
		st.simBits.Store(math.Float64bits(0.5 * (st.sim() + newSim)))
		m.sys.met.simUpdates.Add(1)
	} else {
		st.hasHistory = true
	}
	slot.cur.Store(1 - cur)
	st.sinceSim = 0
}

// validate settles a begin-time serialization decision: if this
// transaction's published signature significantly overlaps the waited-on
// transaction's writes (or vice versa), the suspension was justified —
// strengthen the edge; otherwise decay it. Probing the enemy's published
// pair may race its owner's next rebuild; see the type comment.
//
//bfgts:allocfree
//bfgts:seqlock-pub cur
func (m *bfgtsManager) validate(st *bfgtsStat, stx, dtx int) {
	waited := st.waitingOn
	st.waitingOn = core.NoTx
	wslot := &m.sigs[waited]
	wp := &wslot.pair[wslot.cur.Load()]
	sslot := &m.sigs[dtx]
	sp := &sslot.pair[sslot.cur.Load()]
	sim := 0.5 * (st.sim() + m.stats[waited].sim())
	wstx := waited % m.sys.cfg.StaticTxs
	justified := sp.rw.OverlapSignificant(wp.w) || wp.rw.OverlapSignificant(sp.w)
	if justified {
		inc := m.incVal * sim
		if floor := m.incVal * 0.30; inc < floor {
			inc = floor
		}
		m.conf.Add(stx, wstx, inc)
		m.sys.met.validHits.Add(1)
	} else {
		m.conf.Add(stx, wstx, -m.decayVal*(1-sim))
		m.sys.met.validMisses.Add(1)
	}
	// Settle the recorded suspension with the same verdict the confidence
	// loop just acted on.
	o := decision.OOvercautious
	if justified {
		o = decision.OJustified
	}
	m.settleSuspension(st, dtx, o)
}

// settleSuspension resolves the execution's recorded suspension, if any,
// in the owner's shard (dtx/StaticTxs is the worker).
//
//bfgts:allocfree
func (m *bfgtsManager) settleSuspension(st *bfgtsStat, dtx int, o decision.Outcome) {
	if st.decTok < 0 {
		return
	}
	if dec := m.sys.decShard(dtx / m.sys.cfg.StaticTxs); dec != nil {
		dec.Resolve(st.decTok, o, 0)
	}
	st.decTok = -1
}

// onLeave implements leaveObserver: the execution ended without a commit,
// so there is no committed signature to validate its last suspension
// against. Drop it — left in place it would be validated against the next
// call's commit — and settle its record as overcautious: the wait bought
// no commit.
//
//bfgts:allocfree
func (m *bfgtsManager) onLeave(worker, dtx int) {
	st := &m.stats[dtx]
	st.waitingOn = core.NoTx
	m.settleSuspension(st, dtx, decision.OOvercautious)
}

// similarity returns a dtx's similarity EWMA (System.Similarity).
func (m *bfgtsManager) similarity(dtx int) float64 { return m.stats[dtx].sim() }

// avgSize returns a dtx's average set size (System.AvgSize).
func (m *bfgtsManager) avgSize(dtx int) float64 { return m.stats[dtx].avgSize() }

// MeanConfidence implements ConfidenceReporter.
func (m *bfgtsManager) MeanConfidence() float64 { return m.conf.Mean() }
