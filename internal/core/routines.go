package core

import (
	"repro/internal/bloofi"
	"repro/internal/bloom"
)

// This file implements the BFGTS scheduling subroutines of Section 4.2.2,
// mirroring the paper's pseudo-code:
//
//	Example 1 — the begin-time prediction scan (software flavor here; the
//	            hardware-accelerated flavor lives in internal/hwaccel)
//	Example 2 — suspendTx: a predicted conflict serializes the transaction
//	Example 3 — txConflict: an abort strengthens the confidence of future
//	            conflict, weighted by similarity
//	Example 4 — commitTx / updateBloom / calcSim: commit-time bookkeeping
//
// Each routine returns the modeled cycle cost alongside its result.

// Prediction is the outcome of the begin-time scan.
type Prediction struct {
	// Conflict predicts the transaction would conflict with WaitDTx if it
	// started now; the caller should serialize behind WaitDTx.
	Conflict bool
	WaitDTx  int
	// Cycles is the cost of forming the prediction.
	Cycles int64
}

// PredictSW is Example 1 executed in software (BFGTS-SW): scan the CPU
// table, look up the confidence between the beginning transaction's static
// ID and each running transaction's static ID, and serialize if any exceeds
// the threshold. cpuTable holds the dTxID running on each CPU, or NoTx;
// selfCPU is skipped.
func (r *Runtime) PredictSW(stx int, cpuTable []int, selfCPU int) Prediction {
	p := Prediction{WaitDTx: NoTx}
	for cpu, dtx := range cpuTable {
		if cpu == selfCPU || dtx == NoTx {
			continue
		}
		_, otherStx := r.cfg.SplitDTx(dtx)
		if r.Conf(stx, otherStx) > r.cfg.ConfThreshold {
			p.Conflict = true
			p.WaitDTx = dtx
			break
		}
	}
	p.Cycles = r.cost.flat(r.cost.Call + int64(len(cpuTable))*r.cost.ScanEntry)
	return p
}

// PredictDir is Example 1 answered through a Bloofi directory over the CPU
// table instead of a linear walk. The probe's tree must hold, for every
// occupied CPU slot, the folded static ID (FoldStx) of the transaction
// running there. The suspect set is computed exactly from the confidence
// table, the directory surfaces the occupied slots holding a suspect key
// in ascending slot order, and each candidate is re-checked against the
// authoritative confidence cell — so the outcome (and the first match
// chosen) is identical to PredictSW's scan, while the host-side work is
// O(log n) in sparse-conflict regimes.
//
// The modeled cycle cost is deliberately the same flat formula as
// PredictSW: the paper's software scan walks the whole CPU table, and the
// directory is a host-side indexing strategy, not a change to the modeled
// machine.
//
//bfgts:allocfree
func (r *Runtime) PredictDir(stx int, cpuTable []int, selfCPU int, probe *bloofi.Probe) Prediction {
	p := Prediction{WaitDTx: NoTx}
	probe.Reset(r.SuspectStatics(stx))
	for {
		cpu, ok := probe.Next()
		if !ok {
			break
		}
		if cpu == selfCPU {
			continue
		}
		dtx := cpuTable[cpu]
		if dtx == NoTx {
			continue
		}
		_, otherStx := r.cfg.SplitDTx(dtx)
		if r.Conf(stx, otherStx) > r.cfg.ConfThreshold {
			p.Conflict = true
			p.WaitDTx = dtx
			break
		}
	}
	p.Cycles = r.cost.flat(r.cost.Call + int64(len(cpuTable))*r.cost.ScanEntry)
	return p
}

// SuspendDecision tells the runner how to serialize a predicted conflict.
type SuspendDecision struct {
	// Yield reports that the transaction being waited on is historically
	// large, so the thread should pthread_yield rather than spin-stall
	// (Example 2's avgTxSize >= SMALL_TX_SIZE branch).
	Yield  bool
	Cycles int64
}

// SuspendTx is Example 2: record the serialization, decay the confidence
// between the two static IDs (weighted by 1−similarity so dissimilar pairs
// return to optimistic scheduling quickly), and decide between yielding and
// spin-stalling based on the waited-on transaction's average size.
func (r *Runtime) SuspendTx(dtx, dtxSusp int) SuspendDecision {
	self, susp := &r.stats[r.dtxSlot(dtx)], &r.stats[r.dtxSlot(dtxSusp)]
	sim := 0.5 * (self.sim + susp.sim)
	decay := r.cfg.DecayVal * (1 - sim)
	_, stx := r.cfg.SplitDTx(dtx)
	_, stxSusp := r.cfg.SplitDTx(dtxSusp)
	r.met.decWeight.Observe(1 - sim)
	r.addConf(stx, stxSusp, -decay)
	self.waitingOn = dtxSusp
	return SuspendDecision{
		Yield:  susp.avgSize >= r.cfg.SmallTxLines,
		Cycles: r.cost.flat(r.cost.Call + r.cost.ConfUpdate + 4*r.cost.WordOp),
	}
}

// TxConflict is Example 3, called when a transaction aborts after a real
// conflict: strengthen the confidence of future conflict between the two
// static IDs in both directions, weighted by the pair's average similarity
// so persistent (high-similarity) conflicts saturate quickly.
func (r *Runtime) TxConflict(dtx, dtxConf int) (cycles int64) {
	a, b := &r.stats[r.dtxSlot(dtx)], &r.stats[r.dtxSlot(dtxConf)]
	sim := 0.5 * (a.sim + b.sim)
	inc := r.cfg.IncVal * sim
	if inc < r.cfg.IncVal*0.30 {
		// Even fully dissimilar transactions did conflict; learn slowly
		// rather than not at all, or dense transient contention (the
		// Delaunay pattern) never registers.
		inc = r.cfg.IncVal * 0.30
	}
	_, stx := r.cfg.SplitDTx(dtx)
	_, stxConf := r.cfg.SplitDTx(dtxConf)
	r.met.incWeight.Observe(sim)
	r.addConf(stx, stxConf, inc)
	if r.cfg.confIdx(stx) != r.cfg.confIdx(stxConf) {
		// Self-conflicting classes share one table cell; incrementing it
		// twice would double-pump their confidence.
		r.addConf(stxConf, stx, inc)
	}
	return r.cost.flat(r.cost.Call + 2*r.cost.ConfUpdate + 4*r.cost.WordOp)
}

// CommitResult reports what commit-time bookkeeping cost and computed.
type CommitResult struct {
	Cycles int64
	// SimUpdated reports whether the similarity calculation ran (it is
	// batched for small transactions, Section 5.3.2).
	SimUpdated bool
	// Similarity is the post-update similarity EWMA of the transaction.
	Similarity float64
}

// CommitTx is Example 4: update the average transaction size, fold the
// just-committed read/write set into the Bloom-filter table and refresh the
// similarity EWMA (possibly batched for small transactions), and — if this
// execution had serialized behind another transaction — validate that
// prediction by intersecting signatures, strengthening the confidence if
// the sets truly overlapped and decaying it otherwise.
//
// lines must list the distinct cache lines of the read/write set and writes
// the written subset; size is the distinct line count. The slices are only
// read during the call (the runner passes reusable scratch buffers), and
// the displaced previous signatures become the spares the next commit
// builds into, so the steady-state commit path performs no allocation.
func (r *Runtime) CommitTx(dtx int, lines, writes []uint64, size int) CommitResult {
	slot := r.dtxSlot(dtx)
	st := &r.stats[slot]
	cost := r.cost.Call + 2*r.cost.WordOp // updateAvgSize

	// updateAvgSize: EWMA with the same 0.5 weighting the paper uses for
	// similarity.
	if st.commits == 0 {
		st.avgSize = float64(size)
	} else {
		st.avgSize = 0.5 * (st.avgSize + float64(size))
	}
	st.commits++
	st.sinceSim++

	// Build the new signature (the hardware exposes the transaction's
	// signature register; reading it out is cheap).
	small := st.avgSize <= r.cfg.SmallTxLines
	runSim := !small || st.sinceSim >= r.cfg.SimInterval

	res := CommitResult{}
	if runSim {
		sig, wsig := r.fresh(0), r.fresh(1)
		for _, a := range lines {
			sig.Add(a)
		}
		for _, a := range writes {
			wsig.Add(a)
		}
		if r.met.fill != nil {
			if f, ok := sig.(*bloom.Filter); ok {
				r.met.fill.Observe(f.FillRatio())
			}
		}
		if st.hasHistory {
			prev := r.sigs[slot]
			newSim := sig.Similarity(prev, st.avgSize)
			st.sim = 0.5 * (st.sim + newSim)
			r.met.simUpdates.Inc()
			r.met.similarity.Observe(st.sim)
			pops, logs := sig.SimilarityOps()
			// Three popcount passes + union construction + the ln calls.
			cost += int64(pops)*r.cost.Popcnt + int64(logs)*r.cost.Fyl2x +
				int64(3*sizeWords(sig))*r.cost.WordOp
		} else {
			// First execution: nothing to compare against; seed history
			// and keep the neutral similarity prior.
			st.hasHistory = true
		}
		// The displaced previous signatures have no remaining readers
		// (validation below always consults the tables, never a stashed
		// pointer) — they become the spares the next commit builds into.
		r.spare[0], r.spare[1] = r.sigs[slot], r.wsigs[slot]
		r.sigs[slot], r.wsigs[slot] = sig, wsig
		st.sinceSim = 0
		res.SimUpdated = true
		// Signature construction: one hash+set per line.
		cost += int64(size) * 2 * r.cost.WordOp
	}

	// Prediction validation against the transaction we serialized behind.
	if st.waitingOn != NoTx {
		waited := st.waitingOn
		st.waitingOn = NoTx
		wslot := r.dtxSlot(waited)
		sim := 0.5 * (st.sim + r.stats[wslot].sim)
		_, stx := r.cfg.SplitDTx(dtx)
		_, wstx := r.cfg.SplitDTx(waited)
		if r.validationOverlap(slot, wslot) {
			inc := r.cfg.IncVal * sim
			if inc < r.cfg.IncVal*0.30 {
				inc = r.cfg.IncVal * 0.30 // same cold-start floor as TxConflict
			}
			r.met.validHits.Inc()
			r.met.incWeight.Observe(sim)
			r.addConf(stx, wstx, inc)
		} else {
			r.met.validMiss.Inc()
			r.met.decWeight.Observe(1 - sim)
			r.addConf(stx, wstx, -r.cfg.DecayVal*(1-sim))
		}
		cost += r.cost.ConfUpdate + int64(sizeWords(r.sigs[slot]))*r.cost.WordOp
	}

	res.Cycles = r.cost.flat(cost)
	res.Similarity = st.sim
	return res
}

// CommitTxLight is the low-pressure commit path of BFGTS-HW/Backoff
// (Section 4.3): when conflict pressure is below the threshold the Bloom
// filter calculations are skipped entirely; only the average size is
// maintained and any recorded serialization is cleared without validation.
func (r *Runtime) CommitTxLight(dtx, size int) (cycles int64) {
	st := &r.stats[r.dtxSlot(dtx)]
	if st.commits == 0 {
		st.avgSize = float64(size)
	} else {
		st.avgSize = 0.5 * (st.avgSize + float64(size))
	}
	st.commits++
	st.waitingOn = NoTx
	return r.cost.flat(r.cost.Call + 2*r.cost.WordOp)
}

// sizeWords returns the word count of a Bloom signature for cost pricing,
// and 0 for exact sets (used only under NoOverhead where costs are flat).
func sizeWords(s any) int {
	type worder interface{ Words() int }
	if w, ok := s.(worder); ok {
		return w.Words()
	}
	return 0
}

// validationOverlap implements commitTx's "intersection is not null" test
// between the committing transaction (slot) and the one it serialized
// behind (wslot): the sets truly conflict only if one side's writes meet
// the other side's read/write set.
func (r *Runtime) validationOverlap(slot, wslot int) bool {
	rw1, w1 := r.sigs[slot], r.wsigs[slot]
	rw2, w2 := r.sigs[wslot], r.wsigs[wslot]
	if rw1 == nil || rw2 == nil {
		return false
	}
	if w2 != nil && rw1.OverlapSignificant(w2) {
		return true
	}
	return w1 != nil && rw2.OverlapSignificant(w1)
}
