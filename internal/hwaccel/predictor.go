package hwaccel

import (
	"repro/internal/core"
	"repro/internal/metrics"
)

// Predictor is one per-CPU hardware prediction unit (Figure 2).
type Predictor struct {
	cpu int
	rt  *core.Runtime

	// cpuTable mirrors the dTxID currently executing on every CPU in the
	// system (core.NoTx when idle or non-transactional), maintained by
	// snooping begin/commit/abort broadcasts on the coherent interconnect.
	cpuTable []int

	// Control registers (set via TX_QUERY_PREDICTOR in the paper).
	threshold float64
	waitReg   int // dTxID to serialize behind, read back by software

	cache *Cache

	// walkCycles is the fixed pipeline cost of triggering the walker.
	walkCycles int64
	// entryCycles is the per-entry compare cost on top of the confidence
	// fetch.
	entryCycles int64

	// Bank-shared instruments (nil until Bank.SetMetrics).
	metPredictions *metrics.Counter
	metConflicts   *metrics.Counter
	metWalkCycles  *metrics.Counter
}

// Bank is the full complement of predictors, one per CPU, kept coherent by
// broadcast, as the paper distributes one identical unit per processor.
type Bank struct {
	units []*Predictor
}

// NewBank builds predictors for nCPUs processors sharing one runtime's
// confidence table.
func NewBank(rt *core.Runtime, nCPUs int, cacheCfg CacheConfig) *Bank {
	b := &Bank{}
	b.Reset(rt, nCPUs, cacheCfg)
	return b
}

// Reset re-initialises the bank in place for nCPUs processors over rt, as
// NewBank would build it: every CPU table idle, every confidence cache
// cold, no instruments. Units, tables and cache sets are kept.
func (b *Bank) Reset(rt *core.Runtime, nCPUs int, cacheCfg CacheConfig) {
	for len(b.units) < nCPUs {
		b.units = append(b.units, &Predictor{cache: &Cache{}})
	}
	b.units = b.units[:nCPUs]
	for cpu, p := range b.units {
		table, cache := p.cpuTable, p.cache
		if cap(table) < nCPUs {
			table = make([]int, nCPUs)
		}
		table = table[:nCPUs]
		for i := range table {
			table[i] = core.NoTx
		}
		cache.reset(cacheCfg)
		*p = Predictor{
			cpu:         cpu,
			rt:          rt,
			cpuTable:    table,
			threshold:   rt.Config().ConfThreshold,
			waitReg:     core.NoTx,
			cache:       cache,
			walkCycles:  3,
			entryCycles: 1,
		}
	}
}

// Unit returns the predictor attached to a CPU.
func (b *Bank) Unit(cpu int) *Predictor { return b.units[cpu] }

// SetMetrics wires every unit in the bank to shared registry instruments:
// confidence-cache hits/misses aggregated across the per-CPU caches, walker
// cycle totals, and prediction counts. A nil registry disables all of them.
func (b *Bank) SetMetrics(reg *metrics.Registry) {
	hits := reg.Counter("hwaccel.conf_cache.hits")
	misses := reg.Counter("hwaccel.conf_cache.misses")
	preds := reg.Counter("hwaccel.predictions")
	conf := reg.Counter("hwaccel.pred_conflicts")
	walk := reg.Counter("hwaccel.walk_cycles")
	for _, p := range b.units {
		p.cache.SetMetrics(hits, misses)
		p.metPredictions = preds
		p.metConflicts = conf
		p.metWalkCycles = walk
	}
}

// BroadcastBegin announces on the interconnect that cpu started executing
// dtx; every predictor snoops it into its CPU table.
func (b *Bank) BroadcastBegin(cpu, dtx int) {
	for _, p := range b.units {
		p.cpuTable[cpu] = dtx
	}
}

// BroadcastEnd announces that cpu's transaction committed or aborted (or
// its thread was descheduled), clearing the slot in every CPU table.
func (b *Bank) BroadcastEnd(cpu int) {
	for _, p := range b.units {
		p.cpuTable[cpu] = core.NoTx
	}
}

// CPUTable exposes the local unit's snapshot of running transactions, as
// software can read it through TX_QUERY_PREDICTOR.
func (p *Predictor) CPUTable() []int { return p.cpuTable }

// WaitRegister returns the dTxID the last positive prediction decided to
// serialize behind (TX_QUERY_PREDICTOR's "query what dTxID to serialize
// against").
func (p *Predictor) WaitRegister() int { return p.waitReg }

// SetThreshold updates the confidence threshold control register.
func (p *Predictor) SetThreshold(t float64) { p.threshold = t }

// Predict implements Example 1 in hardware: walk the CPU table, fetch the
// confidence entry for (stx, running stx) — each fetch going through the
// dedicated confidence cache — and compare against the threshold. It
// returns the prediction and its latency in cycles.
//
// The walk short-circuits: like the pseudo-code, it stops at the first
// predicted conflict, so a hit early in the CPU table costs fewer cache
// accesses than a clean scan. An exhaustive walk that inspects every
// remote entry regardless of hits is not modeled.
func (p *Predictor) Predict(stx int) core.Prediction {
	pr := core.Prediction{WaitDTx: core.NoTx, Cycles: p.walkCycles}
	cfg := p.rt.Config()
	for cpu, dtx := range p.cpuTable {
		if cpu == p.cpu || dtx == core.NoTx {
			continue
		}
		_, otherStx := cfg.SplitDTx(dtx)
		// The confidence tables are per-CPU copies at a base physical
		// address; entry layout is one byte per (row, column) pair, row =
		// beginning sTxID.
		entryAddr := uint64(stx*cfg.NumStatic + otherStx)
		pr.Cycles += p.cache.Access(entryAddr) + p.entryCycles
		if p.rt.Conf(stx, otherStx) > p.threshold {
			pr.Conflict = true
			pr.WaitDTx = dtx
			p.waitReg = dtx
			break
		}
	}
	if p.rt.Costs().NoOverhead {
		pr.Cycles = 1
	}
	p.metPredictions.Inc()
	p.metWalkCycles.Add(pr.Cycles)
	if pr.Conflict {
		p.metConflicts.Inc()
	}
	return pr
}

// CacheStats exposes the confidence cache's hit/miss counters.
func (p *Predictor) CacheStats() (hits, misses int64) { return p.cache.Stats() }
