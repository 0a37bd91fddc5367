package core

import (
	"fmt"

	"repro/internal/bloom"
	"repro/internal/metrics"
)

// NoTx is the sentinel for "no dynamic transaction" in waiting-on fields
// and CPU tables.
const NoTx = -1

// Config parameterizes a BFGTS runtime instance.
type Config struct {
	NumThreads int // N: OS threads (64 in the paper's setup)
	NumStatic  int // M: static transactions declared in the code

	BloomBits   int  // signature size, 512–8192 in the paper's sweep
	BloomHashes int  // hash functions per signature
	Perfect     bool // use exact sets instead of Bloom filters (NoOverhead)

	// ConfThreshold is the confidence above which a predicted conflict
	// serializes the transaction (the hardware predictor's threshold
	// register).
	ConfThreshold float64
	// IncVal scales confidence increments (weighted by similarity,
	// Example 3); DecayVal scales decrements (weighted by 1−similarity,
	// Example 2).
	IncVal   float64
	DecayVal float64

	// SmallTxLines is the average read/write-set size (in cache lines) at
	// or below which a transaction counts as "small": similarity updates
	// are batched for small transactions, and a predicted conflict with a
	// small transaction spin-stalls rather than yielding (Example 2).
	SmallTxLines float64
	// SimInterval updates similarity for small transactions only once
	// every this many commits (Section 5.3.2; 20 in the headline results).
	SimInterval int

	// AliasBuckets, when non-zero, folds sTxIDs modulo this value in the
	// confidence table and dTxIDs in the statistics arrays — the paper's
	// "future work" aliasing scheme for unbounded transactional codes.
	AliasBuckets int
}

// DefaultConfig returns the configuration used for the headline results:
// 2048-bit filters, similarity interval 20, small-transaction threshold of
// 10 cache lines (Section 5.2.1).
func DefaultConfig(nThreads, nStatic int) Config {
	return Config{
		NumThreads:    nThreads,
		NumStatic:     nStatic,
		BloomBits:     2048,
		BloomHashes:   bloom.DefaultHashes,
		ConfThreshold: 0.30,
		IncVal:        0.50,
		DecayVal:      0.10,
		SmallTxLines:  10,
		SimInterval:   20,
	}
}

// txStats is one entry of the Tx Statistics Array (Figure 3): kept per
// dTxID encountered at runtime.
type txStats struct {
	avgSize    float64 // historical average read/write-set size in lines
	sim        float64 // similarity EWMA
	waitingOn  int     // dTxID this transaction serialized behind, or NoTx
	commits    int64
	sinceSim   int  // commits since the last similarity update
	hasHistory bool // a previous signature exists in the Bloom table
}

// runtimeMetrics caches the instruments the scheduling routines record
// into. All fields are nil (and every record call a no-op) until
// SetMetrics is called with a live registry.
type runtimeMetrics struct {
	confInc    *metrics.Counter // confidence-table increments
	confDec    *metrics.Counter // confidence-table decrements
	incWeight  *metrics.Summary // similarity weights of increments (Example 3)
	decWeight  *metrics.Summary // 1−similarity weights of decays (Example 2)
	validHits  *metrics.Counter // commit validations confirming overlap
	validMiss  *metrics.Counter // commit validations refuting overlap
	simUpdates *metrics.Counter // similarity calculations actually run
	similarity *metrics.Summary // post-update similarity EWMA values
	fill       *metrics.Summary // Bloom signature fill ratio at build time
}

// Runtime is the BFGTS software runtime state: confidence tables,
// statistics arrays and the Bloom-filter table (Figure 3).
type Runtime struct {
	cfg  Config
	cost CostModel
	met  runtimeMetrics

	// conf is the confidence table, M×M between static transaction IDs
	// (the paper's key compression over PTS's per-dTxID table).
	conf []float64
	// stats and sigs are indexed by dTxID = thread*M + sTxID. sigs holds
	// the full read/write-set signature (similarity, Eq. 4); wsigs holds
	// the write-set-only signature used by commit validation, because a
	// "conflict would have happened" requires a write on at least one
	// side — intersecting two full R/W sets would count read-read sharing
	// of hot read-only structures as phantom conflicts.
	stats []txStats
	sigs  []bloom.Signature
	wsigs []bloom.Signature

	// spare holds the two empty signatures the next similarity-updating
	// commit builds into: it trades them for the slot's displaced pair, so
	// a signature is carved only when the slot had none. At most
	// 2·len(sigs)+2 signatures therefore exist at once, all carved from
	// slab, which Reset takes back whole and sizes for that bound.
	spare [2]bloom.Signature
	slab  bloom.Slab

	// suspectBuf is the reusable backing store of SuspectStatics, sized
	// to the confidence table's axis so suspect collection never grows it.
	suspectBuf []uint64
}

// NewRuntime allocates a runtime for the given configuration and cost
// model.
func NewRuntime(cfg Config, cost CostModel) *Runtime {
	r := new(Runtime)
	r.Reset(cfg, cost)
	return r
}

// Reset re-initialises the runtime in place for a new configuration and
// cost model, as NewRuntime would build it: empty tables, neutral
// similarity, no signatures and no instruments. Its tables and signature
// storage are kept and re-carved, whatever the filter geometry, so a
// runtime reused across runs stops allocating. Signatures and suspect
// lists handed out before a Reset are invalid after it.
func (r *Runtime) Reset(cfg Config, cost CostModel) {
	if cfg.NumThreads <= 0 || cfg.NumStatic <= 0 {
		panic("core: runtime needs positive thread and static-transaction counts")
	}
	if cfg.SimInterval <= 0 {
		cfg.SimInterval = 1
	}
	m := cfg.confDim()
	n := cfg.NumThreads * cfg.statDim()
	r.cfg, r.cost, r.met = cfg, cost, runtimeMetrics{}
	r.conf = resize(r.conf, m*m)
	r.stats = resize(r.stats, n)
	r.sigs = resize(r.sigs, n)
	r.wsigs = resize(r.wsigs, n)
	r.spare = [2]bloom.Signature{}
	if cfg.Perfect {
		r.slab.Reset(0, 0)
	} else {
		r.slab.Reset(2*n+2, cfg.BloomBits)
	}
	if cap(r.suspectBuf) < m {
		r.suspectBuf = make([]uint64, 0, m)
	}
	for i := range r.stats {
		r.stats[i].waitingOn = NoTx
		// Similarity starts neutral: with no history, neither the
		// fast-decay (dissimilar) nor the slow-decay (similar) regime is
		// justified, and small transactions may not update similarity for
		// many commits (Section 5.3.2's batching).
		r.stats[i].sim = 0.5
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

// SetMetrics points the runtime's instrumentation at a registry. A nil
// registry yields nil instruments, whose record methods short-circuit, so
// calling this unconditionally keeps the disabled path allocation-free.
func (r *Runtime) SetMetrics(reg *metrics.Registry) {
	r.met = runtimeMetrics{
		confInc:    reg.Counter("core.conf.inc"),
		confDec:    reg.Counter("core.conf.dec"),
		incWeight:  reg.Summary("core.conf.inc_weight"),
		decWeight:  reg.Summary("core.conf.dec_weight"),
		validHits:  reg.Counter("core.validation.hits"),
		validMiss:  reg.Counter("core.validation.misses"),
		simUpdates: reg.Counter("core.sim_updates"),
		similarity: reg.Summary("core.similarity"),
		fill:       reg.Summary("bloom.fill_ratio"),
	}
}

// Config returns the runtime's configuration.
func (r *Runtime) Config() Config { return r.cfg }

// Costs returns the runtime's cost model.
func (r *Runtime) Costs() CostModel { return r.cost }

// confDim is the per-axis size of the confidence table after aliasing.
func (c Config) confDim() int {
	if c.AliasBuckets > 0 && c.AliasBuckets < c.NumStatic {
		return c.AliasBuckets
	}
	return c.NumStatic
}

// statDim is the number of per-thread statistics slots after aliasing.
func (c Config) statDim() int {
	return c.confDim()
}

// confIdx folds a static ID per the aliasing configuration.
func (c Config) confIdx(stx int) int {
	d := c.confDim()
	if stx >= d {
		return stx % d
	}
	return stx
}

// FoldStx exposes the confidence-table folding of a static ID — the
// identity key the Bloofi directory indexes a running transaction under,
// so that leaf-level key equality coincides exactly with confidence-cell
// equality.
func (c Config) FoldStx(stx int) int { return c.confIdx(stx) }

// ConfDim exposes the per-axis confidence-table size: the number of
// distinct folded static IDs, and therefore an upper bound on the size of
// any begin-time suspect set.
func (c Config) ConfDim() int { return c.confDim() }

// DTx builds a dynamic transaction ID from a thread and static ID. This is
// the paper's concatenation of thread ID and sTxID.
func (c Config) DTx(thread, stx int) int { return thread*c.NumStatic + stx }

// SplitDTx recovers (thread, sTxID) from a dynamic ID; this is the shift
// register of the hardware predictor.
func (c Config) SplitDTx(dtx int) (thread, stx int) {
	return dtx / c.NumStatic, dtx % c.NumStatic
}

// dtxSlot maps a dynamic ID to its statistics slot, applying aliasing.
func (r *Runtime) dtxSlot(dtx int) int {
	th, stx := r.cfg.SplitDTx(dtx)
	return th*r.cfg.statDim() + r.cfg.confIdx(stx)
}

// Conf returns the confidence that static transactions a and b conflict.
func (r *Runtime) Conf(a, b int) float64 {
	d := r.cfg.confDim()
	return r.conf[r.cfg.confIdx(a)*d+r.cfg.confIdx(b)]
}

// SuspectStatics returns the folded static IDs whose learned confidence
// against stx clears the threshold, in ascending order — the exact set a
// begin-time linear scan tests every running transaction's static ID
// against. The returned slice aliases an internal buffer valid until the
// next call.
//
//bfgts:allocfree
func (r *Runtime) SuspectStatics(stx int) []uint64 {
	d := r.cfg.confDim()
	base := r.cfg.confIdx(stx) * d
	r.suspectBuf = r.suspectBuf[:0]
	for k := 0; k < d; k++ {
		if r.conf[base+k] > r.cfg.ConfThreshold {
			r.suspectBuf = append(r.suspectBuf, uint64(k))
		}
	}
	return r.suspectBuf
}

func (r *Runtime) addConf(a, b int, delta float64) {
	d := r.cfg.confDim()
	i := r.cfg.confIdx(a)*d + r.cfg.confIdx(b)
	v := r.conf[i] + delta
	if v < 0 {
		v = 0
	} else if v > 1 {
		v = 1
	}
	r.conf[i] = v
	if delta >= 0 {
		r.met.confInc.Inc()
	} else {
		r.met.confDec.Inc()
	}
}

// MeanConf returns the mean confidence across the whole table — the
// phase-dynamics signal the time-series sampler records (high mean =
// serialized phase, low mean = optimistic phase).
func (r *Runtime) MeanConf() float64 {
	if len(r.conf) == 0 {
		return 0
	}
	var sum float64
	for _, v := range r.conf {
		sum += v
	}
	return sum / float64(len(r.conf))
}

// Similarity returns the similarity EWMA of a dynamic transaction.
func (r *Runtime) Similarity(dtx int) float64 { return r.stats[r.dtxSlot(dtx)].sim }

// AvgSize returns the historical average read/write-set size of a dynamic
// transaction, in cache lines.
func (r *Runtime) AvgSize(dtx int) float64 { return r.stats[r.dtxSlot(dtx)].avgSize }

// WaitingOn returns the dTxID this transaction last serialized behind, or
// NoTx.
func (r *Runtime) WaitingOn(dtx int) int { return r.stats[r.dtxSlot(dtx)].waitingOn }

// ConfidenceTableBytes reports the memory footprint of the confidence
// table at one byte per entry, as the paper sizes it ("a maximum size of
// 800 bytes for the benchmarks tested" — per-CPU copies not included).
func (r *Runtime) ConfidenceTableBytes() int {
	d := r.cfg.confDim()
	return d * d
}

// fresh returns spare signature i emptied, carving one from the slab when
// the last commit of its slot displaced none.
func (r *Runtime) fresh(i int) bloom.Signature {
	s := r.spare[i]
	switch {
	case s != nil:
		s.Reset()
	case r.cfg.Perfect:
		s = r.slab.ExactSet()
	default:
		s = r.slab.Filter(r.cfg.BloomBits, r.cfg.BloomHashes)
	}
	return s
}

func (r *Runtime) String() string {
	return fmt.Sprintf("bfgts.Runtime(M=%d, N=%d, bloom=%db, thresh=%.2f)",
		r.cfg.NumStatic, r.cfg.NumThreads, r.cfg.BloomBits, r.cfg.ConfThreshold)
}
