package workload

// Wide is the scale-out benchmark behind the sharded-simulation
// experiments: a partition-friendly OLTP-style kernel whose contention is
// local to a pair of adjacent cores by construction, so it remains
// meaningful from 16 to 1000+ cores. Cores 2k and 2k+1 share a contention
// arena (the concatenation of their private regions) that the update
// transaction read-modify-writes — threads on one core of the pair run
// concurrently with the other core's, so real conflicts arise — the lookup
// transaction reads only its own core's lines, and all threads occasionally
// read a global read-only lookup region. That layout satisfies the Sharder
// contract exactly: conflicts never cross a pair boundary, ShardPlan
// refuses any partition that would split a pair, and the only cross-shard
// traffic is read-read on the shared region.
type Wide struct {
	cores    int
	tpc      int
	totalTxs int
	coreBase uint64 // base address of core 0's private region
	shared   Region
}

const (
	wideLinesPerCore = 64  // private lines per core (half of a pair's arena)
	wideHotLines     = 16  // hot subset of the arena that updates hammer
	wideSharedLines  = 256 // global read-only lookup region
	wideUpdatePct    = 30  // % of transactions that are updates (stx 0)
)

// NewWide lays out the address space for a machine of the given geometry.
// The private regions are allocated first and the shared region last, so
// every shared line sits above every private line — the single base
// comparison the simulator's cross-shard probe check needs.
func NewWide(cores, threadsPerCore, totalTxs int) *Wide {
	sp := NewSpace()
	private := sp.Alloc("wide.core-private", wideLinesPerCore*cores)
	shared := sp.Alloc("wide.shared-lookup", wideSharedLines)
	return &Wide{
		cores:    cores,
		tpc:      threadsPerCore,
		totalTxs: totalTxs,
		coreBase: private.Base,
		shared:   shared,
	}
}

// Name implements Workload.
func (w *Wide) Name() string { return "wide" }

// NumStatic implements Workload: stx 0 is the update, stx 1 the lookup.
func (w *Wide) NumStatic() int { return 2 }

// coreLine addresses line i of core c's private region.
func (w *Wide) coreLine(c, i int) uint64 {
	return w.coreBase + uint64(c*wideLinesPerCore+i)*LineBytes
}

// arena returns the base core and line count of core c's contention arena:
// the concatenated private regions of its pair (cores 2k and 2k+1). With an
// odd core count the last core pairs with itself.
func (w *Wide) arena(c int) (base, lines int) {
	base = c &^ 1
	lines = 2 * wideLinesPerCore
	if base+1 >= w.cores {
		lines = wideLinesPerCore
	}
	return base, lines
}

// NewProgram implements Workload. Thread state is fully private (no
// OnCommit callbacks, no shared generator), as the Sharder contract
// requires.
func (w *Wide) NewProgram(tid, nThreads int, seed uint64) Program {
	n := w.totalTxs / nThreads
	if tid < w.totalTxs%nThreads {
		n++
	}
	return &wideProgram{
		w:         w,
		rng:       NewRNG(seed),
		core:      tid % w.cores,
		remaining: n,
	}
}

// ShardPlan implements Sharder. Private lines belong to the shard covering
// their core; shared lines are assigned round-robin by line index so probe
// traffic spreads evenly across owners. Plans whose shards would split a
// core pair (odd cores-per-shard at shards > 1) are refused — conflicts
// cross core boundaries within a pair, so both cores must land in one
// shard; the simulator falls back to the sequential engine.
func (w *Wide) ShardPlan(shards, cores, threadsPerCore int) (ShardPlan, bool) {
	if shards < 1 || cores != w.cores || threadsPerCore != w.tpc || cores%shards != 0 {
		return ShardPlan{}, false
	}
	perShard := cores / shards
	if shards > 1 && perShard%2 != 0 {
		return ShardPlan{}, false
	}
	base := w.coreBase
	sharedBase := w.shared.Base
	return ShardPlan{
		SharedBase: sharedBase,
		OwnerShard: func(addr uint64) int {
			if addr >= sharedBase {
				line := int((addr - sharedBase) / LineBytes)
				return line % shards
			}
			c := int((addr - base) / (wideLinesPerCore * LineBytes))
			return c / perShard
		},
	}, true
}

type wideProgram struct {
	w         *Wide
	rng       *RNG
	core      int
	remaining int

	desc TxDesc
	acc  []Access
}

// SwapAccesses installs buf (its length ignored, its capacity kept) as the
// access buffer and returns the one the program held, like the STAMP
// kernels' programs.
func (p *wideProgram) SwapAccesses(buf []Access) []Access {
	old := p.acc
	p.acc = buf[:0]
	return old
}

// Next implements Program; the descriptor and access slice are reused
// between transactions, as the Program contract allows.
func (p *wideProgram) Next() (int64, *TxDesc, bool) {
	if p.remaining == 0 {
		return 0, nil, false
	}
	p.remaining--
	pre := 200 + p.rng.Int63n(200)
	p.acc = p.acc[:0]
	if p.rng.Intn(100) < wideUpdatePct {
		// Update: read-modify-write bursts inside the pair's contention
		// arena — threads on the pair's other core run concurrently, so
		// these conflict for real.
		p.desc.STx = 0
		p.desc.BodyCycles = 800
		base, lines := p.w.arena(p.core)
		for i := 0; i < 8; i++ {
			// Half the accesses hammer a small hot set at the arena's base
			// (concurrent updates from the pair's other core nearly always
			// overlap there); the rest spread over the full arena.
			n := lines
			if p.rng.Intn(2) == 0 {
				n = wideHotLines
			}
			l := p.rng.Intn(n)
			p.acc = append(p.acc, Access{
				Addr:  p.w.coreLine(base+l/wideLinesPerCore, l%wideLinesPerCore),
				Write: p.rng.Intn(2) == 0,
			})
		}
	} else {
		// Lookup: private reads plus two probes into the global read-only
		// region (the only accesses that ever cross a shard boundary).
		p.desc.STx = 1
		p.desc.BodyCycles = 320
		for i := 0; i < 6; i++ {
			p.acc = append(p.acc, Access{
				Addr: p.w.coreLine(p.core, p.rng.Intn(wideLinesPerCore)),
			})
		}
		for i := 0; i < 2; i++ {
			p.acc = append(p.acc, Access{
				Addr: p.w.shared.Line(p.rng.Intn(wideSharedLines)),
			})
		}
	}
	p.desc.Accesses = p.acc
	p.desc.OnCommit = nil
	return pre, &p.desc, true
}
