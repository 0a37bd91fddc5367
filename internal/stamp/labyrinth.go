package stamp

import "repro/internal/workload"

// Labyrinth models STAMP's maze router (with the paper's standard
// modification of performing the grid copy outside the transaction): each
// routing transaction validates a path through the shared grid and claims
// its cells; a small worklist transaction feeds the routers.
//
// Observable structure targeted (Table 1): two static transaction
// families with very high similarity (~0.86/0.90 for routing — the grid
// header and the worklist recur every execution) and one mid-similarity
// helper (~0.45). Transactions are enormous (approaching a hundred cache
// lines), so Bloom-filter similarity calculations amortize and the paper
// finds 8192-bit filters are finally worthwhile here (Figure 6).
// Contention under backoff is ~20% (paths cross), and ATS does well
// because the conflict pattern is not dense.
type Labyrinth struct {
	totalTxs int

	grid     workload.Region // routing grid cells
	header   workload.Region // grid geometry block, read every route
	worklist workload.Region // work queue cursors

	headerSpan int
	pathLen    int

	queued   int    // worklist cursor, advanced on commit
	onRefill func() // refill's commit side effect, bound once
}

// NewLabyrinth returns the labyrinth factory at its default scale. The
// transaction count is small because each transaction is enormous.
func NewLabyrinth() workload.Factory {
	return workload.NewFactory("labyrinth", 2700, func(total int) workload.Workload {
		sp := workload.NewSpace()
		l := &Labyrinth{
			totalTxs:   total,
			grid:       sp.Alloc("grid", 4096),
			header:     sp.Alloc("header", 80),
			worklist:   sp.Alloc("worklist", 8),
			headerSpan: 64,
			pathLen:    16,
		}
		l.onRefill = func() { l.queued++ }
		return l
	})
}

// Name implements workload.Workload.
func (l *Labyrinth) Name() string { return "labyrinth" }

// NumStatic implements workload.Workload.
func (l *Labyrinth) NumStatic() int { return 2 }

// NewProgram implements workload.Workload: three routes per worklist
// refill.
func (l *Labyrinth) NewProgram(tid, nThreads int, seed uint64) workload.Program {
	count := share(l.totalTxs, tid, nThreads)
	gen := func(b *builder, tid, i int, rng *workload.RNG) (int64, *workload.TxDesc) {
		if i%4 == 3 {
			return 2500, l.refill(b, rng)
		}
		return 5000, l.route(b, rng)
	}
	return newProgram(gen, tid, seed, count)
}

// route (tx0): read the whole grid header (recurs — the similarity
// anchor), read a path of grid cells, then claim the path (upgrades).
// Paths are random walks, so two concurrent routes cross with moderate
// probability.
func (l *Labyrinth) route(b *builder, rng *workload.RNG) *workload.TxDesc {
	b.tx(0, 22000)
	b.readSpan(l.header, 0, l.headerSpan)
	start := rng.Intn(l.grid.NumLines)
	stride := 1 + rng.Intn(2)
	for j := 0; j < l.pathLen; j++ {
		b.read(l.grid.Line(start + j*stride))
	}
	for j := 0; j < l.pathLen; j++ {
		b.write(l.grid.Line(start + j*stride)) // claim the path: the upgrade storm
	}
	return b.build()
}

// refill (tx1): pop work from the worklist cursors — small, hot, moderate
// similarity.
func (l *Labyrinth) refill(b *builder, rng *workload.RNG) *workload.TxDesc {
	q := l.queued
	return b.tx(1, 600).
		read(l.worklist.Line(4)).                     // queue stats block
		read(l.grid.Line(rng.Intn(l.grid.NumLines))). // peek the next source cell
		read(l.grid.Line(rng.Intn(l.grid.NumLines))). // and its sink
		write(l.worklist.Line(q % 2)).                // write-first cursor bump
		onCommit(l.onRefill).
		build()
}
