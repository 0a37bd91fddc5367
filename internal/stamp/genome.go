package stamp

import "repro/internal/workload"

// Genome models STAMP's genome assembler: a segment-deduplication phase
// over a shared hash set, a matching phase that is read-mostly, and two
// chain-building phases that contend on a small chain-header structure.
//
// Observable structure targeted (Table 1): four static transactions;
// tx0 conflicts only with itself (hash-bucket collisions), tx1 is
// effectively conflict-free, tx2 conflicts with tx2 and tx3, tx3 with tx2.
// Similarities ~0.12 / 0.25 / 0.65 / 0.74: the dedup inserts land on a new
// bucket each time (low similarity), while the chain phases keep
// re-touching the chain header block (high similarity). Under plain
// backoff the dedup phase's bucket collisions at 64 threads produce the
// ~60% contention of Table 4; a scheduler that serializes the right pairs
// removes almost all of it.
type Genome struct {
	totalTxs int

	buckets  workload.Region // hash set buckets (dedup phase)
	segments workload.Region // read-only segment pool
	chainHdr workload.Region // hot chain-header block
	chain    workload.Region // chain cells
	scratch  workload.Region // per-thread private results

	nBuckets   int
	hotBuckets int // a small popular subset, the source of collisions
}

// NewGenome returns the genome factory at its default scale.
func NewGenome() workload.Factory {
	return workload.NewFactory("genome", 20000, func(total int) workload.Workload {
		sp := workload.NewSpace()
		return &Genome{
			totalTxs:   total,
			buckets:    sp.Alloc("buckets", 512),
			segments:   sp.Alloc("segments", 8192),
			chainHdr:   sp.Alloc("chainHdr", 12),
			chain:      sp.Alloc("chain", 2048),
			scratch:    sp.Alloc("scratch", 4096),
			nBuckets:   512,
			hotBuckets: 16, // width of the popular-segment window
		}
	})
}

// Name implements workload.Workload.
func (g *Genome) Name() string { return "genome" }

// NumStatic implements workload.Workload.
func (g *Genome) NumStatic() int { return 4 }

// NewProgram implements workload.Workload. Phases run in sequence within
// each thread: 40% dedup inserts, 25% matching, 20% chain links, 15% chain
// merges — roughly genome's phase weights.
func (g *Genome) NewProgram(tid, nThreads int, seed uint64) workload.Program {
	count := share(g.totalTxs, tid, nThreads)
	n0 := count * 40 / 100
	n1 := count * 25 / 100
	n2 := count * 20 / 100
	gen := func(b *builder, tid, i int, rng *workload.RNG) (int64, *workload.TxDesc) {
		switch {
		case i < n0:
			return 1500, g.dedupInsert(b, tid, i, rng)
		case i < n0+n1:
			return 1500, g.match(b, tid, rng)
		case i < n0+n1+n2:
			return 1000, g.chainLink(b, tid, rng)
		default:
			return 1000, g.chainMerge(b, tid, rng)
		}
	}
	return newProgram(gen, tid, seed, count)
}

// dedupInsert (tx0): probe the hash bucket of a segment and claim it.
// Segments arrive with heavy duplication and in roughly input order, so at
// any instant the popular segments form a sliding window that several
// threads hit simultaneously: concurrent inserts collide often (Table 4's
// high backoff contention), but the window keeps moving, so consecutive
// inserts by one thread share almost nothing (similarity ~0.1) and the
// conflicts are TRANSIENT — the case similarity-guided decay exists for.
func (g *Genome) dedupInsert(b *builder, tid, i int, rng *workload.RNG) *workload.TxDesc {
	window := (i / 8 * 16) % g.nBuckets
	bucket := (window + rng.Zipf(g.hotBuckets, 3.0)) % g.nBuckets
	seg := rng.Intn(g.segments.NumLines - 2)
	return b.tx(0, 520).
		read(g.buckets.Line(bucket)).
		readSpan(g.segments, seg, 2).
		write(g.buckets.Line(bucket)). // upgrade: claim the bucket
		build()
}

// match (tx1): scan segments against a private scratch area — read-mostly,
// conflict-free, modest similarity from re-reading the thread's scratch.
func (g *Genome) match(b *builder, tid int, rng *workload.RNG) *workload.TxDesc {
	b.tx(1, 420)
	b.readSpan(g.segments, rng.Intn(g.segments.NumLines-8), 6)
	// One line of the thread's scratch recurs (similarity ~0.2).
	own := tid * 64
	b.read(g.scratch.Line(own))
	b.write(g.scratch.Line(own + 1 + rng.Intn(40)))
	return b.build()
}

// chainLink (tx2): extend a chain under the shared chain header. The
// header block recurs every execution (high similarity) and is also
// touched by chainMerge, giving the tx2–tx3 conflict edge.
func (g *Genome) chainLink(b *builder, tid int, rng *workload.RNG) *workload.TxDesc {
	// Header lines 8+ are read-only metadata (the dedup phase reads line
	// 11); chain transactions only write the mutable prefix.
	hdr := rng.Intn(3)
	cell := rng.Intn(g.chain.NumLines)
	return b.tx(2, 300).
		readSpan(g.chainHdr, 0, 3). // hot header prefix
		read(g.chain.Line(cell)).
		write(g.chainHdr.Line(hdr)). // upgrade on a header line
		write(g.chain.Line(cell)).
		build()
}

// chainMerge (tx3): merge two chains — a larger header footprint with two
// cell writes; highest similarity of the benchmark.
func (g *Genome) chainMerge(b *builder, tid int, rng *workload.RNG) *workload.TxDesc {
	cell := rng.Intn(g.chain.NumLines - 4)
	return b.tx(3, 380).
		readSpan(g.chainHdr, 0, 4).
		readSpan(g.chain, cell, 2).
		write(g.chainHdr.Line(rng.Intn(3))).
		write(g.chain.Line(cell)).
		build()
}
