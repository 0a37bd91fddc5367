package stamp

import "repro/internal/workload"

// Ssca2 models STAMP's SSCA2 graph kernel: massive numbers of tiny
// transactions appending edges to per-partition adjacency lists. The graph
// is partitioned so well that conflicts are nearly nonexistent (Table 4:
// 0.1% for every manager) — the benchmark exists to punish scheduling
// overhead, and plain Backoff wins it in the paper.
//
// Observable structure (Table 1): tiny transactions with high similarity
// (~0.9 for the append cursors that recur every execution) and almost no
// conflicts. Cross-partition edges are rare (0.3%) and are the only
// conflict source.
type Ssca2 struct {
	totalTxs int

	adj    workload.Region // adjacency storage, striped per thread
	meta   workload.Region // read-only graph metadata
	cursor workload.Region // per-thread append cursors
}

// NewSsca2 returns the ssca2 factory at its default scale.
func NewSsca2() workload.Factory {
	return workload.NewFactory("ssca2", 30000, func(total int) workload.Workload {
		sp := workload.NewSpace()
		return &Ssca2{
			totalTxs: total,
			adj:      sp.Alloc("adj", 16384),
			meta:     sp.Alloc("meta", 256),
			cursor:   sp.Alloc("cursor", 64),
		}
	})
}

// Name implements workload.Workload.
func (s *Ssca2) Name() string { return "ssca2" }

// NumStatic implements workload.Workload.
func (s *Ssca2) NumStatic() int { return 3 }

// NewProgram implements workload.Workload.
func (s *Ssca2) NewProgram(tid, nThreads int, seed uint64) workload.Program {
	count := share(s.totalTxs, tid, nThreads)
	gen := func(b *builder, tid, i int, rng *workload.RNG) (int64, *workload.TxDesc) {
		switch i % 3 {
		case 0:
			return 350, s.addEdge(b, tid, rng)
		case 1:
			return 300, s.addWeight(b, tid, rng)
		default:
			return 400, s.scanVertex(b, tid, rng)
		}
	}
	return newProgram(gen, tid, seed, count)
}

// stripeBase returns the thread's adjacency stripe origin; rare
// cross-partition edges target a neighbor's stripe.
func (s *Ssca2) stripeBase(tid int, rng *workload.RNG) int {
	stripe := s.adj.NumLines / 64
	owner := tid
	if rng.Float64() < 0.003 { // the rare cross-partition edge
		owner = rng.Intn(64)
	}
	return (owner % 64) * stripe
}

// addEdge (tx0): bump the thread's cursor and write one adjacency line —
// two lines, both recurring (cursor always, stripe head usually).
func (s *Ssca2) addEdge(b *builder, tid int, rng *workload.RNG) *workload.TxDesc {
	base := s.stripeBase(tid, rng)
	cur := s.cursor.Line(tid % s.cursor.NumLines)
	return b.tx(0, 60).
		read(cur).
		write(cur).
		write(s.adj.Line(base + zeroMostly(rng))). // appends cluster at the stripe head
		build()
}

// addWeight (tx1): update an edge weight near the stripe head — same
// recurring footprint shape as tx0.
func (s *Ssca2) addWeight(b *builder, tid int, rng *workload.RNG) *workload.TxDesc {
	base := s.stripeBase(tid, rng)
	addr := s.adj.Line(base + zeroMostly(rng))
	return b.tx(1, 50).
		read(s.cursor.Line(tid % s.cursor.NumLines)).
		read(addr).
		write(addr).
		build()
}

// scanVertex (tx2): read graph metadata and a few stripe lines, write one
// — a slightly larger, less repetitive footprint (similarity ~0.57).
func (s *Ssca2) scanVertex(b *builder, tid int, rng *workload.RNG) *workload.TxDesc {
	base := s.stripeBase(tid, rng)
	b.tx(2, 90)
	b.read(s.meta.Line(rng.Intn(s.meta.NumLines))) // fresh metadata line
	b.readSpan(s.adj, base, 2)                     // recurring stripe head
	b.write(s.adj.Line(base + 2 + rng.Intn(40)))   // fresh scan target
	return b.build()
}

// zeroMostly returns 0 with probability 0.85 and 1 otherwise — adjacency
// appends land on the stripe-head line almost every time.
func zeroMostly(rng *workload.RNG) int {
	if rng.Float64() < 0.85 {
		return 0
	}
	return 1
}
