package stamp

import "repro/internal/workload"

// Kmeans models STAMP's k-means clusterer: an assignment step that reads
// cluster centers and tags a point, a center-update step that accumulates
// partial sums into one of a small number of centers, and a global-delta
// update on a hot counter.
//
// Observable structure targeted (Table 1): three static transactions;
// tx0 conflicts (rarely) with itself on shared point lines, tx1 conflicts
// with tx1 and tx2 on center accumulators, tx2 with tx1. Similarities
// ~0.38 / 0.67 / 0.68 — centers are few, so the update steps keep
// revisiting the same lines. Contention under backoff is moderate (~20%,
// Table 4) and ATS handles it well (sparse-ish pattern), which is why
// kmeans is one of the benchmarks where scheduling overhead, not accuracy,
// decides the winner.
type Kmeans struct {
	totalTxs int

	points  workload.Region
	centers workload.Region // K centers × linesPerCenter
	delta   workload.Region // global convergence counter

	k              int
	linesPerCenter int
}

// NewKmeans returns the kmeans factory at its default scale.
func NewKmeans() workload.Factory {
	return workload.NewFactory("kmeans", 20000, func(total int) workload.Workload {
		sp := workload.NewSpace()
		return &Kmeans{
			totalTxs:       total,
			points:         sp.Alloc("points", 8192),
			centers:        sp.Alloc("centers", 5*3),
			delta:          sp.Alloc("delta", 1),
			k:              5,
			linesPerCenter: 3,
		}
	})
}

// Name implements workload.Workload.
func (k *Kmeans) Name() string { return "kmeans" }

// NumStatic implements workload.Workload.
func (k *Kmeans) NumStatic() int { return 3 }

// NewProgram implements workload.Workload: the per-iteration rhythm is
// assign, assign, update-center, and every eighth transaction a global
// delta update.
func (k *Kmeans) NewProgram(tid, nThreads int, seed uint64) workload.Program {
	count := share(k.totalTxs, tid, nThreads)
	gen := func(b *builder, tid, i int, rng *workload.RNG) (int64, *workload.TxDesc) {
		switch {
		case i%6 == 5:
			return 300, k.updateDelta(b, rng)
		case i%2 == 1:
			return 500, k.updateCenter(b, tid, rng)
		default:
			return 650, k.assign(b, tid, rng)
		}
	}
	return newProgram(gen, tid, seed, count)
}

// assign (tx0): read a random point and two candidate centers, write the
// point's membership back. Points are mostly private to a thread's stripe
// but stripes overlap slightly at the edges, giving rare tx0–tx0
// conflicts. Similarity ~0.38: center reads recur, point lines do not.
func (k *Kmeans) assign(b *builder, tid int, rng *workload.RNG) *workload.TxDesc {
	stripe := k.points.NumLines / 64
	base := (tid*stripe + rng.Intn(stripe+2)) % k.points.NumLines
	c := rng.Intn(k.k) * k.linesPerCenter
	b.tx(0, 500)
	b.read(k.points.Line(base))
	// The first center's head line is read on every assignment (the
	// distance-loop starting point): the similarity floor (~0.38).
	b.read(k.centers.Line(0))
	b.readSpan(k.centers, c, 2)
	b.write(k.points.Line(base)) // upgrade on the point line
	return b.build()
}

// updateCenter (tx1): read-modify-write one center's accumulator lines.
// Threads have an affinity center (their points cluster), so consecutive
// updates usually hit the same lines (similarity ~0.67) while concurrent
// updates from threads sharing an affinity collide.
func (k *Kmeans) updateCenter(b *builder, tid int, rng *workload.RNG) *workload.TxDesc {
	c := (tid % k.k) * k.linesPerCenter
	if rng.Float64() > 0.80 {
		c = rng.Intn(k.k) * k.linesPerCenter
	}
	b.tx(1, 260)
	b.readSpan(k.centers, c, k.linesPerCenter)
	b.write(k.centers.Line(c))
	b.write(k.centers.Line(c + 1))
	return b.build()
}

// updateDelta (tx2): read-modify-write the global convergence counter and
// one center line — the tx1–tx2 conflict edge of Table 1.
func (k *Kmeans) updateDelta(b *builder, rng *workload.RNG) *workload.TxDesc {
	c := rng.Zipf(k.k, 1.0) * k.linesPerCenter
	return b.tx(2, 120).
		read(k.delta.Line(0)).
		read(k.centers.Line(c)).
		write(k.delta.Line(0)).
		build()
}
