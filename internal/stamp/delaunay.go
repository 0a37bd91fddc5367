package stamp

import "repro/internal/workload"

// Delaunay models the transactional Delaunay mesh refinement benchmark
// (Kulkarni et al.): cavity refinements over a shared mesh with a hot
// boundary structure and a shared worklist.
//
// Observable structure targeted (Table 1): four static transactions whose
// conflict graph is DENSE — every transaction conflicts with nearly every
// other, because all of them touch the mesh and the boundary block. The
// similarity spread is wide: tx3 (worklist management, ~0.90) and tx0
// (boundary-anchored refinement, ~0.64) repeat their footprints, tx2
// (edge flips, ~0.56) partially, and tx1 (random point insertion, ~0.04)
// lands somewhere new every time. This is the benchmark that motivates
// similarity-guided scheduling: treating tx1's transient conflicts like
// tx3's persistent ones (as PTS does) over-serializes; ignoring them (as
// backoff does) gives Table 4's 73.5% contention. ATS collapses here
// (paper: BFGTS up to 4.6x over ATS) because the dense pattern pushes
// every transaction onto its single queue.
type Delaunay struct {
	totalTxs int

	mesh     workload.Region // triangle/element store
	boundary workload.Region // hot boundary/encroachment block
	worklist workload.Region // bad-triangle queue cursors

	cavity int // cavity footprint in lines
	popped int
	onPop  func() // popWork's commit side effect, bound once
}

// NewDelaunay returns the delaunay factory at its default scale.
func NewDelaunay() workload.Factory {
	return workload.NewFactory("delaunay", 15000, func(total int) workload.Workload {
		sp := workload.NewSpace()
		d := &Delaunay{
			totalTxs: total,
			mesh:     sp.Alloc("mesh", 256),
			boundary: sp.Alloc("boundary", 16),
			worklist: sp.Alloc("worklist", 6),
			cavity:   8,
		}
		d.onPop = func() { d.popped++ }
		return d
	})
}

// Name implements workload.Workload.
func (d *Delaunay) Name() string { return "delaunay" }

// NumStatic implements workload.Workload.
func (d *Delaunay) NumStatic() int { return 4 }

// NewProgram implements workload.Workload: the refinement loop is
// pop-work, refine, insert, flip in a 1:2:1:2 rhythm.
func (d *Delaunay) NewProgram(tid, nThreads int, seed uint64) workload.Program {
	count := share(d.totalTxs, tid, nThreads)
	gen := func(b *builder, tid, i int, rng *workload.RNG) (int64, *workload.TxDesc) {
		switch i % 6 {
		case 0:
			return 500, d.popWork(b, rng)
		case 1, 4:
			return 350, d.refine(b, rng)
		case 2:
			return 300, d.insert(b, rng)
		default:
			return 350, d.flip(b, rng)
		}
	}
	return newProgram(gen, tid, seed, count)
}

// refine (tx0): expand a cavity anchored near the boundary — Zipf-skewed
// placement keeps revisiting popular regions (similarity ~0.64) and makes
// concurrent cavities overlap.
func (d *Delaunay) refine(b *builder, rng *workload.RNG) *workload.TxDesc {
	base := rng.Zipf(d.mesh.NumLines-d.cavity, 4.0)
	b.tx(0, 1400)
	b.readSpan(d.boundary, 0, 8) // recurring anchor: the similarity floor
	b.readSpan(d.mesh, base, d.cavity)
	for j := 0; j < d.cavity; j++ {
		b.write(d.mesh.Line(base + j)) // retriangulate: upgrades
	}
	b.write(d.boundary.Line(rng.Intn(3)))
	return b.build()
}

// insert (tx1): insert a point at a uniformly random mesh location —
// fresh footprint every time (similarity ~0.04) but still through the
// shared mesh and boundary, so it conflicts with everything transiently.
func (d *Delaunay) insert(b *builder, rng *workload.RNG) *workload.TxDesc {
	base := rng.Intn(d.mesh.NumLines - 6)
	b.tx(1, 1000)
	b.readSpan(d.mesh, base, 6)
	b.read(d.boundary.Line(rng.Intn(d.boundary.NumLines)))
	b.write(d.mesh.Line(base + 1))
	b.write(d.mesh.Line(base + 3))
	// Occasionally the inserted point encroaches the boundary or the
	// worklist — the edges to tx0/tx2/tx3 in Table 1's dense graph.
	if rng.Float64() < 0.25 {
		b.write(d.boundary.Line(3 + rng.Intn(5)))
	}
	if rng.Float64() < 0.10 {
		b.read(d.worklist.Line(0))
		b.write(d.worklist.Line(0))
	}
	return b.build()
}

// flip (tx2): flip edges in a moderately popular region — between tx0 and
// tx1 in both similarity (~0.56) and footprint.
func (d *Delaunay) flip(b *builder, rng *workload.RNG) *workload.TxDesc {
	base := rng.Zipf(d.mesh.NumLines-4, 2.2)
	b.tx(2, 800)
	b.readSpan(d.boundary, 0, 4)
	b.readSpan(d.mesh, base, 4)
	b.write(d.mesh.Line(base))
	b.write(d.mesh.Line(base + 2))
	if rng.Float64() < 0.15 {
		b.write(d.boundary.Line(3 + rng.Intn(5))) // edge to tx1
	}
	if rng.Float64() < 0.10 {
		b.read(d.worklist.Line(0))
		b.write(d.worklist.Line(0)) // requeue a bad triangle: edge to tx3
	}
	return b.build()
}

// popWork (tx3): pop the next bad triangle — the worklist cursors recur
// every single execution (similarity ~0.90) and every concurrent pop
// conflicts.
func (d *Delaunay) popWork(b *builder, rng *workload.RNG) *workload.TxDesc {
	q := d.popped
	return b.tx(3, 350).
		readSpan(d.worklist, 0, 3).
		write(d.worklist.Line(q % 2)).
		onCommit(d.onPop).
		build()
}
