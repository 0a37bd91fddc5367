package stamp

import "repro/internal/workload"

// Vacation models STAMP's travel-reservation system: one static
// transaction that walks randomly through large index trees (cars, rooms,
// flights) and writes a couple of reservation records.
//
// Observable structure targeted (Table 1): a single static transaction
// conflicting only with itself, rarely (Table 4: ~10% under backoff, a few
// percent scheduled); similarity ~0.26, because most of the footprint is a
// fresh random tree walk while a small customer-manager block recurs.
// Vacation is overhead-sensitive: the paper's BFGTS-HW loses to ATS here
// until the hybrid gets the Bloom work off the common path.
type Vacation struct {
	totalTxs int

	trees   workload.Region // index structures, read-mostly
	records workload.Region // reservation rows
	manager workload.Region // customer/manager block, recurs per thread
	treeTop int             // shared top levels of the trees (recur)
}

// NewVacation returns the vacation factory at its default scale.
func NewVacation() workload.Factory {
	return workload.NewFactory("vacation", 12000, func(total int) workload.Workload {
		sp := workload.NewSpace()
		return &Vacation{
			totalTxs: total,
			trees:    sp.Alloc("trees", 16384),
			records:  sp.Alloc("records", 512),
			manager:  sp.Alloc("manager", 64),
			treeTop:  3,
		}
	})
}

// Name implements workload.Workload.
func (v *Vacation) Name() string { return "vacation" }

// NumStatic implements workload.Workload.
func (v *Vacation) NumStatic() int { return 1 }

// NewProgram implements workload.Workload.
func (v *Vacation) NewProgram(tid, nThreads int, seed uint64) workload.Program {
	count := share(v.totalTxs, tid, nThreads)
	gen := func(b *builder, tid, i int, rng *workload.RNG) (int64, *workload.TxDesc) {
		return 1400, v.reserve(b, tid, rng)
	}
	return newProgram(gen, tid, seed, count)
}

// reserve (tx0): walk the shared tree tops, descend into random leaves,
// then write two reservation rows. Rows are drawn from the whole record
// table, so two concurrent reservations occasionally collide.
func (v *Vacation) reserve(b *builder, tid int, rng *workload.RNG) *workload.TxDesc {
	b.tx(0, 900)
	// Tree tops recur across executions: the similarity floor.
	b.readSpan(v.trees, 0, v.treeTop)
	// Random descent: 8 fresh leaf lines.
	for j := 0; j < 8; j++ {
		b.read(v.trees.Line(v.treeTop + rng.Intn(v.trees.NumLines-v.treeTop)))
	}
	// The thread's manager line recurs.
	b.read(v.manager.Line(tid % v.manager.NumLines))
	// Two reservation rows, read then written (upgrade). Popular trips
	// make some rows hot — the source of vacation's ~10% backoff
	// contention.
	for j := 0; j < 2; j++ {
		row := rng.Zipf(v.records.NumLines, 2.5)
		b.read(v.records.Line(row))
		b.write(v.records.Line(row))
	}
	return b.build()
}
