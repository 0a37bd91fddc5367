// Package stamp contains synthetic reconstructions of the seven STAMP
// benchmarks the paper evaluates (Table 3): delaunay, genome, kmeans,
// vacation, intruder, ssca2 and labyrinth.
//
// A contention manager can only observe a benchmark through its
// transactions' read/write sets, conflict pattern, sizes and arrival
// rhythm, so each kernel here is engineered to reproduce the observable
// structure the paper reports for its namesake:
//
//   - the conflict-graph shape of Table 1 (which static transactions
//     conflict with which),
//   - the per-static-transaction similarity of Table 1 (how much of each
//     transaction's footprint repeats across executions),
//   - the baseline contention level of Table 4 (how often transactions
//     abort under a plain backoff manager), and
//   - the transaction-size regime (Ssca2's few-line transactions through
//     Labyrinth's hundred-line grid reservations).
//
// Every kernel is deterministic given its seed, splits a fixed total
// transaction count across threads, and follows the two rules of the
// workload.Program contract (descriptor lifetime, generator state).
package stamp

import "repro/internal/workload"

// genFunc fabricates the i-th transaction of a thread into the program's
// builder and returns the descriptor the builder hands out.
type genFunc func(b *builder, tid, i int, rng *workload.RNG) (pre int64, desc *workload.TxDesc)

// program is the shared thread-program implementation: count transactions
// from a generator. It owns the one builder — descriptor and access array
// — that every transaction of the thread is fabricated in, so a steady-
// state Next allocates nothing; the descriptor it returns is valid until
// the next Next (the workload.Program contract).
type program struct {
	gen   genFunc
	tid   int
	rng   *workload.RNG
	count int
	i     int
	b     builder
}

func newProgram(gen genFunc, tid int, seed uint64, count int) *program {
	p := &program{gen: gen, tid: tid, rng: workload.NewRNG(seed), count: count}
	p.b.desc.Accesses = make([]workload.Access, 0, 16) // all but Labyrinth's routes fit
	return p
}

//bfgts:allocfree
func (p *program) Next() (int64, *workload.TxDesc, bool) {
	if p.i >= p.count {
		return 0, nil, false
	}
	pre, desc := p.gen(&p.b, p.tid, p.i, p.rng)
	p.i++
	return pre, desc, true
}

// share splits total work across threads: thread tid of n gets the i-th
// slice, with remainders spread over the first threads.
func share(total, tid, n int) int {
	base := total / n
	if tid < total%n {
		base++
	}
	return base
}

// builder accumulates a transaction's accesses in read-then-write order
// into a descriptor (and its access array) that it reuses from one
// transaction to the next.
type builder struct {
	desc workload.TxDesc
}

// tx starts the next transaction, recycling the previous one's storage.
//
//bfgts:allocfree
func (b *builder) tx(stx int, body int64) *builder {
	b.desc.STx = stx
	b.desc.BodyCycles = body
	b.desc.OnCommit = nil
	b.desc.Accesses = b.desc.Accesses[:0]
	return b
}

// read appends a read of addr unless the transaction already touched the
// line (footprints are at most ~100 lines, so a scan beats a map).
//
//bfgts:allocfree
func (b *builder) read(addr uint64) *builder {
	for i := range b.desc.Accesses {
		if b.desc.Accesses[i].Addr == addr {
			return b
		}
	}
	b.desc.Accesses = append(b.desc.Accesses, workload.Access{Addr: addr})
	return b
}

// write appends a write of addr. If the line was read earlier this is the
// upgrade that makes concurrent conflicting transactions deadlock-prone,
// exactly as read-modify-write critical sections behave on LogTM.
//
//bfgts:allocfree
func (b *builder) write(addr uint64) *builder {
	b.desc.Accesses = append(b.desc.Accesses, workload.Access{Addr: addr, Write: true})
	return b
}

// readSpan reads n consecutive lines of a region starting at line base.
//
//bfgts:allocfree
func (b *builder) readSpan(r workload.Region, base, n int) *builder {
	for j := 0; j < n; j++ {
		b.read(r.Line(base + j))
	}
	return b
}

// build finalizes the descriptor.
//
//bfgts:allocfree
func (b *builder) build() *workload.TxDesc { return &b.desc }

// onCommit attaches a side-effect callback. Kernels bind each callback
// once per workload instance; a closure per transaction would allocate.
//
//bfgts:allocfree
func (b *builder) onCommit(fn func()) *builder {
	b.desc.OnCommit = fn
	return b
}

// All returns factories for the full STAMP suite at their default scales,
// in the paper's presentation order.
func All() []workload.Factory {
	return []workload.Factory{
		NewDelaunay(),
		NewGenome(),
		NewKmeans(),
		NewVacation(),
		NewIntruder(),
		NewSsca2(),
		NewLabyrinth(),
	}
}

// ByName returns the factory for a benchmark name, or false.
func ByName(name string) (workload.Factory, bool) {
	for _, f := range All() {
		if f.Name() == name {
			return f, true
		}
	}
	return workload.Factory{}, false
}
