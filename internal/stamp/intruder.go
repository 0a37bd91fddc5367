package stamp

import "repro/internal/workload"

// Intruder models STAMP's network-intrusion detector: packet capture
// dequeues from one shared FIFO, fragments are reassembled in a hash map
// of flows, and completed flows are pushed to a detection queue.
//
// Observable structure targeted (Table 1): three static transactions;
// tx0 (dequeue) conflicts with itself on the queue head, tx1 (reassembly)
// conflicts with tx1 and tx2 on flow buckets, tx2 (detect-enqueue) with
// tx1 and tx2 on the tail and buckets. Similarities ~0.67 / 0.40 / 0.66:
// the queue-cursor blocks recur every execution, flow buckets only
// sometimes. The hot cursors at 64 threads produce Table 4's ~70% backoff
// contention; this is the benchmark where BFGTS-HW posts its largest win
// over PTS (1.7x) because scheduling runs continuously.
type Intruder struct {
	totalTxs int

	inQ    workload.Region // input FIFO cursor block + slots
	flows  workload.Region // reassembly hash buckets
	outQ   workload.Region // detection FIFO cursor block + slots
	nFlows int

	// Queue cursors advance only when dequeues/enqueues commit; the two
	// commit side effects are bound once.
	head, tail           int
	onDequeue, onEnqueue func()
}

// NewIntruder returns the intruder factory at its default scale.
func NewIntruder() workload.Factory {
	return workload.NewFactory("intruder", 24000, func(total int) workload.Workload {
		sp := workload.NewSpace()
		in := &Intruder{
			totalTxs: total,
			inQ:      sp.Alloc("inQ", 1024),
			flows:    sp.Alloc("flows", 96),
			outQ:     sp.Alloc("outQ", 1024),
			nFlows:   16,
		}
		in.onDequeue = func() { in.head++ }
		in.onEnqueue = func() { in.tail++ }
		return in
	})
}

// Name implements workload.Workload.
func (in *Intruder) Name() string { return "intruder" }

// NumStatic implements workload.Workload.
func (in *Intruder) NumStatic() int { return 3 }

// NewProgram implements workload.Workload: the pipeline rhythm is dequeue,
// reassemble, reassemble, detect.
func (in *Intruder) NewProgram(tid, nThreads int, seed uint64) workload.Program {
	count := share(in.totalTxs, tid, nThreads)
	gen := func(b *builder, tid, i int, rng *workload.RNG) (int64, *workload.TxDesc) {
		switch i % 4 {
		case 0:
			return 700, in.dequeue(b, rng)
		case 3:
			return 700, in.detect(b, rng)
		default:
			return 700, in.reassemble(b, rng)
		}
	}
	return newProgram(gen, tid, seed, count)
}

// dequeue (tx0): read the cursor block (3 hot lines), read the packet
// slot, advance the head (upgrade on the cursor). Every execution touches
// the same cursor block — similarity ~0.67 — and every concurrent dequeue
// conflicts on it.
func (in *Intruder) dequeue(b *builder, rng *workload.RNG) *workload.TxDesc {
	h := in.head
	return b.tx(0, 420).
		readSpan(in.inQ, 0, 3).        // head, len, stats
		read(in.inQ.Line(4 + h%1000)). // packet slot
		write(in.inQ.Line(0)).         // advance head (upgrade)
		onCommit(in.onDequeue).
		build()
}

// reassemble (tx1): read-modify-write a flow bucket (3 lines). Flows are
// Zipf-popular, so buckets recur sometimes (similarity ~0.4) and
// concurrent reassemblies collide on hot flows.
func (in *Intruder) reassemble(b *builder, rng *workload.RNG) *workload.TxDesc {
	f := rng.Zipf(in.nFlows, 1.8) * 3
	b.tx(1, 420)
	b.readSpan(in.flows, f, 3)
	b.read(in.flows.Line(90 + rng.Intn(4))) // fragment-pool header, recurs
	b.write(in.flows.Line(f))
	b.write(in.flows.Line(f + 1))
	return b.build()
}

// detect (tx2): read a flow bucket, push the verdict onto the detection
// queue (cursor upgrade). The recurring cursor block gives similarity
// ~0.66 and the bucket read gives the tx1–tx2 edge.
func (in *Intruder) detect(b *builder, rng *workload.RNG) *workload.TxDesc {
	f := rng.Zipf(in.nFlows, 1.8) * 3
	t := in.tail
	return b.tx(2, 300).
		readSpan(in.outQ, 0, 2).         // tail, len
		read(in.flows.Line(f)).          // flow verdict
		write(in.outQ.Line(0)).          // advance tail (upgrade)
		write(in.outQ.Line(3 + t%1000)). // slot
		onCommit(in.onEnqueue).
		build()
}
