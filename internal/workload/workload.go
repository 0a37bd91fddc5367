// Package workload defines how benchmark programs present transactions to
// the simulator: a Workload fabricates per-thread Programs, each of which
// yields a stream of transaction descriptors (static ID, read/write sets
// as cache-line addresses, compute cycles) separated by non-transactional
// work. The STAMP-like kernels live in internal/stamp; this package holds
// the contract plus the deterministic PRNG and the address-space allocator
// they share.
package workload

// LineBytes is the cache-line size of the simulated machine (Table 2).
const LineBytes = 64

// TxDesc describes one dynamic transaction: the accesses it will perform
// (in order) and the compute it does between them. On abort the same
// descriptor is re-executed — the code and inputs have not changed — and
// the OnCommit side effect runs exactly once, when the transaction finally
// commits.
type TxDesc struct {
	// STx is the static transaction ID (which atomic block in the code).
	STx int
	// Accesses is the ordered list of line accesses.
	Accesses []Access
	// BodyCycles is the total compute inside the transaction, distributed
	// evenly between accesses by the runner.
	BodyCycles int64
	// OnCommit applies the transaction's side effects to the workload's
	// generator state. May be nil.
	OnCommit func()
}

// Access is one transactional memory reference.
type Access struct {
	Addr  uint64 // cache-line address (LineBytes-aligned byte address)
	Write bool
}

// Lines counts distinct lines touched by the descriptor.
func (d *TxDesc) Lines() int {
	n := 0
	for i, a := range d.Accesses {
		n++
		for _, prev := range d.Accesses[:i] {
			if prev.Addr == a.Addr {
				n--
				break
			}
		}
	}
	return n
}

// Program is one thread's instruction stream: a sequence of (non-
// transactional compute, transaction) pairs.
//
// Two rules bind every implementation and every consumer:
//
//   - Descriptor lifetime. The *TxDesc that Next returns — its fields, its
//     Accesses backing array and its OnCommit — is valid until the next
//     Next call on the same Program, and no longer: programs fabricate
//     every transaction in one reused descriptor so that the supply
//     allocates nothing. A consumer finishes with a descriptor (commits
//     it, including calling OnCommit) before it fetches the next one, and
//     copies whatever it wants to keep beyond that. Descriptors of
//     different Programs are independent.
//   - Generator state. Programs of one workload instance may share
//     generator state (queue cursors, table occupancy) — the simulator is
//     single-threaded — and Next may read it, but all mutation of it
//     happens inside TxDesc.OnCommit callbacks. Aborted attempts therefore
//     replay an identical descriptor, and a stream depends only on the
//     order in which transactions are fetched and committed.
type Program interface {
	// Next returns the next transaction and the non-transactional compute
	// cycles preceding it. ok is false when the thread has finished its
	// share of the work; the other return values are then meaningless.
	Next() (pre int64, tx *TxDesc, ok bool)
}

// Workload fabricates the benchmark.
type Workload interface {
	// Name is the benchmark name (lower case, e.g. "genome").
	Name() string
	// NumStatic is the number of static transactions the code declares.
	NumStatic() int
	// NewProgram builds thread tid's instruction stream. The total work is
	// split across nThreads threads; seed makes runs reproducible. See
	// Program for the rules on shared generator state.
	NewProgram(tid, nThreads int, seed uint64) Program
}

// Factory builds a fresh workload instance scaled to n total transactions.
// Every run gets a fresh instance so generator state never leaks between
// experiments.
type Factory struct {
	New  func(totalTxs int) Workload
	Txs  int // default total transactions for full experiments
	name string
}

// NewFactory wraps a constructor with its default scale.
func NewFactory(name string, defaultTxs int, newFn func(totalTxs int) Workload) Factory {
	return Factory{New: newFn, Txs: defaultTxs, name: name}
}

// Name returns the benchmark name without instantiating it.
func (f Factory) Name() string { return f.name }
