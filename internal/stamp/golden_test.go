package stamp

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"testing"

	"repro/internal/workload"
)

// goldenTxs is the workload size every golden stream is generated at.
const goldenTxs = 4000

// goldenLimit caps the descriptors hashed per program.
const goldenLimit = 1000

// hashDesc folds one (pre, descriptor) pair into h: everything the
// simulator can observe of a transaction, in order.
func hashDesc(h io.Writer, pre int64, d *workload.TxDesc) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(pre))
	put(uint64(d.STx))
	put(uint64(d.BodyCycles))
	put(uint64(len(d.Accesses)))
	for _, a := range d.Accesses {
		w := uint64(0)
		if a.Write {
			w = 1
		}
		put(a.Addr<<1 | w)
	}
	if d.OnCommit != nil {
		put(1)
	} else {
		put(0)
	}
}

// soloHash drains one program, committing each transaction as soon as it
// is fetched.
func soloHash(f workload.Factory, tid, nThreads int, seed uint64) uint64 {
	p := f.New(goldenTxs).NewProgram(tid, nThreads, seed)
	h := fnv.New64a()
	for i := 0; i < goldenLimit; i++ {
		pre, d, ok := p.Next()
		if !ok {
			break
		}
		hashDesc(h, pre, d)
		if d.OnCommit != nil {
			d.OnCommit()
		}
	}
	return h.Sum64()
}

// interleavedHash runs four programs of one workload in lock step: every
// round fetches one transaction per thread, and only then hashes and
// commits them in thread order. A descriptor therefore has to survive the
// other programs' Next calls, and the shared generator state (queue
// cursors) is read while sibling transactions are still uncommitted — the
// way the simulator's threads overlap.
func interleavedHash(f workload.Factory, seed uint64) uint64 {
	const n = 4
	w := f.New(goldenTxs)
	base := workload.NewRNG(seed)
	var progs [n]workload.Program
	for tid := range progs {
		progs[tid] = w.NewProgram(tid, n, base.Derive(uint64(tid)).Uint64())
	}
	h := fnv.New64a()
	var pres [n]int64
	var descs [n]*workload.TxDesc
	for round := 0; round < goldenLimit/n; round++ {
		for tid, p := range progs {
			pres[tid], descs[tid], _ = p.Next()
		}
		for tid, d := range descs {
			if d == nil {
				continue
			}
			hashDesc(h, pres[tid], d)
			if d.OnCommit != nil {
				d.OnCommit()
			}
		}
	}
	return h.Sum64()
}

// TestGoldenStreams pins the generated transaction streams bit for bit.
// The hashes were taken from the map-based builder (one fresh descriptor
// per transaction) before the generator was rewritten to reuse its
// buffers; any change here moves every simulation result in the
// repository.
func TestGoldenStreams(t *testing.T) {
	type key struct {
		tid, nThreads int
		seed          uint64
	}
	solo := []key{{0, 1, 1}, {3, 8, 99}, {63, 64, 7}}
	want := map[string][4]uint64{
		"delaunay":  {0x8f52e5cc699bd50a, 0x33ffd5bb4bd9f6b6, 0x9e19838ee01a60c5, 0x79506b54882d8ec6},
		"genome":    {0xc04d24c7a2ee9b35, 0x95402445f5042405, 0xcad28bf9f63f69b2, 0x3d39afcfcb479c3b},
		"kmeans":    {0x2b6f21a2c96206ee, 0xb487de5db295d15c, 0xf28e33441c18796b, 0x9b0f4622ee79d486},
		"vacation":  {0x520a62e4b35e999, 0xb6d561650e77b36d, 0x50294784073966e5, 0xc0939a98c9c5a3ef},
		"intruder":  {0x8b653e92d7818b65, 0xa3d6392839b270be, 0x3d603553b35ec5ec, 0x459a8be9c3d1ef7a},
		"ssca2":     {0x255215193f63dd96, 0x80c0a999b24c0690, 0xfa67bdd23ae197b3, 0xde01a59fb2e3e853},
		"labyrinth": {0x6f878891949e5c3f, 0x5f955c8b420f3c25, 0x2c084c435245d057, 0x3f9880e60bc847b3},
	}
	for _, f := range All() {
		var got [4]uint64
		for i, k := range solo {
			got[i] = soloHash(f, k.tid, k.nThreads, k.seed)
		}
		got[3] = interleavedHash(f, 5)
		if got != want[f.Name()] {
			t.Errorf("%q: {%#x, %#x, %#x, %#x},", f.Name(), got[0], got[1], got[2], got[3])
		}
	}
}
