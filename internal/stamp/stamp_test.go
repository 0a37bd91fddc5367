package stamp

import (
	"testing"

	"repro/internal/workload"
)

func TestAllFactoriesDistinctNames(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range All() {
		if seen[f.Name()] {
			t.Fatalf("duplicate benchmark name %q", f.Name())
		}
		seen[f.Name()] = true
	}
	if len(seen) != 7 {
		t.Fatalf("expected the 7 STAMP benchmarks, got %d", len(seen))
	}
}

func TestByName(t *testing.T) {
	f, ok := ByName("intruder")
	if !ok || f.Name() != "intruder" {
		t.Fatal("ByName failed for intruder")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Fatal("ByName returned a benchmark for a bogus name")
	}
}

// drain runs a program to completion, returning its transactions. The
// program reuses one descriptor (valid only until the next Next), so drain
// copies what it keeps.
func drain(t *testing.T, p workload.Program) []*workload.TxDesc {
	t.Helper()
	var txs []*workload.TxDesc
	for {
		pre, desc, ok := p.Next()
		if !ok {
			break
		}
		if pre < 0 {
			t.Fatal("negative non-transactional cycles")
		}
		if desc == nil || len(desc.Accesses) == 0 {
			t.Fatal("transaction with no accesses")
		}
		kept := *desc
		kept.Accesses = append([]workload.Access(nil), desc.Accesses...)
		txs = append(txs, &kept)
		if len(txs) > 1_000_000 {
			t.Fatal("program does not terminate")
		}
	}
	return txs
}

func TestWorkShareSumsToTotal(t *testing.T) {
	for _, f := range All() {
		w := f.New(977) // awkward total to exercise remainder spreading
		total := 0
		for tid := 0; tid < 64; tid++ {
			total += len(drain(t, w.NewProgram(tid, 64, uint64(tid))))
		}
		if total != 977 {
			t.Errorf("%s: programs produced %d transactions, want 977", f.Name(), total)
		}
	}
}

func TestStaticIDsWithinRange(t *testing.T) {
	for _, f := range All() {
		w := f.New(500)
		for tid := 0; tid < 8; tid++ {
			for _, tx := range drain(t, w.NewProgram(tid, 8, 42)) {
				if tx.STx < 0 || tx.STx >= w.NumStatic() {
					t.Fatalf("%s: static ID %d out of range [0,%d)", f.Name(), tx.STx, w.NumStatic())
				}
			}
		}
	}
}

func TestAllStaticIDsExercised(t *testing.T) {
	for _, f := range All() {
		w := f.New(f.Txs)
		seen := make(map[int]bool)
		for tid := 0; tid < 4; tid++ {
			for _, tx := range drain(t, w.NewProgram(tid, 4, 1)) {
				seen[tx.STx] = true
			}
		}
		if len(seen) != w.NumStatic() {
			t.Errorf("%s: only %d of %d static transactions generated", f.Name(), len(seen), w.NumStatic())
		}
	}
}

func TestDeterministicPrograms(t *testing.T) {
	for _, f := range All() {
		mk := func() []*workload.TxDesc {
			w := f.New(300)
			return drain(t, w.NewProgram(3, 8, 99))
		}
		a, b := mk(), mk()
		if len(a) != len(b) {
			t.Fatalf("%s: lengths differ across identical runs", f.Name())
		}
		for i := range a {
			if a[i].STx != b[i].STx || len(a[i].Accesses) != len(b[i].Accesses) {
				t.Fatalf("%s: tx %d differs across identical runs", f.Name(), i)
			}
			for j := range a[i].Accesses {
				if a[i].Accesses[j] != b[i].Accesses[j] {
					t.Fatalf("%s: access %d/%d differs across identical runs", f.Name(), i, j)
				}
			}
		}
	}
}

func TestLineAddressesAligned(t *testing.T) {
	for _, f := range All() {
		w := f.New(200)
		for _, tx := range drain(t, w.NewProgram(0, 4, 7)) {
			for _, a := range tx.Accesses {
				if a.Addr%workload.LineBytes != 0 {
					t.Fatalf("%s: unaligned access %#x", f.Name(), a.Addr)
				}
			}
		}
	}
}

// Transaction size regimes: ssca2 tiny, labyrinth huge (Section 5's size
// story depends on these).
func TestTransactionSizeRegimes(t *testing.T) {
	meanLines := func(name string) float64 {
		f, _ := ByName(name)
		w := f.New(400)
		total, n := 0, 0
		for tid := 0; tid < 4; tid++ {
			for _, tx := range drain(t, w.NewProgram(tid, 4, 5)) {
				total += tx.Lines()
				n++
			}
		}
		return float64(total) / float64(n)
	}
	ssca2 := meanLines("ssca2")
	labyrinth := meanLines("labyrinth")
	if ssca2 > 6 {
		t.Errorf("ssca2 mean footprint = %.1f lines, want tiny", ssca2)
	}
	if labyrinth < 40 {
		t.Errorf("labyrinth mean footprint = %.1f lines, want huge", labyrinth)
	}
	if labyrinth < 8*ssca2 {
		t.Errorf("labyrinth (%.1f) should dwarf ssca2 (%.1f)", labyrinth, ssca2)
	}
}

// The read-then-upgrade shape: transactions that write a line they
// previously read must exist (the deadlock-prone pattern driving aborts).
func TestUpgradePatternsPresent(t *testing.T) {
	for _, name := range []string{"delaunay", "genome", "intruder", "vacation", "labyrinth"} {
		f, _ := ByName(name)
		w := f.New(400)
		upgrades := 0
		for _, tx := range drain(t, w.NewProgram(0, 4, 11)) {
			read := map[uint64]bool{}
			for _, a := range tx.Accesses {
				if a.Write && read[a.Addr] {
					upgrades++
					break
				}
				if !a.Write {
					read[a.Addr] = true
				}
			}
		}
		if upgrades == 0 {
			t.Errorf("%s: no read-then-upgrade transactions", name)
		}
	}
}

func TestOnCommitAdvancesQueueCursors(t *testing.T) {
	f, _ := ByName("intruder")
	w := f.New(100).(*Intruder)
	p := w.NewProgram(0, 1, 3)
	var deq *workload.TxDesc
	for {
		_, tx, ok := p.Next()
		if !ok {
			break
		}
		if tx.STx == 0 {
			deq = tx
			break
		}
	}
	if deq == nil || deq.OnCommit == nil {
		t.Fatal("dequeue transaction without OnCommit side effect")
	}
	before := w.head
	deq.OnCommit()
	if w.head != before+1 {
		t.Fatal("OnCommit did not advance the queue head")
	}
}
