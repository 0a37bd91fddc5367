package stamp

import (
	"testing"

	"repro/internal/workload"
)

// steadyProgram returns a single-thread program of f with n transactions
// left, past the warm-up in which the builder's access buffer grows to the
// kernel's largest footprint.
func steadyProgram(tb testing.TB, f workload.Factory, n int) workload.Program {
	const warm = 256
	p := f.New(warm+n).NewProgram(0, 1, 42)
	for i := 0; i < warm; i++ {
		fetchCommit(tb, p)
	}
	return p
}

// fetchCommit is one turn of the supply as the simulator drives it: fetch
// a transaction, then apply its commit side effect.
func fetchCommit(tb testing.TB, p workload.Program) {
	_, d, ok := p.Next()
	if !ok {
		tb.Fatal("program ran dry")
	}
	if d.OnCommit != nil {
		d.OnCommit()
	}
}

// TestStampNextAllocFree is the runtime gate behind the //bfgts:allocfree
// markers on the generator path: once warm, fetching and committing a
// transaction allocates nothing in any of the seven kernels.
func TestStampNextAllocFree(t *testing.T) {
	const runs = 2000
	for _, f := range All() {
		p := steadyProgram(t, f, runs+1) // AllocsPerRun makes one extra warm-up call
		if allocs := testing.AllocsPerRun(runs, func() { fetchCommit(t, p) }); allocs != 0 {
			t.Errorf("%s: Next+OnCommit costs %v allocs/op, want 0", f.Name(), allocs)
		}
	}
}

// BenchmarkStampNext is the generator's layer benchmark: ns and allocs per
// transaction supplied, per kernel.
func BenchmarkStampNext(b *testing.B) {
	for _, f := range All() {
		b.Run(f.Name(), func(b *testing.B) {
			p := steadyProgram(b, f, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fetchCommit(b, p)
			}
		})
	}
}
