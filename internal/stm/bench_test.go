package stm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkSTMContended drives a contended read-modify-write mix through
// each contention manager: every goroutine owns a worker slot and updates
// hot TVars drawn from a small pool, so begin-time scheduling decisions
// actually matter. Run with -benchmem: steady state is 0 B/op — cells are
// recycled — except while a peer sits descheduled mid-attempt, which is
// why check.sh gates it at -cpu 1.
func BenchmarkSTMContended(b *testing.B) {
	for _, kind := range []SchedulerKind{SchedBackoff, SchedATS, SchedBFGTS} {
		b.Run(kind.String(), func(b *testing.B) {
			workers := runtime.GOMAXPROCS(0)
			if workers < 2 {
				workers = 2
			}
			sys := NewSystem(Config{Workers: workers, StaticTxs: 2, Scheduler: kind})
			const vars = 16
			pool := make([]*TVar[int], vars)
			for i := range pool {
				pool[i] = NewTVar(0)
			}
			var nextWorker atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := int(nextWorker.Add(1)-1) % workers
				rng := uint64(w)*0x9e3779b97f4a7c15 + 1
				for pb.Next() {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					v := pool[rng%vars]
					_ = sys.Atomic(w, 0, func(tx *Tx) error {
						v.Write(tx, v.Read(tx)+1)
						return nil
					})
				}
			})
			b.ReportMetric(float64(sys.Aborts())/float64(b.N), "aborts/op")
		})
	}
}

// BenchmarkSTMContendedWide oversubscribes the BFGTS manager with worker
// counts far beyond GOMAXPROCS (the live analog of the 64/256/1024
// simulated-core scaling runs), Bloofi directory against linear
// begin-time prediction. Each worker slot gets a dedicated goroutine
// running a fixed slice of ops so the begin path — suspect-set scan plus
// directory probe or linear walk over all worker slots — dominates the
// scheduling cost being compared.
func BenchmarkSTMContendedWide(b *testing.B) {
	for _, workers := range []int{64, 256, 1024} {
		for _, linear := range []bool{false, true} {
			mode := "bloofi"
			if linear {
				mode = "linear"
			}
			b.Run(fmt.Sprintf("workers%d/%s", workers, mode), func(b *testing.B) {
				sys := NewSystem(Config{
					Workers: workers, StaticTxs: 4,
					Scheduler: SchedBFGTS, LinearPredict: linear,
				})
				const vars = 64
				pool := make([]*TVar[int], vars)
				for i := range pool {
					pool[i] = NewTVar(0)
				}
				opsPer := b.N/workers + 1
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						rng := uint64(w)*0x9e3779b97f4a7c15 + 1
						for i := 0; i < opsPer; i++ {
							rng ^= rng << 13
							rng ^= rng >> 7
							rng ^= rng << 17
							v := pool[rng%vars]
							_ = sys.Atomic(w, int(rng>>32)%4, func(tx *Tx) error {
								v.Write(tx, v.Read(tx)+1)
								return nil
							})
						}
					}(w)
				}
				wg.Wait()
				b.ReportMetric(float64(sys.Aborts())/float64(b.N), "aborts/op")
			})
		}
	}
}
