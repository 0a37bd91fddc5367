package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// drive feeds m a seeded random sequence of manager callbacks and returns
// everything the manager answered. CPU slots are left occupied at the end,
// so a manager retired after drive holds a busy CPU table and directory.
func drive(m Manager, env Env, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	var out []float64
	lines := make([]uint64, 0, 64)
	for i := 0; i < 3000; i++ {
		tid, stx := rng.Intn(env.NumThreads), rng.Intn(env.NumStatic)
		switch rng.Intn(4) {
		case 0:
			r := m.OnBegin(tid, stx)
			out = append(out, float64(r.Action), float64(r.WaitDTx), float64(r.Overhead), r.Confidence, r.Similarity)
		case 1:
			dtx := tid*env.NumStatic + stx
			if rng.Intn(3) == 0 {
				dtx = core.NoTx
			}
			m.OnCPUSlot(env.CPUOf(tid), dtx)
		case 2:
			r := m.OnAbort(tid, stx, rng.Intn(env.NumThreads), rng.Intn(env.NumStatic), 1+rng.Intn(5))
			out = append(out, float64(r.Backoff), float64(r.Overhead))
		default:
			lines = lines[:0]
			for n := 1 + rng.Intn(40); n > 0; n-- {
				lines = append(lines, uint64(rng.Intn(256))*64)
			}
			out = append(out, float64(m.OnCommit(tid, stx, lines, lines[:len(lines)/3], len(lines))))
		}
	}
	if cr, ok := m.(ConfidenceReporter); ok {
		out = append(out, cr.MeanConfidence())
	}
	return out
}

// A manager re-initialised from Env.Retired answers exactly as a new one
// does, whatever its previous run was: each BFGTS step reuses the one
// BFGTS across modes, Bloom geometries (upward and downward, Bloom and
// exact signatures), machine sizes and scan kinds, and each PTS step the
// one PTS, with the other type's steps in between. Both orders reuse a
// directory of unchanged capacity after a run that left slots occupied
// and a run that did not use it. Their instruments must agree too: a
// directory still holding the last run's slots changes only the probe
// metrics.
func TestRetiredManagerMatchesFresh(t *testing.T) {
	type step struct {
		name       string
		cpus, stxs int
		linear     bool
		build      func(Env) Manager
	}
	bfgts := func(mode BFGTSMode, bits int) func(Env) Manager {
		return func(env Env) Manager {
			cfg := core.DefaultConfig(env.NumThreads, env.NumStatic)
			cfg.BloomBits = bits
			return NewBFGTS(env, mode, cfg)
		}
	}
	pts := func(env Env) Manager { return NewPTS(env) }
	steps := []step{
		{"SW/8192", 4, 3, false, bfgts(BFGTSSW, 8192)},
		{"PTS", 4, 3, false, pts},
		{"SW/512", 4, 2, false, bfgts(BFGTSSW, 512)},
		{"HW/1024", 8, 2, false, bfgts(BFGTSHW, 1024)},
		{"PTS linear", 8, 4, true, pts},
		{"NoOverhead", 4, 3, false, bfgts(BFGTSNoOverhead, 2048)},
		{"SW/2048 linear", 4, 4, true, bfgts(BFGTSSW, 2048)},
		{"HW-Backoff/512", 16, 2, false, bfgts(BFGTSHWBackoff, 512)},
		{"PTS", 4, 2, false, pts},
		{"SW/1024", 16, 2, false, bfgts(BFGTSSW, 1024)},
	}
	for _, order := range []string{"forward", "backward"} {
		var retired Retired
		for i := range steps {
			s := steps[i]
			if order == "backward" {
				s = steps[len(steps)-1-i]
			}
			env, _ := testEnv(s.cpus, 4*s.cpus, s.stxs)
			env.LinearScan, env.Metrics = s.linear, metrics.New()
			want := drive(s.build(env), env, int64(i))
			wantMet := env.Metrics.Snapshot()
			env, _ = testEnv(s.cpus, 4*s.cpus, s.stxs)
			env.LinearScan, env.Metrics = s.linear, metrics.New()
			env.Retired = &retired
			before := retired
			m := s.build(env)
			switch m := m.(type) {
			case *BFGTS:
				if before.bfgts != nil && m != before.bfgts {
					t.Errorf("%s step %d (%s): NewBFGTS did not take the retired BFGTS", order, i, s.name)
				}
			case *PTS:
				if before.pts != nil && m != before.pts {
					t.Errorf("%s step %d (%s): NewPTS did not take the retired PTS", order, i, s.name)
				}
			}
			if got := drive(m, env, int64(i)); !reflect.DeepEqual(got, want) {
				t.Errorf("%s step %d (%s): recycled manager diverged from a new one", order, i, s.name)
			}
			if !reflect.DeepEqual(env.Metrics.Snapshot(), wantMet) {
				t.Errorf("%s step %d (%s): recycled manager's instruments diverged from a new one's", order, i, s.name)
			}
			retired.Retire(m)
		}
		if retired.bfgts == nil || retired.pts == nil {
			t.Fatalf("%s: Retire dropped a recyclable manager", order)
		}
	}
}
