package sim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/decision"
	"repro/internal/sched"
	"repro/internal/stamp"
	"repro/internal/workload"
)

// poisonWorkload wraps a workload so that every program enforces the
// descriptor-lifetime rule of workload.Program the hard way: on each Next
// the previous descriptor is scrambled — static ID, access list and commit
// callback — before the next one is handed out. A consumer that still
// looks at a descriptor after fetching its successor reads garbage (or
// panics) instead of quietly getting away with it.
type poisonWorkload struct {
	workload.Workload
	commits int // OnCommit calls across all programs
}

func (w *poisonWorkload) NewProgram(tid, nThreads int, seed uint64) workload.Program {
	return &poisonProgram{Program: w.Workload.NewProgram(tid, nThreads, seed), w: w}
}

type poisonProgram struct {
	workload.Program
	w    *poisonWorkload
	prev *workload.TxDesc
}

func (p *poisonProgram) Next() (int64, *workload.TxDesc, bool) {
	if d := p.prev; d != nil {
		d.STx = -1 << 20
		d.BodyCycles = -1
		for i := range d.Accesses {
			d.Accesses[i] = workload.Access{Addr: ^uint64(0), Write: true}
		}
		d.Accesses = nil
		d.OnCommit = func() { panic("OnCommit of a descriptor whose successor was already fetched") }
	}
	pre, d, ok := p.Program.Next()
	if !ok {
		p.prev = nil
		return pre, d, ok
	}
	inner := d.OnCommit
	d.OnCommit = func() {
		p.w.commits++
		if inner != nil {
			inner()
		}
	}
	p.prev = d
	return pre, d, true
}

// TestPoisonedSupplyLeavesResultsUnchanged is the consumer half of the
// descriptor-lifetime rule: under every manager, with and without decision
// recording, a run fed by self-destructing descriptors is identical to the
// plain run — so nothing in the runner, the TM, the managers or the
// recorder holds a descriptor past the next fetch.
func TestPoisonedSupplyLeavesResultsUnchanged(t *testing.T) {
	for _, mgr := range allManagers() {
		for _, traced := range []bool{false, true} {
			newSet := func() *decision.Set {
				if !traced {
					return nil
				}
				return decision.NewSet(8, 0)
			}
			plainSet := newSet()
			plain := NewRunner(decisionCfg(mgr, plainSet, 0)).Run()

			poisonSet := newSet()
			cfg := decisionCfg(mgr, poisonSet, 0)
			pw := &poisonWorkload{Workload: cfg.Workload}
			cfg.Workload = pw
			poisoned := NewRunner(cfg).Run()

			if !reflect.DeepEqual(plain, poisoned) {
				t.Errorf("%s (decisions %v): poisoned supply changed the run: makespan %d vs %d, commits %d vs %d",
					mgr, traced, plain.Makespan, poisoned.Makespan, plain.Commits, poisoned.Commits)
			}
			if int64(pw.commits) != poisoned.Commits {
				t.Errorf("%s (decisions %v): OnCommit ran %d times for %d commits", mgr, traced, pw.commits, poisoned.Commits)
			}
			if traced && !reflect.DeepEqual(plainSet.Merge(), poisonSet.Merge()) {
				t.Errorf("%s: poisoned supply changed the decision trace", mgr)
			}
		}
	}
}

// TestATSNoLostWakeup is the regression test for the futex race: ATS
// decides to park a thread, and while the thread is still paying the
// queue-operation overhead the token holder commits, pops it and wakes it.
// The wake used to be dropped (the thread was not blocked yet), the thread
// then slept forever holding the token, and the cell ended early with most
// of its transactions uncommitted.
func TestATSNoLostWakeup(t *testing.T) {
	seeds := []uint64{11, 33, 41, 43, 54}
	if testing.Short() {
		seeds = seeds[:1] // seed 11 loses the wakeup on kmeans
	}
	for _, name := range []string{"kmeans", "intruder", "delaunay"} {
		f, _ := stamp.ByName(name)
		want := int64(float64(f.Txs) * 0.22)
		for _, seed := range seeds {
			res := NewRunner(RunConfig{
				Cores:          16,
				ThreadsPerCore: 4,
				Seed:           seed,
				Workload:       f.New(int(want)),
				NewManager:     managerFactory("ats"),
				MaxCycles:      100_000_000_000,
			}).Run()
			if res.Deadlocked != nil || res.TimedOut || res.Commits != want {
				t.Errorf("%s seed %d: %d of %d commits, timed out %v, deadlock %v",
					name, seed, res.Commits, want, res.TimedOut, res.Deadlocked)
			}
		}
	}
}

// parkingManager blocks the first begin of thread 0 and never wakes it.
type parkingManager struct {
	sched.Manager
	parked bool
}

func (m *parkingManager) OnBegin(tid, stx int) sched.BeginResult {
	if tid == 0 && !m.parked {
		m.parked = true
		return sched.BeginResult{Action: sched.Block}
	}
	return m.Manager.OnBegin(tid, stx)
}

// TestDrainedEngineWithLiveThreadsIsDeadlock: a run whose events run out
// while a thread is still parked reports it instead of passing the partial
// counts off as a result.
func TestDrainedEngineWithLiveThreadsIsDeadlock(t *testing.T) {
	cfg := decisionCfg("backoff", nil, 0)
	inner := cfg.NewManager
	cfg.NewManager = func(env sched.Env) sched.Manager {
		return &parkingManager{Manager: inner(env)}
	}
	res := NewRunner(cfg).Run()
	d := res.Deadlocked
	if d == nil {
		t.Fatal("thread 0 never woke, yet the run reports no deadlock")
	}
	if len(d.Parked) != 1 || d.Parked[0].Tid != 0 || d.Parked[0].Wait != "blocked" {
		t.Fatalf("parked = %+v, want thread 0 blocked", d.Parked)
	}
	if !strings.Contains(d.Error(), "t0 blocked") {
		t.Fatalf("diagnostic %q does not name the parked thread", d.Error())
	}
	if res.TimedOut {
		t.Fatal("a drained heap is not a timeout")
	}
	if clean := NewRunner(decisionCfg("backoff", nil, 0)).Run(); clean.Deadlocked != nil {
		t.Fatalf("clean run reported %v", clean.Deadlocked)
	}
}
