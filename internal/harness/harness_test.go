package harness

import (
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/stamp"
)

// quickRunner runs experiments at reduced scale so the suite stays fast;
// shape assertions below are robust to the scale.
func quickRunner() *Runner {
	cfg := DefaultConfig()
	cfg.Scale = 0.25
	return NewRunner(cfg)
}

func TestExperimentRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		if e.ID == "" || e.Description == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"table1", "table4", "fig4a", "fig4b", "fig5", "fig6a", "fig6b", "sec532"} {
		if !ids[want] {
			t.Fatalf("missing experiment %q", want)
		}
	}
	if _, ok := ExperimentByID("fig4a"); !ok {
		t.Fatal("ExperimentByID failed")
	}
	if _, ok := ExperimentByID("nope"); ok {
		t.Fatal("ExperimentByID invented an experiment")
	}
}

func TestRunnerCachesResults(t *testing.T) {
	r := quickRunner()
	f := stamp.All()[5] // ssca2: fastest
	a := r.Run(f, BaselineSpecs()[0], false)
	b := r.Run(f, BaselineSpecs()[0], false)
	if a != b {
		t.Fatal("identical runs not cached")
	}
}

func TestSpeedupBaselineIsSequential(t *testing.T) {
	r := quickRunner()
	f, _ := stamp.ByName("ssca2")
	base := r.Baseline(f)
	if base.Aborts != 0 {
		t.Fatalf("sequential baseline aborted %d times", base.Aborts)
	}
	par := r.Run(f, BaselineSpecs()[0], false)
	if sp := r.Speedup(f, par); sp < 4 {
		t.Fatalf("ssca2 16-core speedup = %.2f, want substantial", sp)
	}
}

// The paper's headline qualitative claims, asserted at quick scale.
func TestPaperShapeClaims(t *testing.T) {
	r := quickRunner()
	fig4a := Fig4a(r)
	v := fig4a.Values

	sp := func(bench, mgr string) float64 { return v["speedup_"+bench+"_"+mgr] }

	// Claim: Backoff collapses on the dense high-contention benchmarks.
	if sp("delaunay", "Backoff") > 0.8*sp("delaunay", "BFGTS-HW") {
		t.Errorf("Backoff not collapsing on delaunay: %.2f vs BFGTS-HW %.2f",
			sp("delaunay", "Backoff"), sp("delaunay", "BFGTS-HW"))
	}
	if sp("intruder", "Backoff") > 0.8*sp("intruder", "BFGTS-HW") {
		t.Errorf("Backoff not collapsing on intruder: %.2f vs BFGTS-HW %.2f",
			sp("intruder", "Backoff"), sp("intruder", "BFGTS-HW"))
	}

	// Claim: BFGTS-HW beats ATS by a large factor on delaunay (paper: 4.6x).
	if ratio := sp("delaunay", "BFGTS-HW") / sp("delaunay", "ATS"); ratio < 2 {
		t.Errorf("BFGTS-HW/ATS on delaunay = %.2fx, want large", ratio)
	}

	// Claim: BFGTS-HW beats PTS substantially on intruder (paper: 1.7x).
	if ratio := sp("intruder", "BFGTS-HW") / sp("intruder", "PTS"); ratio < 1.2 {
		t.Errorf("BFGTS-HW/PTS on intruder = %.2fx, want > 1.2", ratio)
	}

	// Claim: low-overhead managers win the near-zero-contention benchmark.
	if sp("ssca2", "Backoff") < sp("ssca2", "PTS") {
		t.Error("PTS should not beat Backoff on ssca2")
	}

	// Claim: average ordering PTS < BFGTS-HW <= hybrid family.
	if v["avg_BFGTS-HW"] <= v["avg_PTS"] {
		t.Errorf("BFGTS-HW average (%.2f) not above PTS (%.2f)", v["avg_BFGTS-HW"], v["avg_PTS"])
	}
	if v["avg_BFGTS-HW"] <= v["avg_BFGTS-SW"] {
		t.Errorf("hardware acceleration did not help: HW %.2f vs SW %.2f",
			v["avg_BFGTS-HW"], v["avg_BFGTS-SW"])
	}
	if v["avg_BFGTS-HW/Backoff"] <= v["avg_PTS"] {
		t.Error("hybrid average not above PTS")
	}
}

func TestTable4ShapeClaims(t *testing.T) {
	r := quickRunner()
	rep := Table4(r)
	v := rep.Values
	// Backoff contention ordering: dense benchmarks far above quiet ones.
	if v["cont_delaunay_Backoff"] < 30 {
		t.Errorf("delaunay backoff contention = %.1f%%, want high", v["cont_delaunay_Backoff"])
	}
	if v["cont_ssca2_Backoff"] > 1 {
		t.Errorf("ssca2 backoff contention = %.1f%%, want ~0", v["cont_ssca2_Backoff"])
	}
	// Scheduling reduces delaunay contention by a large factor.
	if v["cont_delaunay_BFGTS-HW"] > 0.7*v["cont_delaunay_Backoff"] {
		t.Errorf("BFGTS-HW did not reduce delaunay contention: %.1f%% vs %.1f%%",
			v["cont_delaunay_BFGTS-HW"], v["cont_delaunay_Backoff"])
	}
}

func TestTable1ShapeClaims(t *testing.T) {
	r := quickRunner()
	rep := Table1(r)
	v := rep.Values
	// Similarity spread in delaunay: the random-insert transaction (1) far
	// below the worklist transaction (3).
	if v["sim_delaunay_1"] > 0.3 {
		t.Errorf("delaunay tx1 similarity = %.2f, want low", v["sim_delaunay_1"])
	}
	if v["sim_delaunay_3"] < 0.6 {
		t.Errorf("delaunay tx3 similarity = %.2f, want high", v["sim_delaunay_3"])
	}
	// Intruder's dequeue repeats its cursor block.
	if v["sim_intruder_0"] < 0.5 {
		t.Errorf("intruder tx0 similarity = %.2f, want high", v["sim_intruder_0"])
	}
	// Genome's dedup wanders.
	if v["sim_genome_0"] > 0.35 {
		t.Errorf("genome tx0 similarity = %.2f, want low", v["sim_genome_0"])
	}
}

func TestFig5KernelBlowupForATS(t *testing.T) {
	r := quickRunner()
	rep := Fig5(r)
	v := rep.Values
	// The paper's Figure 5 signature: ATS's kernel share dwarfs BFGTS-HW's
	// on the dense benchmarks.
	if v["kernel_delaunay_ATS"] < 3*v["kernel_delaunay_BFGTS-HW"] {
		t.Errorf("ATS kernel time (%.3f) not dominating BFGTS-HW's (%.3f) on delaunay",
			v["kernel_delaunay_ATS"], v["kernel_delaunay_BFGTS-HW"])
	}
	// BFGTS-HW spends less scheduling time than BFGTS-SW.
	if v["sched_genome_BFGTS-HW"] >= v["sched_genome_BFGTS-SW"] {
		t.Errorf("HW scheduling share (%.3f) not below SW's (%.3f)",
			v["sched_genome_BFGTS-HW"], v["sched_genome_BFGTS-SW"])
	}
}

func TestBloomSweepRunsAllSizes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.1
	r := NewRunner(cfg)
	rep := Fig6a(r)
	for _, f := range stamp.All() {
		for _, bits := range BloomSizes {
			key := "speedup_" + f.Name() + "_" + itoa(bits)
			if rep.Values[key] <= 0 {
				t.Fatalf("missing sweep cell %s", key)
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestBestBloomPicksFastest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.1
	r := NewRunner(cfg)
	f, _ := stamp.ByName("ssca2")
	bits, best := r.BestBloom(f, sched.BFGTSHW)
	found := false
	for _, b := range BloomSizes {
		if b == bits {
			found = true
		}
		res := r.Run(f, bfgtsSpec(sched.BFGTSHW, b, 0), false)
		if res.Makespan < best.Makespan {
			t.Fatalf("BestBloom missed a faster size: %d beats %d", b, bits)
		}
	}
	if !found {
		t.Fatalf("BestBloom returned unknown size %d", bits)
	}
}

func TestReportRender(t *testing.T) {
	rep := &Report{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"A", "B"},
		Rows:    [][]string{{"r1", "v1"}, {"row2", "value2"}},
		Notes:   []string{"note"},
	}
	out := rep.Render()
	for _, want := range []string{"## x — demo", "A", "row2", "value2", "note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, out)
		}
	}
}

func TestScalingExperimentShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.15
	rep := AblScaling(NewRunner(cfg))
	if len(rep.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 core counts", len(rep.Rows))
	}
	// At 16 cores the proactive scheduler must beat unmanaged backoff on
	// the dense benchmark.
	if rep.Values["speedup_16_BFGTS-HW/2048b"] <= rep.Values["speedup_16_Backoff"] {
		t.Fatalf("BFGTS-HW (%.2f) not above Backoff (%.2f) at 16 cores",
			rep.Values["speedup_16_BFGTS-HW/2048b"], rep.Values["speedup_16_Backoff"])
	}
}

// parkOnce blocks thread 0's first begin and never wakes it, so the cell's
// events drain with a thread still parked.
type parkOnce struct {
	sched.Manager
	parked bool
}

func (m *parkOnce) OnBegin(tid, stx int) sched.BeginResult {
	if tid == 0 && !m.parked {
		m.parked = true
		return sched.BeginResult{Action: sched.Block}
	}
	return m.Manager.OnBegin(tid, stx)
}

// A deadlocked cell is not a measurement: the session does not memoize it
// and flags every report produced after it.
func TestDeadlockedCellIsRefused(t *testing.T) {
	cfg := Config{Cores: 2, ThreadsPerCore: 2, Seed: 1, Scale: 0.01, Workers: 1}
	r := NewRunner(cfg)
	f, _ := stamp.ByName("kmeans")
	sims := 0
	parker := ManagerSpec{Name: "parker", New: func(env sched.Env) sched.Manager {
		sims++
		return &parkOnce{Manager: sched.NewBackoff(env)}
	}}
	first, second := r.Run(f, parker, false), r.Run(f, parker, false)
	if first.Deadlocked == nil || second.Deadlocked == nil {
		t.Fatal("a run with a thread parked for good reported no deadlock")
	}
	if sims != 2 || first == second {
		t.Fatalf("deadlocked cell was served from the cache (%d simulations)", sims)
	}
	healthy := BaselineSpecs()[0]
	if a, b := r.Run(f, healthy, false), r.Run(f, healthy, false); a != b || a.Deadlocked != nil {
		t.Fatal("healthy cell not memoized")
	}
	rep := runExperiment(Experiment{ID: "x", Run: func(*Runner) *Report { return &Report{ID: "x"} }}, r)
	if len(rep.Deadlocked) != 2 || !strings.Contains(rep.Deadlocked[0], "kmeans under parker") {
		t.Fatalf("report not flagged: %q", rep.Deadlocked)
	}
	if clean := runExperiment(Experiment{ID: "y", Run: func(*Runner) *Report { return &Report{ID: "y"} }}, NewRunner(cfg)); clean.Deadlocked != nil {
		t.Fatalf("clean session flagged: %q", clean.Deadlocked)
	}
}
