package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// toy is every workload at a hundredth of its size: the whole file runs in
// a few seconds.
func toy(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 1, seconds: 0.01, trace: trace, size: 0.01, outDir: t.TempDir()}
}

func TestManifestIsBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifest()) {
		t.Fatal("BENCHMARK.json is not the -manifest output; regenerate it with: go run . -manifest > ../BENCHMARK.json")
	}
}

// TestEveryMetricOnEveryWorkload drives each workload untraced and traced,
// layer drives included, and checks the run reports exactly the catalogue's
// names, each finite and with its unit, and that the files it writes parse.
func TestEveryMetricOnEveryWorkload(t *testing.T) {
	for _, w := range workloadDefs {
		for _, trace := range []bool{false, true} {
			cfg := toy(t, w.Name, trace)
			res, err := runOne(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, catalogue has %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present=%v), want finite with unit %q", w.Name, trace, d.name, v, ok, d.unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, d.name, v.Value)
				}
			}
			if (res.ResultDigest != "") != (w.Name[:3] == "sim") {
				t.Errorf("%s: result_digest %q", w.Name, res.ResultDigest)
			}

			var line struct {
				Correct   *bool
				Attempted *int64
				Failed    *int64
				Metrics   map[string]value
			}
			dec := json.NewDecoder(bytes.NewReader([]byte(res.summary())))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Errorf("%s trace=%v: result line %q: %v", w.Name, trace, res.summary(), err)
			}
			if !reflect.DeepEqual(line.Metrics, res.Metrics) {
				t.Errorf("%s trace=%v: result line metrics differ from the run's", w.Name, trace)
			}

			var back runResult
			readJSON(t, resultFile(cfg.outDir, w.Name, trace), &back)
			if !reflect.DeepEqual(&back, res) {
				t.Errorf("%s trace=%v: result file does not round-trip:\n got %+v\nwant %+v", w.Name, trace, back, *res)
			}
			if trace {
				var chrome struct {
					TraceEvents []map[string]any `json:"traceEvents"`
				}
				readJSON(t, res.TraceFile, &chrome)
				if len(chrome.TraceEvents) == 0 || len(res.SelfTime) == 0 {
					t.Errorf("%s: traced run recorded no spans", w.Name)
				}
			}
		}
	}
}

func readJSON(t *testing.T, path string, into any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, into); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestBrokenInvariantFails injects a wrong expected commit count and wants
// it to reach failed, failed_share and the exit status.
func TestBrokenInvariantFails(t *testing.T) {
	for _, name := range []string{wlWide, wlHot} {
		cfg := toy(t, name, false)
		cfg.breakInvariant = true
		res, err := runOne(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed != res.Attempted || res.FailedShare != 1 || exitStatus(res) == 0 {
			t.Errorf("%s: correct=%v failed=%d of %d share=%v status=%d; want every operation failed and a non-zero status",
				name, res.Correct, res.Failed, res.Attempted, res.FailedShare, exitStatus(res))
		}
	}
}

// TestSimSeedsCommitEverything replays, on every seed of the list, the cells
// the list exists for: the ATS cells of sim_fig4a and sim_wide, at warm-up
// and at full size. It takes some twenty CPU-seconds, so -short skips it.
func TestSimSeedsCommitEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 32 seeds at full size")
	}
	for i := range simSeeds {
		t.Run(fmt.Sprint(simSeeds[i]), func(t *testing.T) {
			t.Parallel()
			for _, name := range []string{wlFig4a, wlWide} {
				s := newSimWorkload(config{workload: name, seed: uint64(i), size: 1})
				for _, frac := range []float64{warmFrac, 1} {
					scale := s.hcfg.Scale * frac
					for _, c := range s.cells {
						if c.baseline || c.spec.Name != "ATS" {
							continue
						}
						res, _ := s.runCell(nil, 0, c, scale, nil)
						if want := int64(scaledTxs(c.f, scale)); res.TimedOut || res.Commits != want {
							t.Errorf("%s %s at scale %v: %d of %d commits, timed out %v", name, c.f.Name(), scale, res.Commits, want, res.TimedOut)
						}
					}
				}
			}
		})
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	tr := &tracer{epoch: time.Now()}
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	tr.add("run", 0, -1, at(0), at(100))
	tr.add("call", 1, 0, at(10), at(40)) // two workers' calls overlap by 10 ms
	tr.add("call", 2, 0, at(30), at(60))
	tr.add("call", 1, 0, at(90), at(120)) // clipped at the parent's end
	rows := map[string]selfRow{}
	for _, r := range tr.selfTimes() {
		rows[r.Name] = r
	}
	if r := rows["run"]; r.Count != 1 || r.TotalMs != 100 || r.SelfMs != 40 {
		t.Errorf("run row = %+v, want total 100 ms, self 40 ms", r)
	}
	if r := rows["call"]; r.Count != 3 || r.TotalMs != 90 || r.SelfMs != 90 {
		t.Errorf("call row = %+v, want 3 calls, 90 ms total and self", r)
	}
}

func TestResultsRejectsGapsAndStrays(t *testing.T) {
	r := newResults(perLayer)
	r.set("stm.yields", 0)
	if _, err := r.finish(wlFig4a); err == nil {
		t.Error("finish accepted an STM metric on a sim workload")
	}
	if _, err := newResults(endToEnd).finish(wlHot); err == nil {
		t.Error("finish accepted a run that measured nothing")
	}
}
