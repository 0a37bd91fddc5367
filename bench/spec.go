package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// runSeconds is how long one run measures; BENCHMARK.json's run_seconds.
const runSeconds = 28

// Workload names. Sizes are in the workload constructors (sim.go, stm.go).
const (
	wlFig4a  = "sim_fig4a"
	wlWide   = "sim_wide"
	wlHot    = "stm_hot"
	wlSparse = "stm_sparse"
)

// workloadDef is one BENCHMARK.json workload entry.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{wlFig4a, "bfgts-sim -exp fig4a at Scale 0.11 on one processor: 140 short 16-core cells; event heap, tm and per-cell setup carry it, sched/bloom barely show"},
	{wlWide, "256-core wide machine under 5 managers: 1024 threads in one heap, 256-slot begin scans; hwaccel, sched and the bloofi tree do their work here"},
	{wlHot, "real STM under BFGTS, every tx read-modify-writes 4 shared TVars: prediction, suspension and the write-commit path carry the load"},
	{wlSparse, "real STM under BFGTS, 90% read-only lookups over 65536 TVars: conflicts rare, so the manager's hooks are pure overhead"},
}

// Applicability sets for metricDef.on.
var (
	onAll  = []string{wlFig4a, wlWide, wlHot, wlSparse}
	onSim  = []string{wlFig4a, wlWide}
	onSTM  = []string{wlHot, wlSparse}
	onFig  = []string{wlFig4a}
	onWide = []string{wlWide}
)

// metricDef is one catalogue entry. bound is set for end-to-end metrics
// only. A per-layer metric is measured on the workloads in on and reads 0
// on every other workload (the contract wants every name in every traced
// run).
type metricDef struct {
	name, unit, better string
	bound              float64
	on                 []string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them with tracing off.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: lower, bound: 0.25, on: onAll},
	{name: "alloc_mb", unit: "MB", better: lower, bound: 0.05, on: onAll},
}

// perLayer are the metrics of single layers, reported by the traced run.
var perLayer = []metricDef{
	// The whole job's speed. It is what a user waits for, but on the shared
	// host it does not repeat within any bound the contract allows (README,
	// "End-to-end metrics"), so no bound gates it.
	{name: "wall_s", unit: "s", better: lower, on: onAll},
	{name: "tx_per_s", unit: "tx/s", better: higher, on: onAll},

	// Whole-run numbers that do not apply to every workload, so the
	// contract cannot take them as end-to-end metrics.
	{name: "sim.mcycles_per_s", unit: "Mcycle/s", better: higher, on: onSim},
	{name: "model.speedup", unit: "x", better: higher, on: onFig},
	{name: "model.paper_gap_pp", unit: "pp", better: lower, on: onFig},
	{name: "stm.tx_p50_us", unit: "us", better: lower, on: onSTM},
	{name: "stm.tx_p99_us", unit: "us", better: lower, on: onSTM},
	{name: "stm.tx_p999_us", unit: "us", better: lower, on: onSTM},

	// (a) Spans of the traced repetition.
	{name: "workload.build_ms", unit: "ms", better: lower, on: onSim},
	{name: "sim.new_runner_ms", unit: "ms", better: lower, on: onSim},
	{name: "sim.run_ms", unit: "ms", better: lower, on: onSim},
	{name: "sim.host_ns_per_tx.backoff", unit: "ns", better: lower, on: onSim},
	{name: "sim.host_ns_per_tx.pts", unit: "ns", better: lower, on: onSim},
	{name: "sim.host_ns_per_tx.ats", unit: "ns", better: lower, on: onSim},
	{name: "sim.host_ns_per_tx.bfgts_sw", unit: "ns", better: lower, on: onSim},
	{name: "sim.host_ns_per_tx.bfgts_hw", unit: "ns", better: lower, on: onSim},
	{name: "sim.host_ns_per_tx.bfgts_hw_backoff", unit: "ns", better: lower, on: onFig},
	{name: "sim.host_ns_per_tx.bfgts_noov", unit: "ns", better: lower, on: onFig},
	{name: "tm.abort_ratio", unit: "ratio", better: lower, on: onSim},
	{name: "sim.shard.wall_s", unit: "s", better: lower, on: onWide},
	{name: "sim.shard.seq_wall_s", unit: "s", better: lower, on: onWide},
	{name: "sim.shard.speedup_vs_seq", unit: "x", better: higher, on: onWide},
	{name: "sim.shard.parallel_speedup", unit: "x", better: higher, on: onWide},
	{name: "sim.shard.barrier_waits", unit: "count", better: lower, on: onWide},
	{name: "sim.shard.msgs_sent", unit: "count", better: lower, on: onWide},
	{name: "sim.shard.send_stall_spins", unit: "count", better: lower, on: onWide},
	{name: "sim.entangled_overhead_ratio", unit: "x", better: lower, on: onFig},
	{name: "harness.parallel_speedup", unit: "x", better: higher, on: onFig},
	{name: "harness.cached_rerun_ms", unit: "ms", better: lower, on: onFig},
	{name: "harness.export_ms", unit: "ms", better: lower, on: onFig},
	{name: "observe.metrics_overhead_pct", unit: "%", better: lower, on: onFig},
	{name: "observe.decisions_overhead_pct", unit: "%", better: lower, on: onFig},
	{name: "stm.tx_per_s.backoff", unit: "tx/s", better: higher, on: onSTM},
	{name: "stm.tx_per_s.ats", unit: "tx/s", better: higher, on: onSTM},
	{name: "stm.bfgts_vs_backoff", unit: "x", better: higher, on: onSTM},
	{name: "stm.abort_ratio", unit: "ratio", better: lower, on: onSTM},
	{name: "stm.predicted_share", unit: "ratio", better: lower, on: onSTM},
	{name: "stm.yields", unit: "count", better: lower, on: onSTM},
	{name: "stm.stalls", unit: "count", better: lower, on: onSTM},
	{name: "stm.begin_escapes", unit: "count", better: lower, on: onSTM},
	{name: "stm.validation_precision", unit: "ratio", better: higher, on: onSTM},
	{name: "stm.backoff_wait_share", unit: "ratio", better: lower, on: onSTM},
	{name: "stm.probe_nodes_mean", unit: "count", better: lower, on: onSTM},
	{name: "stm.probe_len_mean", unit: "count", better: lower, on: onSTM},
	{name: "trace.overhead_pct", unit: "%", better: lower, on: onAll},
	{name: "host.peak_rss_mb", unit: "MB", better: lower, on: onAll},
	{name: "host.gc_cycles", unit: "count", better: lower, on: onAll},
	{name: "host.gc_pause_ms", unit: "ms", better: lower, on: onAll},
	{name: "host.allocs_per_tx", unit: "count", better: lower, on: onAll},
	{name: "host.loadavg1", unit: "count", better: lower, on: onAll},
	{name: "host.calib_ns", unit: "ns", better: lower, on: onAll},

	// (b) Layer drives: one layer's exported API called in a loop at the
	// workload's parameters.
	{name: "workload.gen_ns_per_tx", unit: "ns", better: lower, on: onSim},
	{name: "workload.gen_est_share", unit: "ratio", better: lower, on: onSim},
	{name: "sim.engine.ns_per_event", unit: "ns", better: lower, on: onSim},
	{name: "tm.ns_per_access_first", unit: "ns", better: lower, on: onSim},
	{name: "tm.ns_per_access_re", unit: "ns", better: lower, on: onSim},
	{name: "tm.ns_per_tx_lifecycle", unit: "ns", better: lower, on: onSim},
	{name: "sched.ns_per_begin.pts", unit: "ns", better: lower, on: onSim},
	{name: "sched.ns_per_begin.bfgts_sw", unit: "ns", better: lower, on: onSim},
	{name: "sched.ns_per_begin.bfgts_hw", unit: "ns", better: lower, on: onSim},
	{name: "sched.ns_per_commit.pts", unit: "ns", better: lower, on: onSim},
	{name: "sched.ns_per_commit.bfgts_sw", unit: "ns", better: lower, on: onSim},
	{name: "sched.ns_per_commit.bfgts_hw", unit: "ns", better: lower, on: onSim},
	{name: "core.ns_per_commit_tx", unit: "ns", better: lower, on: onSim},
	{name: "core.ns_per_predict_sw", unit: "ns", better: lower, on: onSim},
	{name: "hwaccel.ns_per_predict", unit: "ns", better: lower, on: onSim},
	{name: "hwaccel.ns_per_broadcast", unit: "ns", better: lower, on: onSim},
	{name: "bloom.ns_per_add", unit: "ns", better: lower, on: onSim},
	{name: "bloom.ns_per_eq3", unit: "ns", better: lower, on: onSim},
	{name: "bloom.ns_per_similarity", unit: "ns", better: lower, on: onSim},
	{name: "bloofi.tree_ns_per_set_clear", unit: "ns", better: lower, on: onSim},
	{name: "bloofi.tree_ns_per_probe", unit: "ns", better: lower, on: onSim},
	{name: "bloofi.tree_probe_nodes", unit: "count", better: lower, on: onSim},
	{name: "bloom.atomic_ns_per_add", unit: "ns", better: lower, on: onSTM},
	{name: "bloom.atomic_ns_per_reset", unit: "ns", better: lower, on: onSTM},
	{name: "bloom.atomic_est_share", unit: "ratio", better: lower, on: onSTM},
	{name: "bloofi.atomic_ns_per_set_clear", unit: "ns", better: lower, on: onSTM},
	{name: "bloofi.atomic_ns_per_probe", unit: "ns", better: lower, on: onSTM},
	{name: "bloofi.atomic_est_share", unit: "ratio", better: lower, on: onSTM},
	{name: "stm.ns_per_ro_tx", unit: "ns", better: lower, on: onSTM},
	{name: "stm.ns_per_rw_tx", unit: "ns", better: lower, on: onSTM},
	{name: "stm.bfgts_overhead_ns_per_tx", unit: "ns", better: lower, on: onSTM},
}

func (d metricDef) appliesTo(workload string) bool {
	for _, w := range d.on {
		if w == workload {
			return true
		}
	}
	return false
}

// applies reports whether the named metric is measured on the workload.
func applies(name, workload string) bool {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.appliesTo(workload)
			}
		}
	}
	return false
}

// manifest renders BENCHMARK.json from the catalogue, so the file and the
// program cannot drift: the file is this function's output.
func manifest() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.name, d.unit, d.better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return append(out, '\n')
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// results collects the metrics one run measured. set panics on a name the
// catalogue does not have or that was already set: both are bugs in the
// benchmark, not conditions of the system under test.
type results struct {
	defs map[string]metricDef
	vals map[string]float64
}

func newResults(defs []metricDef) *results {
	r := &results{defs: map[string]metricDef{}, vals: map[string]float64{}}
	for _, d := range defs {
		r.defs[d.name] = d
	}
	return r
}

func (r *results) set(name string, v float64) {
	if _, ok := r.defs[name]; !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	if _, dup := r.vals[name]; dup {
		panic("bench: metric " + name + " set twice")
	}
	r.vals[name] = v
}

// finish checks the run set exactly the metrics that apply to the workload,
// each finite, and fills the others with 0.
func (r *results) finish(workload string) (map[string]value, error) {
	out := make(map[string]value, len(r.defs))
	var missing []string
	for name, d := range r.defs {
		v, ok := r.vals[name]
		switch {
		case d.appliesTo(workload) && !ok:
			missing = append(missing, name)
		case !d.appliesTo(workload) && ok:
			return nil, fmt.Errorf("metric %s set on %s, where it does not apply", name, workload)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
		out[name] = value{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured on %s: %v", workload, missing)
	}
	return out, nil
}
