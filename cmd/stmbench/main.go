// Command stmbench benchmarks the real (goroutine-based) STM head-to-head
// under each contention manager — exponential backoff, ATS, and BFGTS — on
// the canonical behaviors from the paper's motivation: a high-similarity
// hot-counter workload (persistent conflicts), a low-similarity uniform
// hash-set workload (transient conflicts), and a Zipf-skewed transfer
// workload whose head keys concentrate contention the way real caches and
// order books do.
//
// For every (workload, scheduler, worker-count) cell it reports commit
// throughput, abort rate, per-transaction latency (mean/p50/p99 from a
// log-scaled histogram) and the heap traffic of the timed section per
// committed transaction (bytes/tx, allocs/tx: the runtime.MemStats delta
// around it, so the workers' own start-up is included and amortized over
// -ops), and can emit the whole sweep as a schema-v1 JSON export (the same
// format bfgts-sim emits, verified by scripts/jsonverify).
//
// Usage:
//
//	stmbench [-workers 2,4,8] [-ops 5000] [-workloads counter,zipf]
//	         [-keys 256] [-zipf-s 1.2] [-seed 1] [-json-out FILE] [-quiet]
//	         [-cpuprofile FILE] [-decisions-out FILE] [-trace-chrome FILE]
//	         [-linear-predict]
//
// BFGTS cells additionally report the begin-time probe histograms: how
// many candidates each prediction visited (probe_len), how many Bloofi
// directory nodes it touched (probe_nodes), and how many transactions
// were running (probe_running). -linear-predict disables the Bloofi
// signature directory so predictions fall back to the linear scan over
// all worker slots — the A/B lever for the directory's probe savings.
//
// -cpuprofile writes a pprof CPU profile of the sweep; every worker
// goroutine carries pprof labels (manager, workload), so `go tool pprof
// -tagfocus manager=BFGTS` attributes samples per contention manager.
//
// -decisions-out records every live scheduling decision (optimistic
// proceed, spin/yield suspend) with wall-clock outcomes and writes the
// schema-v2 decisions JSON (units "ns"); -trace-chrome writes the same
// streams as Chrome trace_event JSON for Perfetto, one process per
// (workload, scheduler, workers) cell.
//
// Note: meaningful contention requires real hardware parallelism
// (GOMAXPROCS > 1); on a single CPU, goroutines rarely overlap.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/decision"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/stm"
)

var schedulers = []stm.SchedulerKind{stm.SchedBackoff, stm.SchedATS, stm.SchedBFGTS}

func main() {
	workersCSV := flag.String("workers", "2,4,8", "comma-separated worker counts to sweep")
	ops := flag.Int("ops", 5000, "transactions per worker per cell")
	workloadsCSV := flag.String("workloads", "counter,zipf", "comma-separated workloads: counter|hashset|zipf")
	keys := flag.Int("keys", 256, "distinct keys for the hashset and zipf workloads")
	zipfS := flag.Float64("zipf-s", 1.2, "Zipf skew exponent (>1) for the zipf workload")
	seed := flag.Uint64("seed", 1, "base seed for the per-worker key streams")
	jsonOut := flag.String("json-out", "", "write the sweep as schema-v1 JSON to this file")
	quiet := flag.Bool("quiet", false, "suppress the text tables (JSON output only)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep (labeled per manager/workload)")
	decisionsOut := flag.String("decisions-out", "", "write the live decision traces as schema-v2 JSON to this file")
	traceChrome := flag.String("trace-chrome", "", "write the live decision traces as Chrome trace_event JSON (Perfetto) to this file")
	linearPredict := flag.Bool("linear-predict", false, "disable the Bloofi signature directory in BFGTS (linear begin-time scans over all worker slots)")
	flag.Parse()

	workerCounts, err := parseWorkers(*workersCSV)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", err)
		os.Exit(2)
	}
	workloads := strings.Split(*workloadsCSV, ",")
	for _, wl := range workloads {
		if wl != "counter" && wl != "hashset" && wl != "zipf" {
			fmt.Fprintf(os.Stderr, "stmbench: unknown workload %q\n", wl)
			os.Exit(2)
		}
	}
	if *zipfS <= 1 {
		fmt.Fprintln(os.Stderr, "stmbench: -zipf-s must be > 1")
		os.Exit(2)
	}

	profiling := false
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stmbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "stmbench:", err)
			os.Exit(1)
		}
		profiling = true
		defer pprof.StopCPUProfile()
	}

	record := *decisionsOut != "" || *traceChrome != ""
	var dexp *decision.Export
	var chrome decision.ChromeTrace
	if record {
		dexp = decision.NewExport()
	}
	pid := 0

	var reports []*harness.Report
	for _, wl := range workloads {
		rep := &harness.Report{
			ID:    "stm-" + wl,
			Title: fmt.Sprintf("STM contention managers on the %s workload (%d ops/worker)", wl, *ops),
			Columns: []string{"scheduler", "workers", "commits", "aborts",
				"abort_rate", "throughput_ops_s", "mean_us", "p50_us", "p99_us",
				"bytes_per_tx", "allocs_per_tx"},
			Values: map[string]float64{},
			Notes: []string{
				fmt.Sprintf("keys=%d zipf_s=%.2f seed=%d", *keys, *zipfS, *seed),
				"latency percentiles are log-histogram upper bounds (factor-of-2 precision)",
			},
		}
		if !*quiet {
			fmt.Printf("## %s\n", rep.Title)
			fmt.Printf("%-10s %8s %10s %10s %8s %12s %9s %9s %9s %9s %9s\n",
				"scheduler", "workers", "commits", "aborts", "abort%", "ops/s", "mean(us)", "p50(us)", "p99(us)", "B/tx", "allocs/tx")
		}
		for _, kind := range schedulers {
			for _, w := range workerCounts {
				res, set := runCell(wl, kind, w, *ops, *keys, *zipfS, *seed, record, *linearPredict)
				addRow(rep, kind, w, res)
				if !*quiet {
					printRow(kind, w, res)
				}
				if record {
					cell := fmt.Sprintf("%s/w%d", wl, w)
					dexp.AddRun(kind.String(), cell, "ns", set)
					chrome.AddRun(pid, cell+"/"+kind.String(), set)
					pid++
				}
			}
		}
		if !*quiet {
			fmt.Println()
		}
		reports = append(reports, rep)
	}

	if profiling {
		// Stop before output so error-path os.Exit cannot truncate it.
		pprof.StopCPUProfile()
		profiling = false
		if !*quiet {
			fmt.Printf("wrote %s\n", *cpuProfile)
		}
	}

	if *decisionsOut != "" {
		writeFile(*decisionsOut, dexp.EncodeJSON, *quiet)
	}
	if *traceChrome != "" {
		writeFile(*traceChrome, func(w io.Writer) error { _, err := chrome.WriteTo(w); return err }, *quiet)
	}

	if *jsonOut != "" {
		cfg := harness.Config{
			Cores:          runtime.NumCPU(),
			ThreadsPerCore: 1,
			Seed:           *seed,
			Scale:          1,
		}
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stmbench:", err)
			os.Exit(1)
		}
		if err := harness.NewExport(cfg, reports).EncodeJSON(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "stmbench:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "stmbench:", err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Printf("wrote %s\n", *jsonOut)
		}
	}
}

// writeFile creates path, streams enc into it, and reports the write.
func writeFile(path string, enc func(io.Writer) error, quiet bool) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", err)
		os.Exit(1)
	}
	if err := enc(f); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, "stmbench:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", err)
		os.Exit(1)
	}
	if !quiet {
		fmt.Printf("wrote %s\n", path)
	}
}

func parseWorkers(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -workers entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// cellResult is one (workload, scheduler, workers) measurement.
type cellResult struct {
	commits, aborts int64
	elapsed         time.Duration
	lat             stats.Histogram // per-transaction wall latency, ns
	// Heap traffic of the timed section (runtime.MemStats delta).
	allocBytes, mallocs uint64

	// Begin-time probe histograms, BFGTS cells only (nil otherwise).
	// probeLen counts candidates visited per prediction; probeNodes and
	// probeRun (directory mode only) count Bloofi nodes touched and
	// transactions running at probe time.
	probeLen, probeNodes, probeRun *stats.Histogram
}

func (r *cellResult) abortRate() float64 {
	if r.commits+r.aborts == 0 {
		return 0
	}
	return float64(r.aborts) / float64(r.commits+r.aborts)
}

func (r *cellResult) throughput() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.commits) / r.elapsed.Seconds()
}

// perTx divides a timed-section total by the committed transactions.
func (r *cellResult) perTx(total uint64) float64 {
	if r.commits == 0 {
		return 0
	}
	return float64(total) / float64(r.commits)
}

func addRow(rep *harness.Report, kind stm.SchedulerKind, workers int, r cellResult) {
	rep.Rows = append(rep.Rows, []string{
		kind.String(),
		strconv.Itoa(workers),
		strconv.FormatInt(r.commits, 10),
		strconv.FormatInt(r.aborts, 10),
		strconv.FormatFloat(r.abortRate(), 'f', 4, 64),
		strconv.FormatFloat(r.throughput(), 'f', 0, 64),
		strconv.FormatFloat(r.lat.Mean()/1e3, 'f', 1, 64),
		strconv.FormatFloat(float64(r.lat.Percentile(50))/1e3, 'f', 1, 64),
		strconv.FormatFloat(float64(r.lat.Percentile(99))/1e3, 'f', 1, 64),
		strconv.FormatFloat(r.perTx(r.allocBytes), 'f', 2, 64),
		strconv.FormatFloat(r.perTx(r.mallocs), 'f', 3, 64),
	})
	key := fmt.Sprintf("%s/w%d/", kind, workers)
	rep.Values[key+"throughput_ops_s"] = r.throughput()
	rep.Values[key+"abort_rate"] = r.abortRate()
	rep.Values[key+"p99_us"] = float64(r.lat.Percentile(99)) / 1e3
	rep.Values[key+"bytes_per_tx"] = r.perTx(r.allocBytes)
	rep.Values[key+"allocs_per_tx"] = r.perTx(r.mallocs)
	if r.probeLen != nil && r.probeLen.N() > 0 {
		rep.Values[key+"probe_len_mean"] = r.probeLen.Mean()
		rep.Values[key+"probe_len_p99"] = float64(r.probeLen.Percentile(99))
	}
	if r.probeNodes != nil && r.probeNodes.N() > 0 {
		rep.Values[key+"probe_nodes_mean"] = r.probeNodes.Mean()
	}
	if r.probeRun != nil && r.probeRun.N() > 0 {
		rep.Values[key+"probe_running_mean"] = r.probeRun.Mean()
	}
}

func printRow(kind stm.SchedulerKind, workers int, r cellResult) {
	fmt.Printf("%-10s %8d %10d %10d %7.1f%% %12.0f %9.1f %9.1f %9.1f %9.2f %9.3f\n",
		kind, workers, r.commits, r.aborts, 100*r.abortRate(), r.throughput(),
		r.lat.Mean()/1e3, float64(r.lat.Percentile(50))/1e3, float64(r.lat.Percentile(99))/1e3,
		r.perTx(r.allocBytes), r.perTx(r.mallocs))
	if r.probeLen != nil && r.probeLen.N() > 0 {
		fmt.Printf("%-10s probe_len mean=%.2f p99=%d", "", r.probeLen.Mean(), r.probeLen.Percentile(99))
		if r.probeNodes != nil && r.probeNodes.N() > 0 {
			fmt.Printf("  nodes mean=%.2f", r.probeNodes.Mean())
		}
		if r.probeRun != nil && r.probeRun.N() > 0 {
			fmt.Printf("  running mean=%.2f", r.probeRun.Mean())
		}
		fmt.Println()
	}
}

// runCell executes one workload cell: `workers` goroutines each running
// `ops` transactions under the given contention manager, measuring the
// wall latency of every Atomic call in a per-worker histogram. With
// record set it also attaches a per-worker decision trace and returns
// the set alongside the measurement.
func runCell(workload string, kind stm.SchedulerKind, workers, ops, keys int, zipfS float64, seed uint64, record, linearPredict bool) (cellResult, *decision.Set) {
	var set *decision.Set
	if record {
		set = decision.NewSet(workers, 0)
	}
	sys := stm.NewSystem(stm.Config{Workers: workers, StaticTxs: 1, Scheduler: kind,
		Decisions: set, LinearPredict: linearPredict})

	// txFor builds the per-worker transaction stream for the workload. The
	// returned func runs one operation (one Atomic call) per invocation.
	var txFor func(w int) func()
	switch workload {
	case "counter":
		// One hot counter: every transaction conflicts with every other,
		// and consecutive transactions by one worker are near-identical
		// (the paper's high-similarity, persistent-conflict regime).
		counter := stm.NewTVar(0)
		txFor = func(w int) func() {
			return func() {
				_ = sys.Atomic(w, 0, func(tx *stm.Tx) error {
					counter.Write(tx, counter.Read(tx)+1)
					return nil
				})
			}
		}
	case "hashset":
		// Uniform single-key increments across many buckets: conflicts are
		// rare and transient (the hash-table regime of Section 3.1).
		set := newTVars(keys)
		txFor = func(w int) func() {
			rng := rand.New(rand.NewSource(int64(seed) + int64(w)))
			return func() {
				b := rng.Intn(keys)
				_ = sys.Atomic(w, 0, func(tx *stm.Tx) error {
					set[b].Write(tx, set[b].Read(tx)+1)
					return nil
				})
			}
		}
	case "zipf":
		// Zipf-skewed transfers: each transaction moves a unit between two
		// keys drawn from a Zipf distribution, so a handful of head keys
		// see persistent conflicts while the tail stays almost private.
		accts := newTVars(keys)
		txFor = func(w int) func() {
			rng := rand.New(rand.NewSource(int64(seed) + int64(w)))
			z := rand.NewZipf(rng, zipfS, 1, uint64(keys-1))
			return func() {
				from, to := int(z.Uint64()), int(z.Uint64())
				_ = sys.Atomic(w, 0, func(tx *stm.Tx) error {
					bf := accts[from].Read(tx)
					accts[from].Write(tx, bf-1)
					if to != from {
						accts[to].Write(tx, accts[to].Read(tx)+1)
					}
					return nil
				})
			}
		}
	}

	hists := make([]stats.Histogram, workers)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Label the worker so -cpuprofile samples attribute to their
			// (manager, workload) cell under `go tool pprof -tagfocus`.
			labels := pprof.Labels("manager", kind.String(), "workload", workload)
			pprof.Do(context.Background(), labels, func(context.Context) {
				op := txFor(w)
				h := &hists[w]
				for i := 0; i < ops; i++ {
					t0 := time.Now()
					op()
					h.Add(time.Since(t0).Nanoseconds())
				}
			})
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	res := cellResult{commits: sys.Commits(), aborts: sys.Aborts(), elapsed: elapsed,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc, mallocs: m1.Mallocs - m0.Mallocs}
	for w := range hists {
		res.lat.Merge(&hists[w])
	}
	if kind == stm.SchedBFGTS {
		reg := metrics.New()
		sys.SnapshotMetrics(reg)
		res.probeLen = reg.Histogram("stm.predict.probe_len").Stats()
		res.probeNodes = reg.Histogram("stm.predict.probe_nodes").Stats()
		res.probeRun = reg.Histogram("stm.predict.probe_running").Stats()
	}
	return res, set
}

func newTVars(n int) []*stm.TVar[int] {
	vs := make([]*stm.TVar[int], n)
	for i := range vs {
		vs[i] = stm.NewTVar(0)
	}
	return vs
}
