// Command bench is the repository's benchmark: four workloads over the
// simulator and the STM, end-to-end metrics measured with tracing off, and
// a traced run with per-layer metrics. BENCHMARK.json at the repository
// root is this program's -manifest output; README.md explains the
// workloads and the metrics.
//
// With -workload NAME it measures that workload once and prints the result
// as one JSON object on the last line of standard output. Without it, it
// runs itself once per workload and trace mode, so each gets a fresh heap,
// and prints every metric; -selfcheck runs two untraced sets and compares
// their medians with the bounds.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "measure only this workload and end with the result line (default: all of them, each in a child process)")
	seed := flag.Uint64("seed", 1, "seed of the simulations and the STM key streams")
	seconds := flag.Float64("seconds", runSeconds, "how long an untraced run cycles through set-ups and repetitions")
	trace := flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics (default: both)")
	outDir := flag.String("out", ".bench_build", "directory for result and trace files")
	selfcheck := flag.Bool("selfcheck", false, "run two untraced sets and compare their medians with the bounds")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if *printManifest {
		os.Stdout.Write(manifest())
		return
	}
	if *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive, and there are no positional arguments")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, size: 1, outDir: *outDir}
	if *workload != "" {
		cfg.workload, cfg.trace = *workload, *trace == 1
		res, err := runOne(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		printResult(os.Stdout, res)
		fmt.Println(res.summary())
		os.Exit(exitStatus(res))
	}

	child := func(name string, traced bool) (*runResult, error) {
		c := cfg
		c.workload, c.trace = name, traced
		return runChild(c)
	}
	var err error
	if *selfcheck {
		err = selfCheck(child)
	} else {
		err = runAll(child, *trace, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// exitStatus is non-zero when an output check failed.
func exitStatus(r *runResult) int {
	if r.Correct {
		return 0
	}
	return 1
}

// printResult lists every metric by name with its unit.
func printResult(w io.Writer, r *runResult) {
	fmt.Fprintf(w, "## %s  seed=%d trace=%d reps=%d  %s, %d cpus, %s\n", r.Workload, r.Host.Seed, b2i(r.Trace),
		len(r.RepWallS), r.Host.CPUModel, r.Host.NProc, r.Host.GoVersion)
	if r.InputSeed != r.Host.Seed {
		fmt.Fprintf(w, "simulations run with seed %d, the list entry -seed %d picks (see README)\n", r.InputSeed, r.Host.Seed)
	}
	if r.Host.Warning != "" {
		fmt.Fprintln(w, "warning:", r.Host.Warning)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		if !applies(name, r.Workload) {
			fmt.Fprintf(w, "%-38s %16s %s\n", name, "n/a", v.Unit)
			continue
		}
		fmt.Fprintf(w, "%-38s %16.6g %s\n", name, v.Value, v.Unit)
	}
	for _, name := range speedNames {
		if v, ok := r.Speed[name]; ok {
			fmt.Fprintf(w, "%-38s %16.6g %s  (no bound; a metric of the traced run)\n", name, v.Value, v.Unit)
		}
	}
	fmt.Fprintf(w, "%-38s %16.6g ratio  (%d of %d operations)\n", "failed_share", r.FailedShare, r.Failed, r.Attempted)
	if r.ResultDigest != "" {
		fmt.Fprintf(w, "%-38s %s\n", "result_digest", r.ResultDigest)
	}
	if r.Trace {
		fmt.Fprintf(w, "self time by span (ms):\n")
		for _, row := range r.SelfTime {
			fmt.Fprintf(w, "  %-24s n=%-7d total=%12.3f self=%12.3f\n", row.Name, row.Count, row.TotalMs, row.SelfMs)
		}
		fmt.Fprintf(w, "trace written to %s\n", r.TraceFile)
	}
}

// runChild measures one workload in a child process and reads back the
// result file it wrote. The child inherits standard output, so its metric
// listing appears as it finishes.
func runChild(cfg config) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-trace", fmt.Sprint(b2i(cfg.trace)), "-out", cfg.outDir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// Pass the listing through, but not the machine-readable last line.
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), "{") {
			fmt.Println(sc.Text())
		}
	}
	runErr := cmd.Wait()
	name, file := cfg.workload, resultFile(cfg.outDir, cfg.workload, cfg.trace)
	b, err := os.ReadFile(file)
	if err != nil {
		return nil, fmt.Errorf("%s: %v (child: %v)", name, err, runErr)
	}
	var res runResult
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	if runErr != nil {
		return &res, fmt.Errorf("%s: %d of %d operations failed (%v)", name, res.Failed, res.Attempted, runErr)
	}
	return &res, nil
}

// runAll measures every workload, untraced then traced unless -trace picked
// one, and gathers the runs in one result file.
func runAll(child func(string, bool) (*runResult, error), trace int, outDir string) error {
	var all []*runResult
	var failed []string
	for _, w := range workloadDefs {
		for _, traced := range []bool{false, true} {
			if trace >= 0 && traced != (trace == 1) {
				continue
			}
			res, err := child(w.Name, traced)
			if err != nil {
				if res == nil {
					return err
				}
				failed = append(failed, err.Error())
			}
			all = append(all, res)
		}
	}
	file := filepath.Join(outDir, "result.json")
	if err := writeJSON(file, all); err != nil {
		return err
	}
	fmt.Println("results written to", file)
	if len(failed) > 0 {
		return fmt.Errorf("correctness failures: %s", strings.Join(failed, "; "))
	}
	return nil
}

// speedNames are the speed numbers an untraced run prints beside its metrics.
var speedNames = []string{"wall_s", "tx_per_s"}

// selfCheckRuns is the runs per workload in each of selfCheck's two sets.
const selfCheckRuns = 3

// selfCheck runs two untraced sets back to back, each of selfCheckRuns runs
// per workload, and holds each end-to-end median of the second set against
// the first: it may not be worse by more than its bound. Digests, which are
// simulated, must be identical.
func selfCheck(child func(string, bool) (*runResult, error)) error {
	type set struct {
		vals   map[string][]float64 // by workload + "/" + metric
		digest map[string]string
	}
	var sets [2]set
	for i := range sets {
		sets[i] = set{map[string][]float64{}, map[string]string{}}
		for _, w := range workloadDefs {
			for r := 0; r < selfCheckRuns; r++ {
				res, err := child(w.Name, false)
				if err != nil {
					return err
				}
				for name, v := range res.Metrics {
					sets[i].vals[w.Name+"/"+name] = append(sets[i].vals[w.Name+"/"+name], v.Value)
				}
				sets[i].digest[w.Name] = res.ResultDigest
			}
		}
	}
	fmt.Printf("\nmedians of %d runs\n%-16s %-10s %14s %14s %9s %7s\n", selfCheckRuns, "workload", "metric", "first", "second", "diff", "bound")
	bad := 0
	for _, w := range workloadDefs {
		for _, d := range endToEnd {
			x, y := median(sets[0].vals[w.Name+"/"+d.name]), median(sets[1].vals[w.Name+"/"+d.name])
			worse := (y - x) / x
			if d.better == higher {
				worse = -worse
			}
			verdict := ""
			if worse > d.bound {
				verdict = "  EXCEEDS"
				bad++
			}
			fmt.Printf("%-16s %-10s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", w.Name, d.name, x, y,
				100*(y-x)/x, 100*d.bound, verdict)
		}
		for _, name := range speedNames {
			x, y := median(sets[0].vals[w.Name+"/"+name]), median(sets[1].vals[w.Name+"/"+name])
			fmt.Printf("%-16s %-10s %14.6g %14.6g %+8.2f%%    none\n", w.Name, name, x, y, 100*(y-x)/x)
		}
		if a, b := sets[0].digest[w.Name], sets[1].digest[w.Name]; a != b {
			fmt.Printf("%-16s result_digest differs: %s vs %s\n", w.Name, a, b)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d comparisons outside their bounds", bad)
	}
	fmt.Println("selfcheck: both sets agree within the bounds")
	return nil
}
