package harness

import (
	"fmt"
	"sync"

	"repro/internal/stats"
)

// MultiSeed runs an experiment across n seeds (base, base+1, …) and
// aggregates every reported value into mean ± standard deviation — the
// variance disclosure behind EXPERIMENTS.md's cross-seed claims.
//
// Seeds execute concurrently over one pool sized from cfg.Workers (each
// seed gets its own cache session, since the seed is part of every run
// key), but aggregation always folds values in ascending seed order, so
// the report is byte-identical to a serial run.
func MultiSeed(exp Experiment, cfg Config, n int) *Report {
	if n < 1 {
		n = 1
	}
	pool := NewPool(cfg.Workers)
	reps := make([]*Report, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i] = runExperiment(exp, newRunnerPool(c, pool))
		}()
	}
	wg.Wait()
	agg := map[string]*stats.Summary{}
	for _, rep := range reps {
		for k, v := range rep.Values {
			s, ok := agg[k]
			if !ok {
				s = &stats.Summary{}
				agg[k] = s
			}
			s.Add(v)
		}
	}
	out := &Report{
		ID:      exp.ID + "-multiseed",
		Title:   fmt.Sprintf("%s across %d seeds (mean ± sd)", exp.Description, n),
		Columns: []string{"Value", "Mean", "StdDev", "Min", "Max"},
		Values:  map[string]float64{},
	}
	for _, rep := range reps {
		out.Deadlocked = append(out.Deadlocked, rep.Deadlocked...)
	}
	keys := make([]string, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sortStrings(keys)
	for _, k := range keys {
		s := agg[k]
		out.Rows = append(out.Rows, []string{
			k,
			fmt.Sprintf("%.3f", s.Mean()),
			fmt.Sprintf("%.3f", s.StdDev()),
			fmt.Sprintf("%.3f", s.Min()),
			fmt.Sprintf("%.3f", s.Max()),
		})
		out.Values[k+"_mean"] = s.Mean()
		out.Values[k+"_sd"] = s.StdDev()
	}
	return out
}

// sortStrings is an insertion sort: key counts are small and this avoids
// widening the import set of a hot-path file.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
