package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// hostInfo is the fingerprint every result file carries, so numbers from
// two machines are never compared unknowingly.
type hostInfo struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	Seed       uint64  `json:"seed"`
	CalibNs    float64 `json:"calib_ns"`
	LoadAvg1   float64 `json:"loadavg1"`
	Warning    string  `json:"warning,omitempty"`
}

func fingerprint(seed uint64) hostInfo {
	h := hostInfo{
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  "unknown",
		Seed:       seed,
		CalibNs:    calibrate(),
		LoadAvg1:   loadAvg1(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.GitCommit = s.Value
			}
		}
	}
	if h.LoadAvg1 > float64(h.NProc)/2 {
		h.Warning = "load average " + strconv.FormatFloat(h.LoadAvg1, 'f', 2, 64) +
			" at start exceeds half of nproc; timings may be noisy"
	}
	return h
}

// procField returns the value of the first "key : value" line of a /proc
// file, or "unknown" where the file or the key is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// loadAvg1 is the one-minute load average, 0 where /proc does not give it.
func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	first, _, _ := strings.Cut(string(b), " ")
	v, _ := strconv.ParseFloat(first, 64)
	return v
}

// peakRSSMB is the process's peak resident set (VmHWM), 0 where unknown.
func peakRSSMB() float64 {
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	return kb / 1024
}

// calibSink keeps the calibration kernel's result alive.
var calibSink uint64

// calibrate times a fixed integer-and-memory kernel — a dependent random
// walk over 4 MiB — and returns the median of five runs in nanoseconds.
// Later issues divide timings by it to compare across machines.
func calibrate() float64 {
	const words, steps = 1 << 19, 1 << 20
	mem := make([]uint64, words)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range mem {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		mem[i] = x
	}
	runs := make([]float64, 5)
	for r := range runs {
		t0 := time.Now()
		i := uint64(r)
		for s := 0; s < steps; s++ {
			i = (mem[i&(words-1)] + i*31) ^ uint64(s)
		}
		runs[r] = float64(time.Since(t0).Nanoseconds())
		calibSink += i
	}
	return median(runs)
}
