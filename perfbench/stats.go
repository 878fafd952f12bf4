package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// sampler keeps up to capacity (packet index, value) pairs; later pairs
// are dropped.
type sampler struct{ idx, xs []int64 }

func newSampler(capacity int) *sampler {
	return &sampler{idx: make([]int64, 0, capacity), xs: make([]int64, 0, capacity)}
}

func (s *sampler) add(i, v int64) {
	if len(s.xs) < cap(s.xs) {
		s.idx = append(s.idx, i)
		s.xs = append(s.xs, v)
	}
}

// windowQuantiles splits the samples into n windows of span packet
// indexes from from, and returns each window's q-quantile in µs.
func (s *sampler) windowQuantiles(from, span int64, n int, q float64) []float64 {
	wins := make([][]float64, n)
	for k, i := range s.idx {
		if w := (i - from) / span; i >= from && w < int64(n) {
			wins[w] = append(wins[w], float64(s.xs[k])/1e3)
		}
	}
	out := make([]float64, 0, n)
	for _, xs := range wins {
		if len(xs) > 0 {
			sort.Float64s(xs)
			out = append(out, quantile(xs, q))
		}
	}
	return out
}

// quantile returns the q-quantile of xs (0 <= q <= 1) by linear
// interpolation between order statistics; xs must be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// summary is a per-run sample: count, median and quartiles.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(vals []float64) summary {
	xs := append([]float64(nil), vals...)
	sort.Float64s(xs)
	return summary{N: len(xs), Median: quantile(xs, 0.5), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75)}
}

// snapshot is the process state at one window boundary of the live run.
type snapshot struct {
	wall       time.Time
	cpu        time.Duration // process user+sys
	delivered  int64
	allocObjs  uint64
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
	pauses     *metrics.Float64Histogram
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

func takeSnapshot(delivered int64) snapshot {
	s := snapshot{wall: time.Now(), cpu: processCPU(), delivered: delivered}
	metrics.Read(runtimeSamples)
	s.allocObjs = runtimeSamples[0].Value.Uint64()
	s.allocBytes = runtimeSamples[1].Value.Uint64()
	s.gcCycles = runtimeSamples[2].Value.Uint64()
	s.gcCPU = runtimeSamples[3].Value.Float64()
	h := runtimeSamples[4].Value.Float64Histogram()
	s.pauses = &metrics.Float64Histogram{
		Counts:  append([]uint64(nil), h.Counts...),
		Buckets: append([]float64(nil), h.Buckets...),
	}
	return s
}

// pauseP99 is the p99 GC pause between two snapshots, in µs (the upper
// edge of the bucket holding it; 0 when no pause happened).
func pauseP99(a, b snapshot) float64 {
	var total uint64
	d := make([]uint64, len(b.pauses.Counts))
	for i := range d {
		d[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(float64(total)*0.99 + 0.5)
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range d {
		seen += c
		if seen >= rank {
			edge := b.pauses.Buckets[i+1]
			if edge > 1e9 { // +Inf bucket
				edge = b.pauses.Buckets[i]
			}
			return edge * 1e6
		}
	}
	return 0
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// environment is recorded with every result.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	CPUModel   string `json:"cpu_model"`
}

func currentEnvironment() environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", CPUModel: "unknown",
	}
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" { // set by run.sh in a git checkout
		env.Commit = c
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}
