// Command perfbench is the repository's stationary service-chain benchmark.
// Each workload deploys its chain as nfcompass -source nic:queues=N
// -rx-workers 1 does and drives it from one process and one source
// goroutine. A run measures the workload in a few fresh child processes
// one after another, each doing, in turn:
//
//   - set-up: spec.Parse, core.Deploy per shard, dataplane.NewSharded with
//     the shipped defaults (timed; a second, reference set-up is timed too);
//   - ceiling: an unpaced closed loop through ingress.Pump after a
//     warm-up, measured in windows (throughput, process CPU per packet);
//   - open loop: the same run paced (by sleeping) at the workload's fixed
//     rate, each sampled packet timed from its due time to the sink;
//   - reference: a single-goroutine traced replay of the same packets
//     through the same public calls, whose output digest the live run
//     must match and whose spans give the per-layer split.
//
// Usage (from the repository root, via perfbench/run.sh):
//
//	perfbench --workload newflow-64 --seed 1 --seconds 10 --trace 0
//
// The parent reports medians of the pooled windows, except for the
// ceiling figures, which average each child's median. Child processes
// are the unit of repetition because memory placement differs per
// process on virtualized hosts: the same flow-table-bound run can be a
// quarter slower in one process than in the next, and no amount of
// measuring inside one process averages that out.
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the end-to-end (--trace 0) or per-layer (--trace 1) metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: newflow-64, established-imix or payload-1360")
	seed := fs.Int64("seed", 1, "traffic seed")
	seconds := fs.Float64("seconds", 10, "measured seconds, shared by the child processes (half ceiling, half open loop)")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the first child's measured phases to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile after the first child's measured phases to this file")
	spansOut := fs.String("spans", "", "write the first child's traced replay spans (NDJSON) to this file")
	child := fs.Bool("child", false, "measure in this process and print the raw result (used by the parent)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = fmt.Errorf("bad --seconds %v or --trace %d", *seconds, *trace)
		}
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if *child {
		c, err := measure(w, *seed, planFor(*seconds), profiles{cpuPath: *cpuProfile, memPath: *memProfile}, *spansOut)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		line, err := json.Marshal(c)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return 0
	}

	var children []*childResult
	for k := 0; k < w.processes; k++ {
		cargs := []string{"--child", "--workload", w.name, "--seed", strconv.FormatInt(*seed, 10),
			"--seconds", strconv.FormatFloat(*seconds/float64(w.processes), 'g', -1, 64)}
		if k == 0 {
			cargs = append(cargs, "--cpuprofile", *cpuProfile, "--memprofile", *memProfile, "--spans", *spansOut)
		}
		c, err := runChild(cargs, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: child %d: %v\n", w.name, k, err)
			return 1
		}
		children = append(children, c)
	}
	aggregate(w, *seed, children).print(stdout, *trace == 1)
	return 0
}

// runChild runs one measuring child process of this executable to
// completion and decodes its result line.
func runChild(args []string, stderr io.Writer) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &out, stderr
	// A child outlives a killed parent otherwise.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var c childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	return &c, nil
}

// childResult is what one measuring process reports to the parent.
type childResult struct {
	Problems []string `json:"problems"`
	Offered  int64    `json:"offered"`
	Lost     int64    `json:"lost"`
	Digest   string   `json:"digest"`
	// Per ceiling window.
	PPS   []float64 `json:"pps"`
	CPUNs []float64 `json:"cpu_ns"`
	// Per open-loop window, in µs.
	LatP50         []float64 `json:"lat_p50_us"`
	LatP99         []float64 `json:"lat_p99_us"`
	LateP99        []float64 `json:"late_p99_us"`
	LatencySamples int       `json:"latency_samples"`
	// Set-ups as [parse, deploy, pipeline] seconds.
	Setups    [][3]float64 `json:"setups"`
	PeakRSSMB float64      `json:"peak_rss_mb"`
	// Layers holds the per-layer metrics one process measures; the parent
	// derives the rest.
	Layers map[string]float64 `json:"layers"`
}

func (c *childResult) check(ok bool, format string, args ...any) {
	if !ok {
		c.Problems = append(c.Problems, fmt.Sprintf(format, args...))
	}
}

// measure is one child's work: set-up, live run, reference set-up and
// traced replay, then the per-process figures.
func measure(w *workload, seed int64, plan phasePlan, prof profiles, spansPath string) (*childResult, error) {
	capt, err := w.capture(seed)
	if err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	runtime.GC()
	d, err := w.setup()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	setups := []setupTimes{d.setupTimes}
	runtime.GC()
	debug.FreeOSMemory()
	live, err := runLive(w, d, capt, plan, prof)
	if err != nil {
		return nil, err
	}

	d = nil
	runtime.GC()
	ref, err := w.setup()
	if err != nil {
		return nil, fmt.Errorf("reference setup: %w", err)
	}
	setups = append(setups, ref.setupTimes)
	tr, err := replay(w, ref.graphs, capt, live.offered, live.ceilFrom, live.ceilTo)
	if err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}
	if spansPath != "" {
		if err := tr.tr.writeSpans(spansPath); err != nil {
			return nil, fmt.Errorf("spans: %w", err)
		}
	}
	return evaluate(w, plan, setups, live, tr), nil
}

func evaluate(w *workload, plan phasePlan, setups []setupTimes, live *liveResult, tr *traceResult) *childResult {
	c := &childResult{Offered: live.offered, Digest: live.dg.String(), PeakRSSMB: live.peakRSSMB, Layers: map[string]float64{}}

	// Correctness: every offered packet accounted for, the output
	// multiset equal to the reference's, flow state stationary.
	c.Lost = live.offered - int64(live.dg.live+live.dg.dropped)
	c.check(c.Lost == 0, "%d of %d offered packets lost", c.Lost, live.offered)
	c.check(live.ledgerTotal == 0, "loss ledger booked %d packets", live.ledgerTotal)
	c.check(tr.packets == live.offered, "reference replayed %d of %d packets", tr.packets, live.offered)
	c.check(tr.dg == live.dg, "output digest %v differs from the reference %v", live.dg, tr.dg)
	c.LatencySamples = len(live.latency.xs)
	// Half the timed packets the open loop offers in its measured time:
	// fewer means the generator or the sink fell far behind.
	timed := int(w.ratePPS*plan.olMeter.Seconds()) / int(w.sampleStride())
	c.check(c.LatencySamples >= timed/2, "only %d of %d latency samples", c.LatencySamples, timed)
	plateau := max(int(flowTTLNs/gapNs), w.flows)
	if n := len(tr.ct.flows); n >= 4 {
		lo, hi := tr.ct.flows[n/2], tr.ct.flows[n/2]
		for _, f := range tr.ct.flows[n/2:] {
			lo, hi = min(lo, f), max(hi, f)
		}
		c.check(float64(hi) <= 1.1*float64(lo), "conntrack flows drift from %d to %d over the second half of the measured range", lo, hi)
		c.check(float64(hi) <= 1.2*float64(plateau), "conntrack holds %d flows, above the %d plateau", hi, plateau)
	} else {
		c.check(false, "measured range covered only %d flushes", n)
	}
	c.check(live.pump.PeakFlows <= int(1.2*float64(plateau))+64, "pump conntrack peaked at %d flows, above the %d plateau", live.pump.PeakFlows, plateau)

	for i := 1; i < len(live.windows); i++ {
		a, b := live.windows[i-1], live.windows[i]
		pkts := float64(b.delivered - a.delivered)
		c.PPS = append(c.PPS, pkts/b.wall.Sub(a.wall).Seconds())
		c.CPUNs = append(c.CPUNs, float64(b.cpu-a.cpu)/pkts)
	}
	// Latency percentiles are taken per open-loop window (see phasePlan).
	span := int64(w.ratePPS * plan.olMeter.Seconds() / float64(plan.olWindows))
	c.LatP50 = live.latency.windowQuantiles(live.measureFrom, span, plan.olWindows, 0.5)
	c.LatP99 = live.latency.windowQuantiles(live.measureFrom, span, plan.olWindows, 0.99)
	c.LateP99 = live.lateness.windowQuantiles(live.measureFrom, span, plan.olWindows, 0.99)
	for _, s := range setups {
		c.Setups = append(c.Setups, [3]float64{s.parse.Seconds(), s.deploy.Seconds(), s.pipeline.Seconds()})
	}

	// Per-layer split of the ceiling windows' packet range.
	first, last := live.windows[0], live.windows[len(live.windows)-1]
	ceilPkts := float64(last.delivered - first.delivered)
	sums := tr.layerTotals(live.ceilFrom, live.ceilTo)
	c.Layers["ingress.read_ns_per_pkt"] = sums[layerRead]
	c.Layers["ingress.rss_ns_per_pkt"] = sums[layerRSS]
	c.Layers["flowtable.conntrack_ns_per_pkt"] = sums[layerConntrack]
	for i, k := range nfKinds {
		c.Layers[nfMetric(k)] = sums[layerNF+uint16(i)]
	}
	c.Layers["sink.digest_ns_per_pkt"] = sums[layerDigest]
	c.Layers["netpkt.release_ns_per_pkt"] = sums[layerRelease]
	ct := tr.ct
	if ct.touches > 0 {
		c.Layers["flowtable.hit_ratio"] = 1 - float64(ct.created)/float64(ct.touches)
	}
	for _, f := range ct.flows {
		c.Layers["flowtable.peak_flows"] = max(c.Layers["flowtable.peak_flows"], float64(f))
	}
	c.Layers["flowtable.expired"] = float64(ct.expired)
	c.Layers["flowtable.evicted"] = float64(ct.evicted)
	c.Layers["netpkt.allocs_per_pkt"] = float64(last.allocObjs-first.allocObjs) / ceilPkts
	c.Layers["netpkt.alloc_bytes_per_pkt"] = float64(last.allocBytes-first.allocBytes) / ceilPkts
	// GC is counted over both measured phases together: at these
	// allocation rates one phase alone can end before the next cycle.
	end := live.end
	if d := (end.cpu - first.cpu).Seconds(); d > 0 {
		c.Layers["runtime.gc_cpu_pct"] = 100 * (end.gcCPU - first.gcCPU) / d
	}
	c.Layers["runtime.gc_cycles"] = float64(end.gcCycles - first.gcCycles)
	c.Layers["runtime.gc_pause_p99_us"] = pauseP99(first, end)
	if live.pump.Batches > 0 {
		c.Layers["dataplane.pkts_per_batch"] = float64(live.pump.Packets) / float64(live.pump.Batches)
	}
	return c
}

// result is one run's verdict and metrics, pooled over its children.
type result struct {
	workload  string
	seed      int64
	correct   bool
	problems  []string
	attempted int64
	failed    int64
	e2e       map[string]float64
	layers    map[string]float64
	env       environment
	samples   map[string]summary
	digests   []string
}

func median(xs []float64) float64 { return summarize(xs).Median }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func aggregate(w *workload, seed int64, children []*childResult) *result {
	r := &result{
		workload: w.name, seed: seed, correct: true, env: currentEnvironment(),
		e2e: map[string]float64{}, layers: map[string]float64{}, samples: map[string]summary{},
	}
	var pps, cpuNs, p50, p99, late, setupS, rss []float64
	var childPPS, childCPU []float64
	var parse, deploy, pipeline []float64
	perLayer := map[string][]float64{}
	var samples int
	for k, c := range children {
		for _, p := range c.Problems {
			r.problems = append(r.problems, fmt.Sprintf("child %d: %s", k, p))
		}
		r.attempted += c.Offered
		r.failed += c.Lost
		r.digests = append(r.digests, c.Digest)
		pps = append(pps, c.PPS...)
		cpuNs = append(cpuNs, c.CPUNs...)
		childPPS = append(childPPS, median(c.PPS))
		childCPU = append(childCPU, median(c.CPUNs))
		p50 = append(p50, c.LatP50...)
		p99 = append(p99, c.LatP99...)
		late = append(late, c.LateP99...)
		samples += c.LatencySamples
		for _, s := range c.Setups {
			setupS = append(setupS, s[0]+s[1]+s[2])
			parse, deploy, pipeline = append(parse, s[0]), append(deploy, s[1]), append(pipeline, s[2])
		}
		rss = append(rss, c.PeakRSSMB)
		for name, v := range c.Layers {
			perLayer[name] = append(perLayer[name], v)
		}
	}
	r.correct = len(r.problems) == 0
	r.samples["throughput_pps"] = summarize(pps)
	r.samples["cpu_ns_per_pkt"] = summarize(cpuNs)
	r.samples["latency_p50_us"] = summarize(p50)
	r.samples["latency_p99_us"] = summarize(p99)
	r.samples["gen.lateness_p99_us"] = summarize(late)
	r.samples["setup_s"] = summarize(setupS)
	r.samples["peak_rss_mb"] = summarize(rss)

	// The ceiling figures average the children's medians: the median of
	// a process's windows drops its own stalls, and the mean over
	// processes weighs each memory placement equally instead of letting
	// the pooled median jump with which placement has the majority.
	cpu := mean(childCPU)
	r.e2e["throughput_pps"] = mean(childPPS)
	r.e2e["cpu_ns_per_pkt"] = cpu
	r.e2e["latency_p50_us"] = r.samples["latency_p50_us"].Median
	r.e2e["setup_s"] = r.samples["setup_s"].Median
	r.e2e["peak_rss_mb"] = r.samples["peak_rss_mb"].Median

	// Each traced layer is the median over the children; the overhead is
	// what they leave of cpu_ns_per_pkt, so the split adds up exactly.
	var explained float64
	for name, vs := range perLayer {
		r.layers[name] = median(vs)
		if strings.HasSuffix(name, "_ns_per_pkt") {
			explained += r.layers[name]
		}
	}
	r.layers["dataplane.overhead_ns_per_pkt"] = cpu - explained
	r.layers["dataplane.explained_pct"] = 100 * explained / cpu
	r.layers["dataplane.loss_pct"] = 100 * float64(r.failed) / float64(r.attempted)
	r.layers["setup.parse_s"] = median(parse)
	r.layers["setup.deploy_s"] = median(deploy)
	r.layers["setup.pipeline_s"] = median(pipeline)
	r.layers["latency_p99_us"] = r.samples["latency_p99_us"].Median
	r.layers["gen.lateness_p99_us"] = r.samples["gen.lateness_p99_us"].Median
	r.layers["gen.latency_samples"] = float64(samples)
	return r
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes a readable report, a detail line (environment, per-run
// samples, digests) and, last, the result object.
func (r *result) print(w io.Writer, traced bool) {
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layers
	}
	fmt.Fprintf(w, "perfbench %s seed=%d  %s  GOMAXPROCS=%d nproc=%d  %d processes\n",
		r.workload, r.seed, r.env.GoVersion, r.env.GOMAXPROCS, r.env.NProc, len(r.digests))
	fmt.Fprintf(w, "  offered %d  lost %d  loss_pct %.4g  checks passed: %v\n",
		r.attempted, r.failed, r.layers["dataplane.loss_pct"], r.correct)
	fmt.Fprintf(w, "  open loop: %.0f timed packets, latency p50 %.1f us p99 %.1f us, generator lateness p99 %.1f us\n",
		r.layers["gen.latency_samples"], r.e2e["latency_p50_us"], r.layers["latency_p99_us"], r.layers["gen.lateness_p99_us"])
	for _, p := range r.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %14.6g %-6s %s\n", d.name, vals[d.name], d.unit, d.moves)
	}
	detail := struct {
		Env     environment        `json:"env"`
		Samples map[string]summary `json:"samples"`
		Digests []string           `json:"digests"`
	}{r.env, r.samples, r.digests}
	line, _ := json.Marshal(detail) // plain structs and maps: cannot fail
	fmt.Fprintf(w, "%s\n", line)

	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics}
	line, _ = json.Marshal(out)
	fmt.Fprintf(w, "%s\n", line)
}
