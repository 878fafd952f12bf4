package main

// metricDef is one metric the benchmark prints. BENCHMARK.json lists the
// same names, units, directions and bounds (TestBenchmarkJSONMatches keeps
// the two in step); moves records, for a per-layer metric, which
// end-to-end metric on which workload it is expected to move — the layer
// map a change to that layer is judged against.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening share
	moves              string
}

// endToEnd are the metrics a user of the dataplane sees (--trace 0). The
// open-loop p99 is one too, but on a shared 2-vCPU host it moved by more
// than the largest allowed bound between otherwise identical runs, so it
// is reported unbounded with the per-layer metrics.
var endToEnd = []metricDef{
	{name: "throughput_pps", unit: "pkt/s", better: "higher", bound: 0.25},
	{name: "cpu_ns_per_pkt", unit: "ns", better: "lower", bound: 0.25},
	{name: "latency_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.2},
}

// nfKinds are the element kinds the three deployed graphs contain; each
// gets an nf.<Kind>_ns_per_pkt metric (0 where a workload's graph lacks it).
var nfKinds = []string{
	"FromDevice", "Duplicator", "CheckIPHeader", "ACL", "IPLookup", "DecTTL",
	"EtherEncap", "NATRewrite", "AhoCorasick", "RegexDFA", "XORMerge", "ToDevice",
}

var nfMoves = map[string]string{
	"NATRewrite":  "cpu_ns_per_pkt and throughput_pps on newflow-64 (insert) and established-imix (hit)",
	"ACL":         "cpu_ns_per_pkt and throughput_pps on established-imix (1000 rules)",
	"AhoCorasick": "throughput_pps and latency_p50_us on payload-1360 only",
	"RegexDFA":    "throughput_pps and latency_p50_us on payload-1360 only",
	"Duplicator":  "cpu_ns_per_pkt and peak_rss_mb on payload-1360 only (parallelized chain)",
	"XORMerge":    "cpu_ns_per_pkt and peak_rss_mb on payload-1360 only (parallelized chain)",
}

func nfMetric(kind string) string { return "nf." + kind + "_ns_per_pkt" }

// perLayer are the traced run's metrics (--trace 1).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "ingress.read_ns_per_pkt", unit: "ns", better: "lower",
			moves: "throughput_pps and cpu_ns_per_pkt on newflow-64; ~0 share on payload-1360"},
		{name: "ingress.rss_ns_per_pkt", unit: "ns", better: "lower",
			moves: "throughput_pps and cpu_ns_per_pkt on newflow-64; ~0 share on payload-1360"},
		{name: "flowtable.conntrack_ns_per_pkt", unit: "ns", better: "lower",
			moves: "cpu_ns_per_pkt on newflow-64 (insert path) and established-imix (hit path); none on payload-1360"},
		{name: "flowtable.hit_ratio", unit: "ratio", better: "higher",
			moves: "context: 0 on newflow-64, ~1 on established-imix and payload-1360"},
		{name: "flowtable.peak_flows", unit: "count", better: "lower",
			moves: "peak_rss_mb on newflow-64 (TTL plateau)"},
		{name: "flowtable.expired", unit: "count", better: "lower",
			moves: "cpu_ns_per_pkt on newflow-64"},
		{name: "flowtable.evicted", unit: "count", better: "lower",
			moves: "cpu_ns_per_pkt on newflow-64; 0 while the plateau stays under capacity"},
	}
	for _, k := range nfKinds {
		mv := nfMoves[k]
		if mv == "" {
			mv = "cpu_ns_per_pkt on newflow-64 and established-imix (per-packet framework-sized work)"
		}
		defs = append(defs, metricDef{name: nfMetric(k), unit: "ns", better: "lower", moves: mv})
	}
	return append(defs, []metricDef{
		{name: "sink.digest_ns_per_pkt", unit: "ns", better: "lower",
			moves: "benchmark's own output check; cpu_ns_per_pkt on payload-1360 (hashes 1360 B)"},
		{name: "netpkt.release_ns_per_pkt", unit: "ns", better: "lower",
			moves: "cpu_ns_per_pkt on newflow-64"},
		{name: "netpkt.allocs_per_pkt", unit: "count", better: "lower",
			moves: "latency_p99_us and peak_rss_mb on newflow-64 (conntrack + NAT entry per new flow)"},
		{name: "netpkt.alloc_bytes_per_pkt", unit: "B", better: "lower",
			moves: "latency_p99_us and peak_rss_mb on newflow-64; payload-1360 via XORMerge clones"},
		{name: "runtime.gc_cpu_pct", unit: "%", better: "lower",
			moves: "latency_p99_us and cpu_ns_per_pkt on newflow-64"},
		{name: "runtime.gc_cycles", unit: "count", better: "lower",
			moves: "latency_p99_us on newflow-64"},
		{name: "runtime.gc_pause_p99_us", unit: "us", better: "lower",
			moves: "latency_p99_us on newflow-64"},
		{name: "dataplane.overhead_ns_per_pkt", unit: "ns", better: "lower",
			moves: "throughput_pps on newflow-64 (dispatch, channel hops, hooks, drain, runtime)"},
		{name: "dataplane.explained_pct", unit: "%", better: "higher",
			moves: "context: share of cpu_ns_per_pkt the traced layers account for"},
		{name: "dataplane.pkts_per_batch", unit: "count", better: "higher",
			moves: "latency_p50_us on every workload (the pump flushes at 64 packets)"},
		{name: "dataplane.loss_pct", unit: "%", better: "lower",
			moves: "correctness: offered packets neither delivered nor policy-dropped; must be 0"},
		{name: "setup.parse_s", unit: "s", better: "lower",
			moves: "setup_s on established-imix (1000-rule ACL tree) and payload-1360 (pattern automata)"},
		{name: "setup.deploy_s", unit: "s", better: "lower",
			moves: "setup_s and peak_rss_mb on payload-1360 (per-shard Deploy)"},
		{name: "setup.pipeline_s", unit: "s", better: "lower",
			moves: "setup_s on every workload"},
		{name: "latency_p99_us", unit: "us", better: "lower",
			moves: "end-to-end open-loop tail; moved by GC (newflow-64), batch fill and host stalls"},
		{name: "gen.lateness_p99_us", unit: "us", better: "lower",
			moves: "validity of latency_p50_us and latency_p99_us: how late the open-loop generator ran"},
		{name: "gen.latency_samples", unit: "count", better: "higher",
			moves: "validity: timed packets behind latency_p50_us and latency_p99_us"},
	}...)
}()
