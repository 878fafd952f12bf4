package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &bf
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric registry in
// step: same workloads, same metric names, units, directions and bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why %q), want %q with a one-line why", i, w.Name, w.Why, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark prints %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, benchmark defines %+v", i, m, d)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, benchmark defines %+v", i, m, d)
		}
	}
}

// lastLine decodes the final line of a report.
func lastLine(t *testing.T, out string) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var v map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return v
}

// TestTinyPass runs every workload briefly and checks the contract of the
// printed result: each metric of BENCHMARK.json present with its unit,
// the live digest equal to the reference replay's, nothing lost, and the
// traced layers plus the overhead adding up to cpu_ns_per_pkt.
func TestTinyPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := loadBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			c, err := measure(w, 3, planFor(1), profiles{}, "")
			if err != nil {
				t.Fatal(err)
			}
			r := aggregate(w, 3, []*childResult{c})
			if !r.correct || r.failed != 0 || r.attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", r.correct, r.attempted, r.failed, r.problems)
			}
			for _, traced := range []bool{false, true} {
				var buf bytes.Buffer
				r.print(&buf, traced)
				res := lastLine(t, buf.String())
				if len(res) != 4 || res["correct"] != true {
					t.Fatalf("result keys/verdict: %v", res)
				}
				metrics := res["metrics"].(map[string]any)
				want := map[string]string{}
				if traced {
					for _, m := range bf.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range bf.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				if len(metrics) != len(want) {
					t.Errorf("printed %d metrics, want %d", len(metrics), len(want))
				}
				for name, unit := range want {
					m, ok := metrics[name].(map[string]any)
					if !ok || m["unit"] != unit {
						t.Errorf("metric %s: got %v, want unit %s", name, metrics[name], unit)
						continue
					}
					if v := m["value"].(float64); math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("metric %s = %v", name, v)
					}
					if !traced && m["value"].(float64) <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m["value"])
					}
				}
			}

			var sum float64
			for _, d := range perLayer {
				if strings.HasSuffix(d.name, "_ns_per_pkt") && d.name != "dataplane.overhead_ns_per_pkt" {
					sum += r.layers[d.name]
				}
			}
			cpu := r.e2e["cpu_ns_per_pkt"]
			if got := sum + r.layers["dataplane.overhead_ns_per_pkt"]; math.Abs(got-cpu) > 1e-9*cpu {
				t.Errorf("layers %.3f + overhead %.3f = %.3f, cpu_ns_per_pkt %.3f",
					sum, r.layers["dataplane.overhead_ns_per_pkt"], got, cpu)
			}
			if e := r.layers["dataplane.explained_pct"]; math.Abs(e-100*sum/cpu) > 1e-9 {
				t.Errorf("explained_pct %.3f, want %.3f", e, 100*sum/cpu)
			}
		})
	}
}

// TestSpansWritten checks the traced replay's spans reach the -spans file
// with one line per span and a batch ID shared across layers.
func TestSpansWritten(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	w, err := findWorkload("established-imix")
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/spans.ndjson"
	if _, err := measure(w, 5, planFor(0.5), profiles{}, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	layers := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var s struct {
			Batch int    `json:"batch"`
			Layer string `json:"layer"`
		}
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("span %q: %v", line, err)
		}
		if s.Batch == 0 {
			layers[s.Layer] = true
		}
	}
	for _, l := range []string{"ingress.read", "ingress.rss", "flowtable.conntrack", "nf.ACL", "nf.NATRewrite", "sink.digest", "netpkt.release"} {
		if !layers[l] {
			t.Errorf("batch 0 has no %s span (has %v)", l, layers)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}
