package dataplane

// Differential gate for compiled CPU stage-loops: the compiled pipeline
// must be observationally identical to the interpreted one (DisableCompile)
// on every graph shape, traffic mix, and observability mode — multiset of
// per-packet outcomes, exact batch order under PreserveOrder, per-flow
// order under sharding. The harness reuses the random graph builders and
// traffic from differential_test.go so compiled coverage tracks whatever
// shapes the interpreted differential already explores.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"testing"

	"nfcompass/internal/element"
	"nfcompass/internal/flight"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
)

// runCompiledPair runs the same build/traffic through the compiled and the
// interpreted pipeline and returns both outputs.
func runCompiledPair(t *testing.T, build func(int64) *element.Graph, seed int64,
	cfg Config, n, per int) (compiled, interpreted []*netpkt.Batch, p *Pipeline) {
	t.Helper()
	run := func(disable bool) ([]*netpkt.Batch, *Pipeline) {
		c := cfg
		c.DisableCompile = disable
		outs, pl, err := RunBatches(context.Background(), build(seed), c,
			diffTraffic(seed, n, per))
		if err != nil {
			t.Fatal(err)
		}
		return outs, pl
	}
	compiled, p = run(false)
	interpreted, _ = run(true)
	return compiled, interpreted, p
}

// TestCompiledVsInterpretedMultiset: with observability off (the Direct
// path), random graphs must emit exactly the interpreted pipeline's
// multiset of per-packet outcomes. Compiled batches must actually have
// executed across the trial set, or the test is vacuous.
func TestCompiledVsInterpretedMultiset(t *testing.T) {
	builders := map[string]func(int64) *element.Graph{
		"linear":  buildLinearRand,
		"diamond": buildDiamondRand,
		"fanout":  buildFanoutRand,
	}
	var compiledBatches uint64
	for name, build := range builders {
		for trial := int64(0); trial < 6; trial++ {
			seed := 100*trial + 31
			t.Run(fmt.Sprintf("%s/%d", name, trial), func(t *testing.T) {
				cout, iout, p := runCompiledPair(t, build, seed,
					Config{QueueDepth: 1 + int(trial%3)}, 24, 16)
				compiledBatches += p.snapshotOffload().CompiledBatches
				want, got := multiset(iout), multiset(cout)
				if len(want) != len(got) {
					t.Fatalf("distinct outcomes differ: interpreted=%d compiled=%d",
						len(want), len(got))
				}
				for k, n := range want {
					if got[k] != n {
						t.Fatalf("outcome %.40q: interpreted=%d compiled=%d", k, n, got[k])
					}
				}
			})
		}
	}
	if compiledBatches == 0 {
		t.Fatal("no compiled stage-loop executed across any trial")
	}
}

// TestCompiledVsInterpretedExactOrder: under PreserveOrder with metrics on
// (the Observed path), compilation must be invisible — same batch order,
// same packets, same bytes.
func TestCompiledVsInterpretedExactOrder(t *testing.T) {
	builders := map[string]func(int64) *element.Graph{
		"linear":  buildLinearRand,
		"diamond": buildDiamondRand,
	}
	for name, build := range builders {
		for trial := int64(0); trial < 6; trial++ {
			seed := 100*trial + 57
			t.Run(fmt.Sprintf("%s/%d", name, trial), func(t *testing.T) {
				cout, iout, _ := runCompiledPair(t, build, seed,
					Config{PreserveOrder: true, Metrics: true, QueueDepth: 2}, 30, 8)
				if len(cout) != len(iout) {
					t.Fatalf("batch counts differ: compiled=%d interpreted=%d",
						len(cout), len(iout))
				}
				for i := range cout {
					cb, ib := cout[i], iout[i]
					if cb.ID != ib.ID || len(cb.Packets) != len(ib.Packets) {
						t.Fatalf("batch %d: id/count mismatch (%d/%d vs %d/%d)",
							i, cb.ID, len(cb.Packets), ib.ID, len(ib.Packets))
					}
					for j := range cb.Packets {
						cp, ip := cb.Packets[j], ib.Packets[j]
						if cp.Dropped != ip.Dropped {
							t.Fatalf("batch %d pkt %d: drop flag %v vs %v",
								cb.ID, j, cp.Dropped, ip.Dropped)
						}
						if !cp.Dropped && !bytes.Equal(cp.Data, ip.Data) {
							t.Fatalf("batch %d pkt %d: payload differs under compilation", cb.ID, j)
						}
					}
				}
			})
		}
	}
}

// TestCompiledPerFlowOrderSharded: compilation inside sharded replicas must
// preserve the flow-affinity guarantee — packets of one flow surface in
// injection order — and match the interpreted shards' outcome multiset.
func TestCompiledPerFlowOrderSharded(t *testing.T) {
	build := func(int) (*element.Graph, error) { return hotChainGraph(), nil }
	const flows = 13
	run := func(disable bool) []*netpkt.Batch {
		outs, _, err := RunBatchesSharded(context.Background(), build,
			ShardedConfig{Shards: 4, Ordered: false,
				Config: Config{QueueDepth: 2, DisableCompile: disable}},
			seqTraffic(flows, 40, 16))
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}
	cout, iout := run(false), run(true)

	lastSeq := make(map[uint32]int64)
	seen := 0
	for _, b := range cout {
		for _, p := range b.Packets {
			if p.Dropped {
				t.Fatalf("unexpected drop: %v", p)
			}
			payload := p.Payload()
			f := binary.BigEndian.Uint32(payload[0:4])
			seq := int64(binary.BigEndian.Uint32(payload[4:8]))
			if prev, ok := lastSeq[f]; ok && seq <= prev {
				t.Fatalf("flow %d: seq %d after %d (per-flow order violated)", f, seq, prev)
			}
			lastSeq[f] = seq
			seen++
		}
	}
	if seen != 40*16 {
		t.Fatalf("saw %d packets, want %d", seen, 40*16)
	}
	want, got := multiset(iout), multiset(cout)
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("outcome %.40q: interpreted=%d compiled=%d", k, n, got[k])
		}
	}
}

// TestCompiledHotPathAllocs extends the 0-alloc guard to the compiled
// stage-loop: the Direct path must stay allocation-free in steady state,
// and it must actually be the path taken (CompiledBatches advancing, hops
// elided). The interpreted arm pins the same bound with compilation off,
// so a regression in either path is attributed correctly. The observed arm
// pins it for the shipped configuration — metrics and flight on — where
// pooled markers walk the members and every element span carries its
// placement label.
func TestCompiledHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	for _, arm := range []struct {
		name string
		cfg  Config
	}{
		{"compiled", Config{QueueDepth: 4}},
		{"interpreted", Config{QueueDepth: 4, DisableCompile: true}},
		{"observed", Config{QueueDepth: 4, Metrics: true, Flight: flight.New(flight.Config{})}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			p, err := New(hotChainGraph(), arm.cfg)
			if err != nil {
				t.Fatal(err)
			}
			p.Start(context.Background())
			tmpl := hotTemplate(32)
			iter := func() {
				b := tmpl.ClonePooled()
				p.In() <- b
				out := <-p.Out()
				out.Release()
			}
			for i := 0; i < 64; i++ {
				iter()
			}
			allocs := testing.AllocsPerRun(200, iter)
			p.CloseInput()
			if err := p.Wait(); err != nil {
				t.Fatal(err)
			}
			o := p.snapshotOffload()
			if arm.cfg.DisableCompile {
				if o.CompiledBatches != 0 {
					t.Fatalf("DisableCompile ran %d compiled batches", o.CompiledBatches)
				}
			} else {
				if o.CompiledBatches == 0 {
					t.Fatal("compiled stage-loop never executed on the hot chain")
				}
				if arm.cfg.Flight == nil && o.CompiledHopsSaved == 0 {
					t.Fatal("compiled stage-loop saved no hops")
				}
			}
			if arm.cfg.Flight != nil && len(arm.cfg.Flight.Spans()) == 0 {
				t.Fatal("observed arm recorded no spans")
			}
			if allocs > 0 {
				t.Fatalf("%s hot path: %.2f allocs/op, want 0", arm.name, allocs)
			}
		})
	}
}

// TestHotSwapMidCompiledSegmentZeroLoss mirrors the fused-segment swap
// test on the CPU side: hot-swapping between the compiled all-CPU
// placement and placements that break the segment (GPU / split members)
// while batches are mid-chain loses zero packets, preserves batch order,
// and never lets one element run under two placements — or two segment
// identities — within one epoch.
func TestHotSwapMidCompiledSegmentZeroLoss(t *testing.T) {
	const batches, perBatch = 90, 16
	rec := flight.New(flight.Config{SpansPerLane: batches})
	g := hotSwapChain()
	p, err := New(g, Config{
		QueueDepth: 2, PreserveOrder: true, Metrics: true, Flight: rec,
		Offload: &OffloadConfig{MaxOutstanding: 4, AggregateLimit: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start(context.Background())

	var outs []*netpkt.Batch
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for b := range p.Out() {
			outs = append(outs, b)
		}
	}()

	// Cycle between the compiled all-CPU placement, a placement that breaks
	// the compiled segment in the middle (member 2 on the GPU), and a split
	// member — forming and re-forming the stage-loop while work is in
	// flight.
	swaps := []hetsim.Assignment{
		{2: {Mode: hetsim.ModeGPU}},
		nil, // all-CPU: the interior compiles into one stage-loop
		{1: {Mode: hetsim.ModeSplit, GPUFraction: 0.5}, 3: {Mode: hetsim.ModeGPU}},
		nil,
	}
	for i, b := range seqTraffic(7, batches, perBatch) {
		if i > 0 && i%10 == 0 {
			if err := p.Apply(swaps[(i/10-1)%len(swaps)]); err != nil {
				t.Fatal(err)
			}
		}
		p.In() <- b
	}
	p.CloseInput()
	<-collected
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}

	if got := p.Stats.OutPackets.Load(); got != batches*perBatch {
		t.Fatalf("out packets = %d, want %d (packets lost across mid-segment swap)",
			got, batches*perBatch)
	}
	if p.Stats.DropPackets.Load() != 0 {
		t.Fatalf("drops = %d across mid-segment swap", p.Stats.DropPackets.Load())
	}
	for i, b := range outs {
		if b.ID != uint64(i) {
			t.Fatalf("batch %d surfaced at position %d", b.ID, i)
		}
	}
	if o := p.snapshotOffload(); o.CompiledBatches == 0 {
		t.Fatal("no compiled stage-loop executed: swap schedule never reached the compiled placement")
	}

	auditElementSpans(t, rec, g, batches)
}

// badFanout declares one output port but starts violating the contract
// after a few batches: returning its input twice, or nothing at all. The
// shape a buggy element's bug takes mid-stage-loop.
type badFanout struct {
	name  string
	after int
	empty bool // return zero outputs instead of a duplicate
	seen  int
}

func (e *badFanout) Name() string           { return e.name }
func (e *badFanout) Traits() element.Traits { return element.Traits{Kind: "BadFanout"} }
func (e *badFanout) NumOutputs() int        { return 1 }
func (e *badFanout) Signature() string      { return "BadFanout" }
func (e *badFanout) Process(b *netpkt.Batch) []*netpkt.Batch {
	e.seen++
	if e.seen > e.after {
		if e.empty {
			return nil
		}
		return []*netpkt.Batch{b, b}
	}
	return []*netpkt.Batch{b}
}

// TestCompiledDrainAudit: a member erroring mid-stage-loop must surface
// the contract violation as a pipeline error — not a deadlock — and the
// stage-loop must release its working set back to the arena exactly once.
// Pool poisoning turns a double release into a panic and runs under -race
// in CI, so surviving the run is the exactly-once assertion.
func TestCompiledDrainAudit(t *testing.T) {
	netpkt.SetPoolPoison(true)
	defer netpkt.SetPoolPoison(false)
	for _, metrics := range []bool{false, true} { // Direct and Observed abort paths
		for _, empty := range []bool{false, true} {
			t.Run(fmt.Sprintf("metrics=%v/empty=%v", metrics, empty), func(t *testing.T) {
				g := element.NewGraph()
				src := g.Add(element.NewFromDevice("src"))
				chk := g.Add(element.NewCheckIPHeader("chk"))
				bad := g.Add(&badFanout{name: "bad", after: 5, empty: empty})
				ttl := g.Add(element.NewDecTTL("ttl"))
				dst := g.Add(element.NewToDevice("dst"))
				g.MustConnect(src, 0, chk)
				g.MustConnect(chk, 0, bad)
				g.MustConnect(bad, 0, ttl)
				g.MustConnect(ttl, 0, dst)

				tmpl := hotTemplate(16)
				in := make([]*netpkt.Batch, 20)
				for i := range in {
					in[i] = tmpl.ClonePooled()
					in[i].ID = uint64(i)
				}
				outs, p, err := RunBatches(context.Background(), g,
					Config{QueueDepth: 2, Metrics: metrics}, in)
				if err == nil {
					t.Fatal("contract violation did not surface as a pipeline error")
				}
				if p.snapshotOffload().CompiledBatches == 0 {
					t.Fatal("violation did not occur inside a compiled stage-loop")
				}
				// Batches that completed before the violation are still owned
				// by the collector; returning them must not double-release.
				for _, b := range outs {
					b.Release()
				}
			})
		}
	}
}

// FuzzCompiledVsInterpreted is the differential fuzz gate: arbitrary
// (graph shape, traffic, queue depth) draws must classify identically
// under the compiled and interpreted pipelines — multiset on fan-out
// shapes, byte-exact order on single-sink shapes.
func FuzzCompiledVsInterpreted(f *testing.F) {
	f.Add(int64(7), uint8(0), uint8(12), uint8(8), uint8(0))
	f.Add(int64(113), uint8(1), uint8(24), uint8(16), uint8(1))
	f.Add(int64(2026), uint8(2), uint8(6), uint8(4), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, shape, nb, per, qd uint8) {
		builders := []func(int64) *element.Graph{
			buildLinearRand, buildDiamondRand, buildFanoutRand,
		}
		shape %= 3
		build := builders[shape]
		n := 1 + int(nb%24)
		pb := 1 + int(per%16)
		cfg := Config{QueueDepth: 1 + int(qd%3)}
		exact := shape != 2 // fanout has multiple sinks: multiset only
		if exact {
			cfg.PreserveOrder, cfg.Metrics = true, true
		}
		run := func(disable bool) []*netpkt.Batch {
			c := cfg
			c.DisableCompile = disable
			outs, _, err := RunBatches(context.Background(), build(seed), c,
				diffTraffic(seed, n, pb))
			if err != nil {
				t.Fatal(err)
			}
			return outs
		}
		cout, iout := run(false), run(true)
		want, got := multiset(iout), multiset(cout)
		if len(want) != len(got) {
			t.Fatalf("distinct outcomes differ: interpreted=%d compiled=%d", len(want), len(got))
		}
		for k, c := range want {
			if got[k] != c {
				t.Fatalf("outcome %.40q: interpreted=%d compiled=%d", k, c, got[k])
			}
		}
		if !exact {
			return
		}
		if len(cout) != len(iout) {
			t.Fatalf("batch counts differ: compiled=%d interpreted=%d", len(cout), len(iout))
		}
		for i := range cout {
			cb, ib := cout[i], iout[i]
			if cb.ID != ib.ID || len(cb.Packets) != len(ib.Packets) {
				t.Fatalf("batch %d: id/count mismatch", i)
			}
			for j := range cb.Packets {
				cp, ip := cb.Packets[j], ib.Packets[j]
				if cp.Dropped != ip.Dropped ||
					(!cp.Dropped && !bytes.Equal(cp.Data, ip.Data)) {
					t.Fatalf("batch %d pkt %d: outcome differs under compilation", cb.ID, j)
				}
			}
		}
	})
}
