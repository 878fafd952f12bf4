package dataplane

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"nfcompass/internal/element"
	"nfcompass/internal/flight"
)

// TestPipelineFlightSpans: a pipeline with a recorder attached records one
// release span per output batch, one element span and matching busy time
// per element per batch (at TimingSample 1), and exposes its inbox through
// a shard queue probe — with or without the Metrics layer, since element
// lanes are flight's own record, not a by-product of metrics.
func TestPipelineFlightSpans(t *testing.T) {
	for _, metrics := range []bool{true, false} {
		t.Run(fmt.Sprintf("metrics=%v", metrics), func(t *testing.T) {
			const batches = 30
			rec := flight.New(flight.Config{})
			g := testChainGraph()
			outs, _, err := RunBatches(context.Background(), g,
				Config{Metrics: metrics, PreserveOrder: true, Flight: rec}, genBatches(batches, 32, 5))
			if err != nil {
				t.Fatal(err)
			}
			if len(outs) != batches {
				t.Fatalf("out batches = %d", len(outs))
			}

			var release, elems int
			for _, s := range rec.Spans() {
				switch {
				case s.Stage == flight.StageRelease:
					release++
				case strings.HasPrefix(s.Stage, "nf:"):
					elems++
					if s.Placement != "cpu" || s.Packets != 32 {
						t.Fatalf("element span = %+v, want placement cpu and 32 packets", s)
					}
				}
			}
			if release != batches {
				t.Errorf("release spans = %d, want one per output batch (%d)", release, batches)
			}
			if elems != batches*g.Len() {
				t.Errorf("element spans = %d, want %d", elems, batches*g.Len())
			}

			var sawShardProbe bool
			for _, s := range rec.Samples() {
				if strings.HasPrefix(s.Stage, "nf:") && s.BusyNs <= 0 {
					t.Errorf("%s booked no busy time", s.Stage)
				}
				if s.Stage == flight.StageShard && s.HasQueue {
					sawShardProbe = true
					if s.QueueCap <= 0 {
						t.Errorf("shard probe capacity = %d", s.QueueCap)
					}
				}
			}
			if !sawShardProbe {
				t.Error("no shard inbox queue probe registered")
			}
		})
	}
}

// TestPipelineFlightStall: backpressure on an element's sends reaches its
// flight lane as stall, booked from the same measured wait as the
// element's SendWaitNs.
func TestPipelineFlightStall(t *testing.T) {
	rec := flight.New(flight.Config{})
	g := linearGraph(element.NewDecTTL("ttl"), &delay{name: "slow", d: 200 * time.Microsecond})
	_, p, err := RunBatches(context.Background(), g,
		Config{QueueDepth: 1, Metrics: true, Flight: rec, DisableCompile: true},
		genBatches(40, 8, 9))
	if err != nil {
		t.Fatal(err)
	}
	wait := map[string]uint64{}
	for _, e := range p.Snapshot().Elements {
		wait["nf:"+e.Name] = e.SendWaitNs
	}
	var stalled int
	for _, s := range rec.Samples() {
		if !strings.HasPrefix(s.Stage, "nf:") {
			continue
		}
		if uint64(s.StallNs) != wait[s.Stage] {
			t.Errorf("%s: flight stall %d ns != SendWaitNs %d ns", s.Stage, s.StallNs, wait[s.Stage])
		}
		if s.StallNs > 0 {
			stalled++
		}
	}
	if wait["nf:ttl"] == 0 || stalled == 0 {
		t.Fatalf("the slow element never backpressured its sender (ttl send-wait %d ns)", wait["nf:ttl"])
	}
}

// auditElementSpans is the hot-swap audit read from a pipeline's element
// spans: every (element, batch) visited exactly once — batches × elements
// visits in all — and, within one placement epoch, every element ran under
// one placement and one segment. Elements are identified by their
// "nf:<name>" lane, so element names must be unique in g; the recorder
// must hold at least batches spans per lane.
func auditElementSpans(t *testing.T, rec *flight.Recorder, g *element.Graph, batches int) {
	t.Helper()
	type visit struct {
		stage string
		batch uint64
	}
	type stageEpoch struct {
		stage string
		epoch uint64
	}
	type placeSeg struct {
		place string
		seg   int
	}
	visited := make(map[visit]placeSeg)
	perEpoch := make(map[stageEpoch]placeSeg)
	for _, sp := range rec.Spans() {
		if !strings.HasPrefix(sp.Stage, "nf:") {
			continue
		}
		ps := placeSeg{place: sp.Placement, seg: sp.Segment}
		v := visit{stage: sp.Stage, batch: sp.Batch}
		if prev, ok := visited[v]; ok {
			t.Fatalf("%s visited batch %d twice (%+v, %+v)", sp.Stage, sp.Batch, prev, ps)
		}
		visited[v] = ps
		se := stageEpoch{stage: sp.Stage, epoch: sp.Epoch}
		if prev, ok := perEpoch[se]; ok && prev != ps {
			t.Fatalf("%s changed placement/segment within epoch %d: %+v then %+v",
				sp.Stage, sp.Epoch, prev, ps)
		}
		perEpoch[se] = ps
	}
	if len(visited) != batches*g.Len() {
		t.Fatalf("element spans recorded %d visits, want %d", len(visited), batches*g.Len())
	}
}

// TestShardedFlightSpans: the sharded pipeline assigns each replica its
// shard index as the flight lane, records dispatch spans on the funnel, and
// probes both the dispatch queue and every shard inbox.
func TestShardedFlightSpans(t *testing.T) {
	rec := flight.New(flight.Config{})
	build := func(int) (*element.Graph, error) { return testChainGraph(), nil }
	const shards = 3
	outs, _, err := RunBatchesSharded(context.Background(), build, ShardedConfig{
		Shards: shards,
		Config: Config{Metrics: true, Flight: rec},
	}, genBatches(40, 32, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) == 0 {
		t.Fatal("no output batches")
	}

	var dispatch int
	lanes := map[string]map[int]bool{}
	for _, s := range rec.Spans() {
		if s.Stage == flight.StageDispatch {
			dispatch++
		}
		if lanes[s.Stage] == nil {
			lanes[s.Stage] = map[int]bool{}
		}
		lanes[s.Stage][s.Lane] = true
	}
	if dispatch != 40 {
		t.Errorf("dispatch spans = %d, want one per injected batch (40)", dispatch)
	}
	if got := len(lanes[flight.StageRelease]); got != shards {
		t.Errorf("release spans on %d lanes, want one per shard (%d)", got, shards)
	}

	probes := map[string]int{}
	for _, s := range rec.Samples() {
		if s.HasQueue {
			probes[s.Stage]++
		}
	}
	if probes[flight.StageDispatch] != 1 {
		t.Errorf("dispatch queue probes = %d, want 1", probes[flight.StageDispatch])
	}
	if probes[flight.StageShard] != shards {
		t.Errorf("shard inbox probes = %d, want %d", probes[flight.StageShard], shards)
	}
}
