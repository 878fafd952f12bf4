package main

import (
	"context"
	"fmt"
	"hash/maphash"
	"os"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"nfcompass/internal/core"
	"nfcompass/internal/dataplane"
	"nfcompass/internal/element"
	"nfcompass/internal/flight"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/ingress"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/spec"
	"nfcompass/internal/traffic"
)

// pumpConfig is the ingress configuration of nfcompass -source nic with
// -rx-workers 1, except that the conntrack TTL is expressed in the
// synthetic clock.
func pumpConfig(nic *ingress.NIC, rec *flight.Recorder) ingress.PumpConfig {
	return ingress.PumpConfig{
		BatchSize: 64, NIC: nic, FlowTTL: int64(flowTTLNs), RXWorkers: 1, Flight: rec,
	}
}

// Conntrack shape Pump uses when PumpConfig leaves it at the defaults.
const (
	pumpFlowStripes  = 64
	pumpFlowCapacity = 1 << 21
	pumpExpiryBudget = 64
)

// deployment is one spec → ready pipeline set-up.
type deployment struct {
	graphs []*element.Graph
	sp     *dataplane.ShardedPipeline
	rec    *flight.Recorder
	nic    *ingress.NIC
	setupTimes
}

// setupTimes splits one set-up's wall time.
type setupTimes struct{ parse, deploy, pipeline time.Duration }

// gtaSamples generates the per-shard sample traffic core.Deploy profiles
// (as nfcompass does: 120 batches of 64 over 256 flows). It is trace
// generation and stays outside the set-up timing.
func (w *workload) gtaSamples() [][]*netpkt.Batch {
	out := make([][]*netpkt.Batch, w.shards)
	for i := range out {
		gen := traffic.NewGenerator(traffic.Config{Size: w.size, Seed: chainSeed + 1000, Flows: 256})
		out[i] = gen.Batches(120, 64)
	}
	return out
}

// setup deploys the chain: spec.Parse, core.Deploy per shard, and
// dataplane.NewSharded with the shipped defaults (metrics, flight recorder,
// compiled stage loops, QueueDepth 8).
func (w *workload) setup() (*deployment, error) {
	samples := w.gtaSamples()
	d := &deployment{graphs: make([]*element.Graph, w.shards)}
	t0 := time.Now()
	chain, err := spec.Parse(w.chain, chainSeed)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	platform := hetsim.DefaultPlatform()
	for i := range d.graphs {
		dep, err := core.Deploy(chain, platform, samples[i], core.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("deploy shard %d: %w", i, err)
		}
		d.graphs[i] = dep.Graph
	}
	t2 := time.Now()
	d.rec = flight.New(flight.Config{})
	d.sp, err = dataplane.NewSharded(func(i int) (*element.Graph, error) { return d.graphs[i], nil },
		dataplane.ShardedConfig{
			Shards: w.shards,
			Config: dataplane.Config{QueueDepth: 8, Metrics: true, Flight: d.rec},
		})
	if err != nil {
		return nil, err
	}
	d.nic = ingress.NewNIC(w.shards)
	t3 := time.Now()
	d.parse, d.deploy, d.pipeline = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	return d, nil
}

// digest is an order-independent fingerprint of a packet multiset.
type digest struct {
	sum, xor uint64
	live     uint64
	dropped  uint64
}

var digestSeed = maphash.MakeSeed()

func (d *digest) add(p *netpkt.Packet) {
	var h uint64
	if p.Dropped {
		h = maphash.String(digestSeed, "drop:"+p.DropReason)
		d.dropped++
	} else {
		h = maphash.Bytes(digestSeed, p.Data)
		d.live++
	}
	d.sum += h
	d.xor ^= h * 0x9e3779b97f4a7c15
}

func (d digest) String() string {
	return fmt.Sprintf("%016x%016x/%d+%d", d.sum, d.xor, d.live, d.dropped)
}

// liveSink digests every output packet and, in the open loop, samples
// latency from each packet's due time to Consume.
type liveSink struct {
	src       *clockSource
	dg        digest
	delivered atomic.Int64 // live + dropped packets consumed
	latency   *sampler
}

// Consume implements ingress.Sink.
func (s *liveSink) Consume(b *netpkt.Batch) error {
	var now int64
	from := s.src.measureFrom.Load()
	for _, p := range b.Packets {
		s.dg.add(p)
		if i := packetIndex(p); i >= from && i%s.src.stride == 0 && !p.Dropped {
			if now == 0 {
				now = int64(time.Since(s.src.base))
			}
			s.latency.add(i, now-s.src.due(i))
		}
	}
	s.delivered.Add(int64(len(b.Packets)))
	b.Release()
	return nil
}

// Close implements ingress.Sink.
func (s *liveSink) Close() error { return nil }

// phasePlan splits one process's measured seconds between the two
// measured phases.
type phasePlan struct {
	warm, window    time.Duration
	windows         int
	olWarm, olMeter time.Duration
	// olWindows is the number of open-loop latency windows. Percentiles
	// are taken per window and the run reports their median: on a shared
	// host a p99 over seconds is set by the one or two host stalls it
	// happens to contain, a p99 over a short window by the chain.
	olWindows int
}

func planFor(seconds float64) phasePlan {
	half := time.Duration(seconds / 2 * float64(time.Second))
	const windows = 10
	return phasePlan{
		warm: 500 * time.Millisecond, window: half / windows, windows: windows,
		olWarm: 300 * time.Millisecond, olMeter: half, olWindows: 20,
	}
}

// liveResult is what the untraced run measured.
type liveResult struct {
	offered     int64
	dg          digest
	windows     []snapshot // ceiling-phase window boundaries
	end         snapshot   // end of the open loop
	latency     *sampler
	lateness    *sampler
	pump        *ingress.PumpStats
	ledgerTotal uint64
	ceilFrom    int64 // source index at the first ceiling window boundary
	ceilTo      int64 // ... and at the last
	measureFrom int64 // first timed open-loop packet
	peakRSSMB   float64
}

// runLive runs the deployment on the real pipeline: warm-up and the
// unpaced closed-loop ceiling windows, then the paced open loop, then
// stop. Profiles cover both measured phases.
func runLive(w *workload, d *deployment, capt []byte, plan phasePlan, prof profiles) (*liveResult, error) {
	src, err := w.openSource(capt, d.nic.Arena(0))
	if err != nil {
		return nil, err
	}
	cs := newClockSource(src, w)
	defer cs.Close()
	olSamples := int(w.ratePPS*plan.olMeter.Seconds()*1.2)/int(w.sampleStride()) + 1024
	cs.lateness = newSampler(olSamples)
	sink := &liveSink{src: cs, latency: newSampler(olSamples)}

	smp := flight.NewSampler(d.rec, flight.DefaultSampleInterval)
	smp.Start()
	done := make(chan pumpDone, 1)
	go func() {
		st, err := ingress.Pump(context.Background(), cs, d.sp, sink, pumpConfig(d.nic, d.rec))
		done <- pumpDone{st, err}
	}()

	// The controller only sleeps between boundaries; a snapshot reads the
	// sink's counter and process-wide meters.
	res := &liveResult{latency: sink.latency, lateness: cs.lateness}
	failed := func(err error) (*liveResult, error) {
		prof.stopCPU()
		cs.stop.Store(true)
		r := <-done
		smp.Stop()
		return nil, fmt.Errorf("%w (pump: %v)", err, r.err)
	}
	if !sleepOrDone(plan.warm, done) {
		return failed(fmt.Errorf("pump ended during warm-up"))
	}
	if err := prof.startCPU(); err != nil {
		return failed(err)
	}
	res.ceilFrom = cs.n.Load()
	res.windows = append(res.windows, takeSnapshot(sink.delivered.Load()))
	for k := 0; k < plan.windows; k++ {
		if !sleepOrDone(plan.window, done) {
			return failed(fmt.Errorf("pump ended during the ceiling phase"))
		}
		res.windows = append(res.windows, takeSnapshot(sink.delivered.Load()))
	}
	res.ceilTo = cs.n.Load()

	cs.olWarmPkts = int64(plan.olWarm.Seconds() * w.ratePPS)
	cs.paceAt.Store(true)
	ok := sleepOrDone(plan.olWarm+plan.olMeter, done)
	res.end = takeSnapshot(sink.delivered.Load())
	prof.stopCPU()
	cs.stop.Store(true)
	r := <-done
	smp.Stop()
	if !ok && r.err == nil {
		r.err = fmt.Errorf("source ended early")
	}
	if r.err != nil {
		return nil, fmt.Errorf("pump: %w", r.err)
	}
	if err := prof.writeHeap(); err != nil {
		return nil, err
	}
	res.pump = r.st
	res.offered = cs.n.Load()
	res.measureFrom = cs.measureFrom.Load()
	res.dg = sink.dg
	res.ledgerTotal = d.rec.Ledger().Total()
	res.peakRSSMB = maxRSSMB()
	return res, nil
}

type pumpDone struct {
	st  *ingress.PumpStats
	err error
}

// sleepOrDone sleeps d unless the pump finishes first; it reports whether
// the full sleep elapsed (the done value is left for the caller).
func sleepOrDone(d time.Duration, done chan pumpDone) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case v := <-done:
		done <- v
		return false
	}
}

// profiles writes the optional -cpuprofile / -memprofile files.
type profiles struct {
	cpuPath, memPath string
	cpuFile          *os.File
}

func (p *profiles) startCPU() error {
	if p.cpuPath == "" {
		return nil
	}
	f, err := os.Create(p.cpuPath)
	if err != nil {
		return err
	}
	p.cpuFile = f
	return pprof.StartCPUProfile(f)
}

func (p *profiles) stopCPU() {
	if p.cpuFile == nil {
		return
	}
	pprof.StopCPUProfile()
	if err := p.cpuFile.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cpu profile: %v\n", err)
	}
	p.cpuFile = nil
}

func (p *profiles) writeHeap() error {
	if p.memPath == "" {
		return nil
	}
	f, err := os.Create(p.memPath)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
