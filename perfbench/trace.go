package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"nfcompass/internal/element"
	"nfcompass/internal/flowtable"
	"nfcompass/internal/ingress"
	"nfcompass/internal/netpkt"
)

// Span layers outside the element graph; element kinds follow at
// layerNF+index into nfKinds.
const (
	layerRead uint16 = iota
	layerRSS
	layerConntrack
	layerDigest
	layerRelease
	layerNF
)

func layerName(l uint16) string {
	switch l {
	case layerRead:
		return "ingress.read"
	case layerRSS:
		return "ingress.rss"
	case layerConntrack:
		return "flowtable.conntrack"
	case layerDigest:
		return "sink.digest"
	case layerRelease:
		return "netpkt.release"
	}
	return "nf." + nfKinds[l-layerNF]
}

// span is one call (or one per-packet loop of calls) on one batch.
type span struct {
	start int64 // ns since the replay began
	dur   int32
	batch uint32 // batch ID, shared by every span of the batch
	layer uint16
}

// walker executes one shard's element graph on the calling goroutine in
// topological order — the interpreted twin of the compiled dataplane,
// timing each element call.
type walker struct {
	g       *element.Graph
	order   []element.NodeID
	succ    [][][]element.NodeID
	sources []element.NodeID
	layer   []uint16
	pending [][]*netpkt.Batch
	host    *element.HostBackend
}

func newWalker(g *element.Graph) (*walker, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	wk := &walker{
		g: g, order: order, sources: g.Sources(), host: element.NewHostBackend(),
		succ: make([][][]element.NodeID, g.Len()), layer: make([]uint16, g.Len()),
		pending: make([][]*netpkt.Batch, g.Len()),
	}
	for i := 0; i < g.Len(); i++ {
		id := element.NodeID(i)
		wk.succ[i] = g.Successors(id)
		kind := g.Node(id).Traits().Kind
		k := -1
		for j, name := range nfKinds {
			if name == kind {
				k = j
			}
		}
		if k < 0 {
			return nil, fmt.Errorf("element kind %q of %s has no nf metric", kind, g.Node(id).Name())
		}
		wk.layer[i] = layerNF + uint16(k)
	}
	return wk, nil
}

// run pushes b through the graph, appending the batches that reach sinks
// to out.
func (wk *walker) run(b *netpkt.Batch, tr *tracer, out []*netpkt.Batch) []*netpkt.Batch {
	for _, s := range wk.sources {
		wk.pending[s] = append(wk.pending[s], b)
	}
	for _, id := range wk.order {
		in := wk.pending[id]
		if len(in) == 0 {
			continue
		}
		el := wk.g.Node(id)
		for _, ib := range in {
			t0 := tr.now()
			outs := wk.host.Process(el, ib)
			tr.span(wk.layer[id], b.ID, t0)
			if el.NumOutputs() == 0 {
				out = append(out, ib)
				continue
			}
			for port, ob := range outs {
				if ob == nil || len(ob.Packets) == 0 {
					continue
				}
				for _, to := range wk.succ[id][port] {
					wk.pending[to] = append(wk.pending[to], ob)
				}
			}
		}
		clear(in)
		wk.pending[id] = in[:0]
	}
	return out
}

// tracer keeps the replay's spans in memory until the end.
type tracer struct {
	base  time.Time
	spans []span
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

func (tr *tracer) span(layer uint16, batch uint64, t0 int64) {
	tr.spans = append(tr.spans, span{start: t0, dur: int32(tr.now() - t0), batch: uint32(batch), layer: layer})
}

// writeSpans writes one JSON object per span.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range tr.spans {
		fmt.Fprintf(w, "{\"batch\":%d,\"layer\":%q,\"start_ns\":%d,\"dur_ns\":%d}\n", s.batch, layerName(s.layer), s.start, s.dur)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceResult is what the single-goroutine replay produced.
type traceResult struct {
	dg      digest
	packets int64
	tr      *tracer
	// batchFirst maps a batch ID to the run index of the first packet of
	// the pump flush it came from.
	batchFirst []int64
	// ct is the conntrack activity over the measured packet range.
	ct conntrackStats
}

// conntrackStats covers the flushes that begin inside the measured range.
type conntrackStats struct {
	pkts, touches, created, expired, evicted int64
	flows                                    []int // table size after each flush
}

// replay runs the first n packets of the workload's stream through the
// public calls the pump makes — PcapSource.Next, the conntrack
// flowtable.Sharded (Touch, ExpireTail, Len, configured as Pump
// configures it), NIC.Queue — and then each shard's element graph, one
// goroutine, one span per call per batch. Its output digest is the
// reference the live run must match; conntrack activity is counted over
// packet range [from, to), the live run's ceiling windows.
func replay(w *workload, graphs []*element.Graph, capt []byte, n, from, to int64) (*traceResult, error) {
	nic := ingress.NewNIC(w.shards)
	src, err := w.openSource(capt, nic.Arena(0))
	if err != nil {
		return nil, err
	}
	cs := newClockSource(src, w)
	cs.limit = n
	defer cs.Close()

	walkers := make([]*walker, len(graphs))
	for i, g := range graphs {
		if walkers[i], err = newWalker(g); err != nil {
			return nil, err
		}
	}
	ft := flowtable.NewSharded[struct{}](pumpFlowStripes, pumpFlowCapacity)
	var clock atomic.Int64
	ft.SetTTL(int64(flowTTLNs), clock.Load)
	mk := func() struct{} { return struct{}{} }

	res := &traceResult{tr: &tracer{base: time.Now(), spans: make([]span, 0, n/64*16+64)}}
	tr := res.tr
	pkts := make([]*netpkt.Packet, 0, 64)
	byQueue := make([][]*netpkt.Packet, w.shards)
	var outs []*netpkt.Batch
	var nextID uint64
	var touches, created int64
	// Counter readings at the range boundaries; each reading locks every
	// stripe, so it is taken twice, not per flush.
	var mark [2]conntrackStats
	marked := 0
	markAt := func() {
		mark[marked] = conntrackStats{touches: touches, created: created,
			expired: int64(ft.Expired()), evicted: int64(ft.Evictions())}
		marked++
	}
	for {
		pkts = pkts[:0]
		t0 := tr.now()
		for len(pkts) < cap(pkts) {
			p, err := cs.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			pkts = append(pkts, p)
		}
		if len(pkts) == 0 {
			break
		}
		first := packetIndex(pkts[0])
		flushID := nextID
		tr.span(layerRead, flushID, t0)
		if (marked == 0 && first >= from) || (marked == 1 && first >= to) {
			markAt()
		}
		inRange := marked == 1

		t0 = tr.now()
		for _, p := range pkts {
			if p.Arrival > clock.Load() {
				clock.Store(p.Arrival)
			}
			if ft.Touch(p.FlowID, mk) {
				created++
			}
		}
		touches += int64(len(pkts))
		ft.ExpireTail(pumpExpiryBudget)
		flows := ft.Len()
		tr.span(layerConntrack, flushID, t0)
		if inRange {
			res.ct.pkts += int64(len(pkts))
			res.ct.flows = append(res.ct.flows, flows)
		}

		t0 = tr.now()
		for q := range byQueue {
			byQueue[q] = byQueue[q][:0]
		}
		for _, p := range pkts {
			q := nic.Queue(p)
			byQueue[q] = append(byQueue[q], p)
		}
		tr.span(layerRSS, flushID, t0)

		for q, qp := range byQueue {
			if len(qp) == 0 {
				continue
			}
			sb := nic.Arena(q).GetBatch(len(qp))
			sb.Packets = append(sb.Packets, qp...)
			sb.ID = nextID
			nextID++
			res.batchFirst = append(res.batchFirst, first)
			id := sb.ID // Release clears it
			outs = walkers[q].run(sb, tr, outs[:0])

			t0 = tr.now()
			for _, ob := range outs {
				for _, p := range ob.Packets {
					res.dg.add(p)
				}
			}
			tr.span(layerDigest, id, t0)
			t0 = tr.now()
			for _, ob := range outs {
				ob.Release()
			}
			tr.span(layerRelease, id, t0)
		}
		res.packets += int64(len(pkts))
	}
	for marked < 2 {
		markAt()
	}
	res.ct.touches = mark[1].touches - mark[0].touches
	res.ct.created = mark[1].created - mark[0].created
	res.ct.expired = mark[1].expired - mark[0].expired
	res.ct.evicted = mark[1].evicted - mark[0].evicted
	return res, nil
}

// layerTotals sums span time per layer over the batches whose flush began
// in packet range [from, to), returning ns per packet of that range.
func (r *traceResult) layerTotals(from, to int64) map[uint16]float64 {
	pkts := r.ct.pkts
	sums := make(map[uint16]float64)
	for _, s := range r.tr.spans {
		if f := r.batchFirst[s.batch]; f >= from && f < to {
			sums[s.layer] += float64(s.dur)
		}
	}
	if pkts > 0 {
		for l := range sums {
			sums[l] /= float64(pkts)
		}
	}
	return sums
}
