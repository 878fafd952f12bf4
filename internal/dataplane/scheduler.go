package dataplane

import (
	"context"
	"fmt"
	"time"

	"nfcompass/internal/element"
	"nfcompass/internal/flight"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/stats"
)

// nodeRunner is one element's scheduling state: the placement-aware loop
// that routes each batch either inline through the host backend (ModeCPU)
// or asynchronously through the element's offload lane (ModeGPU/ModeSplit).
// All fields are owned by the element's goroutine.
//
// Ordering invariant: an element's batches leave the runner in arrival
// order regardless of placement. Inline batches forward synchronously;
// offloaded batches forward in submission order (the lane's completion
// queue restores it), and a placement change flushes every in-flight
// offload before the first batch of the new epoch executes — so a CPU
// batch can never overtake a still-in-flight GPU batch, and no batch
// executes under two placements within one epoch.
type nodeRunner struct {
	p       *Pipeline
	id      element.NodeID
	el      element.Element
	kind    string
	isSink  bool
	inbox   chan stageMsg
	sinkOut chan *netpkt.Batch
	succ    [][]element.NodeID
	// host is this goroutine's CPU backend (SingleOut fast path + scratch).
	host *element.HostBackend

	m       *nodeMetrics
	edgeCtr [][]*stats.Counter
	sampleN int
	tick    int
	// fl is this element's flight lane ("nf:<name>", lane = shard index).
	// Spans and busy ns record on the same TimingSample cadence as the
	// proc histogram, so flight attribution costs no extra clock reads.
	fl *flight.LaneRecorder
	// observed is m != nil || fl != nil: the runner times sampled batches
	// and counts live packets per hop.
	observed bool

	// epoch is the placement epoch of the last handled batch; lane is the
	// offload lane, created on first offload; outstanding counts in-flight
	// submissions not yet forwarded downstream.
	epoch       uint64
	lane        *offloadLane
	outstanding int
	// tailOuts is the reusable single-output slice a fused segment's tail
	// hands to forward when it strips the pass-through marker.
	tailOuts [1]*netpkt.Batch
}

// run is the element goroutine's main loop. With nothing in flight it is
// the plain blocking receive of the CPU-only dataplane — no select, no
// timer, nothing on the zero-allocation hot path. Only while offloads are
// outstanding does it multiplex the inbox against the completion channel.
func (nr *nodeRunner) run(ctx context.Context) {
	for {
		if nr.outstanding == 0 {
			msg, ok := <-nr.inbox
			if !ok {
				return
			}
			if !nr.handle(ctx, msg) {
				return
			}
			continue
		}
		select {
		case msg, ok := <-nr.inbox:
			if !ok {
				nr.flushLane(ctx)
				return
			}
			if !nr.handle(ctx, msg) {
				return
			}
		case it := <-nr.lane.comp:
			nr.outstanding--
			if !nr.deliver(ctx, it) {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

// handle routes one batch according to the current placement table. Fused
// pass-through markers — records of work a segment head already executed
// device-side — take the accounting-only path; everything else executes
// under the current placement.
func (nr *nodeRunner) handle(ctx context.Context, msg stageMsg) bool {
	tbl := nr.p.placements.Load()
	if tbl.epoch != nr.epoch {
		// Epoch boundary: drain the old placement's in-flight work before
		// executing anything under the new one. Markers cross this barrier
		// too, so a member's own stale offloads forward first and arrival
		// order is preserved. A head entering a compiled CPU placement
		// additionally fences its chain (compile.go) before inlining any
		// member execution.
		if !nr.flushLane(ctx) {
			return false
		}
		nr.epoch = tbl.epoch
		if !nr.fenceCompiled(ctx, tbl) {
			return false
		}
	}
	if msg.fused != nil {
		if msg.fused.fence != nil {
			return nr.passFence(ctx, msg.fused)
		}
		return nr.passThrough(ctx, msg.fused)
	}
	pl := tbl.nodes[nr.id]
	if pl.mode != hetsim.ModeCPU {
		return nr.offload(ctx, msg, pl, tbl)
	}
	if pl.head && pl.seg >= 0 && tbl.segs[pl.seg].cpu {
		// This node heads a compiled CPU stage-loop: execute the whole
		// segment inline (compile.go). Non-head members keep the plain
		// path below for epoch-transition stragglers.
		return nr.runCompiled(ctx, msg, pl, tbl)
	}

	// Inline host-CPU path (the original dataplane fast path).
	if nr.m != nil {
		nr.m.batches.Inc()
		nr.m.pktsIn.Add(uint64(msg.live))
	}
	var t0 time.Time
	timed := nr.sample()
	if timed {
		t0 = time.Now()
	}
	outs := nr.host.Process(nr.el, msg.b)
	if timed {
		nr.book(msg.b.ID, msg.live, time.Since(t0).Nanoseconds(), tbl.epoch, pl.label, pl.seg)
	}
	return nr.forward(ctx, msg.b, msg.live, outs)
}

// sample advances the TimingSample cadence and reports whether this batch
// is timed: 1 in sampleN batches while metrics or flight recording is on,
// none otherwise.
func (nr *nodeRunner) sample() bool {
	if !nr.observed {
		return false
	}
	hit := nr.tick == 0
	if nr.tick++; nr.tick == nr.sampleN {
		nr.tick = 0
	}
	return hit
}

// book accounts one timed Process share of ns: the proc histogram, and the
// element's flight span and busy time tagged with the placement epoch,
// label and segment index (-1 for none) the batch ran under.
func (nr *nodeRunner) book(batch uint64, live int, ns int64, epoch uint64, place string, seg int) {
	if nr.m != nil {
		nr.m.proc.Add(float64(ns))
		nr.m.procPkts.Add(uint64(live))
	}
	if nr.fl != nil {
		end := nr.fl.Now()
		nr.fl.AddBusy(ns)
		nr.fl.PlacedSpan(batch, live, end-ns, end, epoch, place, seg+1)
	}
}

// offload submits one batch to the element's lane, first making room in
// the outstanding window by delivering completed work. A segment head
// submits its whole fused chain as one item; interior members receiving an
// unfused batch (epoch-transition stragglers) submit themselves singly.
func (nr *nodeRunner) offload(ctx context.Context, msg stageMsg, pl nodePlacement, tbl *placementTable) bool {
	if nr.lane == nil {
		nr.lane = nr.p.pool.newLane(nr.id, pl.dev)
	}
	for nr.outstanding >= nr.p.pool.maxOutstanding {
		select {
		case it := <-nr.lane.comp:
			nr.outstanding--
			if !nr.deliver(ctx, it) {
				return false
			}
		case <-ctx.Done():
			return false
		}
	}
	if nr.m != nil {
		nr.m.batches.Inc()
		nr.m.pktsIn.Add(uint64(msg.live))
	}
	it := &workItem{
		lane: nr.lane, el: nr.el, kind: nr.kind,
		b: msg.b, live: msg.live, mode: pl.mode, frac: pl.frac,
		epoch: tbl.epoch, place: pl.label, segID: pl.seg,
		// Device submissions are always wall-clock timed by the worker.
		sampled: true,
	}
	if pl.mode == hetsim.ModeGPU && pl.head {
		if plan := &tbl.segs[pl.seg]; len(plan.nodes) > 1 {
			it.plan = plan
			it.kind = plan.sig
		}
	}
	nr.outstanding++
	return nr.lane.submit(ctx, it)
}

// deliver forwards one completed offload downstream, in lane release order.
func (nr *nodeRunner) deliver(ctx context.Context, it *workItem) bool {
	if it.err != nil {
		nr.p.fail(it.err)
		return false
	}
	if it.plan != nil {
		return nr.deliverFused(ctx, it)
	}
	nr.book(it.b.ID, it.live, it.procNs, it.epoch, it.place, it.segID)
	return nr.forward(ctx, it.b, it.live, it.outs)
}

// deliverFused accounts the segment head's share of a completed fused
// submission and launches the pass-through marker down the chain: each
// member's goroutine still sees the batch once, in order, and books its own
// metrics and flight span from the per-member stats the device worker
// recorded — but no member re-executes anything.
func (nr *nodeRunner) deliverFused(ctx context.Context, it *workItem) bool {
	ms := it.stats[0]
	nr.book(it.b.ID, ms.liveIn, ms.procNs, it.epoch, it.place, it.segID)
	if nr.m != nil {
		nr.m.pktsOut.Add(uint64(ms.liveOut))
		if ms.liveOut < ms.liveIn {
			nr.m.drops.Add(uint64(ms.liveIn - ms.liveOut))
		}
	}
	if it.executed <= 1 {
		// The head emitted nothing: the chain died here, exactly where the
		// unfused pipeline would have stopped forwarding.
		return true
	}
	it.fidx = 1
	if nr.m != nil {
		nr.edgeCtr[0][0].Add(uint64(ms.liveOut))
	}
	vb := it.final
	if vb == nil {
		vb = it.b
	}
	next := it.plan.nodes[1]
	return sendTo(ctx, nr.p.inbox[next], stageMsg{b: vb, live: ms.liveOut, fused: it}, nr.m, nr.fl)
}

// passThrough is a chain member's side of a fused segment: the work already
// executed elsewhere — device-side for GPU segments, on the head's
// goroutine for compiled CPU stage-loops — so the member only books its
// recorded share (metrics, flight span, edge counters) and forwards the
// marker —
// or, at the last executed member, strips it and forwards the final batch
// normally (recycling compiled markers back to the pipeline's pool).
func (nr *nodeRunner) passThrough(ctx context.Context, it *workItem) bool {
	i := it.fidx
	if it.plan == nil || i < 1 || i >= len(it.plan.nodes) || it.plan.nodes[i] != nr.id {
		nr.p.fail(fmt.Errorf("dataplane: fused segment marker misrouted at %s", nr.el.Name()))
		return false
	}
	ms := it.stats[i]
	vb := it.final
	if vb == nil {
		vb = it.b
	}
	last := i == it.executed-1
	if it.sampled {
		// The epoch, placement and segment are the submission's, not the
		// live table's: the work already ran under them, even when a swap
		// landed while the marker was in flight.
		nr.book(vb.ID, ms.liveIn, ms.procNs, it.epoch, it.place, it.segID)
	}
	if nr.m != nil {
		nr.m.batches.Inc()
		nr.m.pktsIn.Add(uint64(ms.liveIn))
		if !last {
			// The tail's output accounting happens in forward below.
			nr.m.pktsOut.Add(uint64(ms.liveOut))
			if ms.liveOut < ms.liveIn {
				nr.m.drops.Add(uint64(ms.liveIn - ms.liveOut))
			}
		}
	}
	if last {
		// ms is a value copy, so the marker can be recycled before the
		// tail's forward (which may block) touches nothing of it.
		final := it.final
		if it.compiled {
			nr.p.recycleMarker(it)
		}
		if final == nil {
			// The chain died at this member; nothing flows downstream.
			return true
		}
		nr.tailOuts[0] = final
		return nr.forward(ctx, final, ms.liveIn, nr.tailOuts[:])
	}
	it.fidx = i + 1
	if nr.m != nil {
		nr.edgeCtr[0][0].Add(uint64(ms.liveOut))
	}
	next := it.plan.nodes[i+1]
	return sendTo(ctx, nr.p.inbox[next], stageMsg{b: vb, live: ms.liveOut, fused: it}, nr.m, nr.fl)
}

// flushLane drains every in-flight offload — the epoch-swap barrier and
// the end-of-input drain.
func (nr *nodeRunner) flushLane(ctx context.Context) bool {
	for nr.outstanding > 0 {
		select {
		case it := <-nr.lane.comp:
			nr.outstanding--
			if !nr.deliver(ctx, it) {
				return false
			}
		case <-ctx.Done():
			return false
		}
	}
	return true
}

// forward pushes an executed batch's outputs to the successors (or the
// sink collector), with the per-edge and drop accounting of the original
// inline path.
func (nr *nodeRunner) forward(ctx context.Context, b *netpkt.Batch, liveIn int, outs []*netpkt.Batch) bool {
	p := nr.p
	if nr.isSink {
		if nr.m != nil {
			live := b.Live()
			nr.m.pktsOut.Add(uint64(live))
			if live < liveIn {
				nr.m.drops.Add(uint64(liveIn - live))
			}
		}
		return sendTo(ctx, nr.sinkOut, b, nr.m, nr.fl)
	}
	if len(outs) != nr.el.NumOutputs() {
		p.fail(fmt.Errorf("dataplane: %s emitted %d outputs, declared %d",
			nr.el.Name(), len(outs), nr.el.NumOutputs()))
		return false
	}
	totalOut := 0
	for port, ob := range outs {
		if ob == nil || len(ob.Packets) == 0 {
			continue
		}
		live := 0
		if nr.observed {
			live = ob.Live()
		}
		if nr.m != nil {
			totalOut += live
			nr.m.pktsOut.Add(uint64(live))
		}
		for t, to := range nr.succ[port] {
			if nr.m != nil {
				nr.edgeCtr[port][t].Add(uint64(live))
			}
			if !sendTo(ctx, p.inbox[to], stageMsg{b: ob, live: live}, nr.m, nr.fl) {
				return false
			}
		}
	}
	// Cloning elements emit more than they take in; clamp.
	if nr.m != nil && liveIn > totalOut {
		nr.m.drops.Add(uint64(liveIn - totalOut))
	}
	return true
}
