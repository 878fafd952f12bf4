package dataplane

// This file implements compiled CPU stage-loops — the host-side dual of
// device-resident segment fusion (offload.go). Where the interpreted
// dataplane pays one goroutine + one channel hop per CPU element per batch,
// a compiled segment's head executes every member's Process inline on its
// own goroutine: one inbox receive, the member calls chained per batch, one
// send. The segments themselves are computed by resolvePlacements
// (placement.go) with the same structural predicate fusion uses
// (hetsim.DeviceSegments over "placed on the host CPU" instead of "placed
// on a device"), so compilation composes with GPU fusion and hot-swap:
// whatever is not device-resident and lies on a sole path collapses.
//
// Two execution paths, chosen per batch:
//
//   - Direct (metrics and flight both off): the pure fast path. The head
//     forwards the tail's output straight to the tail's successors; member
//     goroutines never see the batch. Zero allocations in steady state
//     (guarded by TestCompiledHotPathAllocs).
//   - Observed (metrics or flight on): after the inline execution, a
//     pass-through marker — the same workItem machinery fused GPU segments
//     use — walks the member goroutines so each books its own recorded
//     share (batch/packet counters, sampled Process timing, a flight span
//     tagged with the submission's epoch and placement) and the tail
//     forwards the output. Per-member observability is bit-compatible with
//     the interpreted path; only the Process calls moved. Also
//     allocation-free in steady state: markers are pooled.
//
// Hot-swap safety: elements are stateful and single-goroutine by contract,
// and compilation moves member execution onto the head's goroutine. On an
// epoch transition into a compiled placement the head therefore sends a
// fence marker down the chain before executing anything (fenceCompiled):
// every member flushes its offload lane and finishes its backlog before
// forwarding the fence, and the tail's acknowledgement gives the head a
// happens-before edge covering all prior member-side state writes — and
// guarantees every earlier batch already reached the tail's successors, so
// direct forwarding cannot overtake in-flight interpreted batches. Fences
// cost one chain walk per epoch change, never per batch.

import (
	"context"
	"fmt"
	"time"

	"nfcompass/internal/netpkt"
)

// runCompiled executes one batch through the compiled CPU stage-loop this
// node heads. Called from handle, exactly like the plain inline path.
func (nr *nodeRunner) runCompiled(ctx context.Context, msg stageMsg, pl nodePlacement, tbl *placementTable) bool {
	plan := &tbl.segs[pl.seg]
	if !nr.observed {
		return nr.runCompiledDirect(ctx, msg, plan)
	}
	return nr.runCompiledObserved(ctx, msg, pl, tbl, plan)
}

// runCompiledDirect is the observability-off fast path: chain the member
// Process calls, then make the segment's single send — the tail's output
// port, directly to the tail's successors. No marker, no per-member
// accounting, no allocation.
func (nr *nodeRunner) runCompiledDirect(ctx context.Context, msg stageMsg, plan *segmentPlan) bool {
	p := nr.p
	cur := msg.b
	executed := 0
	for _, el := range plan.els {
		outs := nr.host.Process(el, cur)
		if len(outs) != 1 {
			releaseAborted(cur, outs)
			p.fail(fmt.Errorf("dataplane: compiled stage %s emitted %d outputs, declared %d",
				el.Name(), len(outs), el.NumOutputs()))
			return false
		}
		executed++
		out := outs[0]
		if out == nil || len(out.Packets) == 0 {
			cur = nil // the chain died; the interpreted path forwards nothing either
			break
		}
		cur = out
	}
	p.Offload.CompiledBatches.Add(1)
	p.Offload.CompiledHopsSaved.Add(uint64(executed - 1))
	if cur == nil {
		return true
	}
	for _, to := range plan.tailSucc[0] {
		if !sendTo(ctx, p.inbox[to], stageMsg{b: cur}, nil, nil) {
			return false
		}
	}
	return true
}

// runCompiledObserved is the observability-on path: the same inline
// execution, but per-member stats land in a pooled pass-through marker
// that then walks the member goroutines (scheduler.go's passThrough), so
// metrics, flight spans, and edge counters stay per-member exact. The
// last member to touch the marker recycles it.
func (nr *nodeRunner) runCompiledObserved(ctx context.Context, msg stageMsg, pl nodePlacement, tbl *placementTable, plan *segmentPlan) bool {
	p := nr.p
	if nr.m != nil {
		nr.m.batches.Inc()
		nr.m.pktsIn.Add(uint64(msg.live))
	}
	sampled := nr.sample()
	it := p.markers.Get().(*workItem)
	st := it.stats[:0]
	if cap(st) < len(plan.els) {
		st = make([]segStat, len(plan.els))
	} else {
		st = st[:len(plan.els)]
		for i := range st {
			st[i] = segStat{}
		}
	}
	*it = workItem{
		kind: plan.sig, b: msg.b, live: msg.live,
		plan: plan, epoch: tbl.epoch, place: pl.label, segID: pl.seg,
		stats: st, compiled: true, sampled: sampled,
	}

	curLive := msg.live
	cur := msg.b
	var lastT time.Time
	if sampled {
		lastT = time.Now()
	}
	executed := 0
	var final *netpkt.Batch
	for i, el := range plan.els {
		ms := &it.stats[i]
		ms.liveIn = curLive
		outs := nr.host.Process(el, cur)
		if sampled {
			now := time.Now()
			ms.procNs = now.Sub(lastT).Nanoseconds()
			lastT = now
		}
		if len(outs) != 1 {
			p.recycleMarker(it)
			releaseAborted(cur, outs)
			p.fail(fmt.Errorf("dataplane: compiled stage %s emitted %d outputs, declared %d",
				el.Name(), len(outs), el.NumOutputs()))
			return false
		}
		executed = i + 1
		out := outs[0]
		if out == nil || len(out.Packets) == 0 {
			final = nil
			break
		}
		curLive = out.Live()
		ms.liveOut = curLive
		final = out
		cur = out
	}
	it.executed, it.final = executed, final
	p.Offload.CompiledBatches.Add(1)

	// Head's own share, mirroring deliverFused; members book theirs from
	// the marker (passThrough).
	hs := it.stats[0]
	if sampled {
		nr.book(msg.b.ID, hs.liveIn, hs.procNs, tbl.epoch, pl.label, pl.seg)
	}
	if nr.m != nil {
		nr.m.pktsOut.Add(uint64(hs.liveOut))
		if hs.liveOut < hs.liveIn {
			nr.m.drops.Add(uint64(hs.liveIn - hs.liveOut))
		}
	}
	if executed <= 1 {
		// The head emitted nothing: the chain died here, exactly where the
		// interpreted pipeline would have stopped forwarding.
		p.recycleMarker(it)
		return true
	}
	it.fidx = 1
	if nr.m != nil {
		nr.edgeCtr[0][0].Add(uint64(hs.liveOut))
	}
	vb := final
	if vb == nil {
		vb = it.b
	}
	return sendTo(ctx, p.inbox[plan.nodes[1]], stageMsg{b: vb, live: hs.liveOut, fused: it}, nr.m, nr.fl)
}

// fenceCompiled runs on an epoch transition, before the first batch of the
// new epoch executes. If this node heads a compiled CPU segment under the
// new table, it walks a fence marker through the chain and waits for the
// tail's acknowledgement: each member flushes its offload lane and
// finishes every batch already queued before forwarding the fence. The
// acknowledgement gives the head (a) a happens-before edge over all member
// element state written on other goroutines under earlier epochs, and (b)
// the guarantee that no earlier batch is still between the head and the
// tail's successors — so inline execution and direct forwarding cannot
// race or reorder against in-flight interpreted work. Waits only point
// downstream (the graph is a DAG), so fences cannot deadlock.
func (nr *nodeRunner) fenceCompiled(ctx context.Context, tbl *placementTable) bool {
	pl := tbl.nodes[nr.id]
	if !pl.head || pl.seg < 0 || !tbl.segs[pl.seg].cpu {
		return true
	}
	plan := &tbl.segs[pl.seg]
	it := &workItem{plan: plan, fidx: 1, fence: make(chan struct{})}
	if !sendTo(ctx, nr.p.inbox[plan.nodes[1]], stageMsg{fused: it}, nil, nil) {
		return false
	}
	select {
	case <-it.fence:
		return true
	case <-ctx.Done():
		return false
	}
}

// passFence is a chain member's side of an epoch fence: the member has
// already flushed its lane and drained its backlog (fences arrive through
// the same inbox as batches), so it only forwards the marker — or, at the
// tail, acknowledges it.
func (nr *nodeRunner) passFence(ctx context.Context, it *workItem) bool {
	i := it.fidx
	if it.plan == nil || i < 1 || i >= len(it.plan.nodes) || it.plan.nodes[i] != nr.id {
		nr.p.fail(fmt.Errorf("dataplane: compiled segment fence misrouted at %s", nr.el.Name()))
		return false
	}
	if i+1 < len(it.plan.nodes) {
		it.fidx = i + 1
		return sendTo(ctx, nr.p.inbox[it.plan.nodes[i+1]], stageMsg{fused: it}, nil, nil)
	}
	close(it.fence)
	return true
}

// recycleMarker returns a compiled pass-through marker to the pool,
// dropping its batch and plan references (pooled markers must not pin
// packet memory) while keeping the stats slice capacity.
func (p *Pipeline) recycleMarker(it *workItem) {
	st := it.stats
	*it = workItem{stats: st[:0]}
	p.markers.Put(it)
}

// releaseAborted returns a compiled stage-loop's working set to the packet
// arena after a mid-loop contract violation (wrong output count). Unlike
// the interpreted path — where an aborting element's batch may already be
// shared with concurrent stages — the stage-loop owns its batch
// exclusively, so it can drain instead of leak. Exactly-once rule: if the
// element still returned the input batch, release that alone; otherwise
// release each distinct returned batch (the element consumed the input,
// so its packets live in the outputs, and a blind extra release of the
// input would double-release them).
func releaseAborted(cur *netpkt.Batch, outs []*netpkt.Batch) {
	for _, ob := range outs {
		if ob == cur {
			outs = nil
			break
		}
	}
	if len(outs) == 0 {
		if cur != nil {
			cur.Release()
		}
		return
	}
	for i, ob := range outs {
		if ob == nil {
			continue
		}
		dup := false
		for _, prev := range outs[:i] {
			if prev == ob {
				dup = true
				break
			}
		}
		if !dup {
			ob.Release()
		}
	}
}
