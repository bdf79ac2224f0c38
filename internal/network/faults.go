package network

import (
	"repro/internal/fault"
	"repro/internal/topology"
	"repro/internal/trace"
)

// ApplyFaults injects a new fault state into the running network,
// honouring the paper's fault model:
//
//   - messages whose worm currently touches a failed router or spans a
//     failed link are removed and counted as Killed (assumption iv: in
//     a direct network such messages are sent to the nearest home link
//     and reinjected by a light-weight protocol; the simulator models
//     the removal and excludes these messages from latency stats);
//   - messages that merely hold a routing decision across a now-dead
//     link but have not moved any flit yet are re-routed instead;
//   - the routing algorithm's diagnosis (state propagation) runs to
//     its fixpoint before the next cycle (assumption iv again), via
//     Algorithm.UpdateFaults;
//   - all pending, unallocated routing decisions are recomputed under
//     the new fault state.
//
// The fault set f replaces the previous one; use cumulative sets for
// incremental fault sequences.
func (n *Network) ApplyFaults(f *fault.Set) {
	prev := n.faults
	n.faults = f
	if n.rec != nil {
		// Flight-record the newly raised faults (node faults Arg=0,
		// link faults Arg=1 with Node/Port naming one endpoint).
		for _, nd := range f.FaultyNodes() {
			if !prev.NodeFaulty(nd) {
				n.rec.Record(trace.Event{Cycle: n.now, Kind: trace.KFaultRaised,
					Node: int32(nd), Msg: -1, Port: -1, VC: -1})
			}
		}
		for _, l := range f.FaultyLinks() {
			if !prev.LinkFaulty(l.A, l.B) {
				port := int16(-1)
				if p, ok := n.g.PortTo(l.A, l.B); ok {
					port = int16(p)
				}
				n.rec.Record(trace.Event{Cycle: n.now, Kind: trace.KFaultRaised,
					Node: int32(l.A), Msg: -1, Port: port, VC: -1, Arg: 1})
			}
		}
	}

	killed := make(map[*Message]bool)
	lay := &n.lay

	// 1. Messages touching failed routers (buffered flits or queued at
	// a failed source); the stages' dead-node mask is rebuilt on the way.
	clear(n.dead)
	for node := 0; node < lay.nodes; node++ {
		if !f.NodeFaulty(topology.NodeID(node)) {
			continue
		}
		n.dead[node>>6] |= 1 << (node & 63)
		base := node * lay.inStride
		for slot := 0; slot < lay.inStride; slot++ {
			for _, fl := range n.ins[base+slot].q.slice() {
				killed[fl.msg] = true
			}
		}
		for _, m := range n.injQ[node].pending() {
			m.State = StateKilled
			m.DoneTime = n.now
			n.stats.Killed++
			n.queued--
		}
		n.injQ[node] = msgQueue{}
	}

	// 2. Worms actively crossing a dead component: an output VC with
	// an owner that has already sent at least one flit (remaining <
	// Length) carries a worm that spans the attached link; if the
	// sending router, the link or the receiving router is dead, that
	// worm is cut.
	for node := 0; node < lay.nodes; node++ {
		for p := 0; p < lay.ports; p++ {
			down := n.g.Neighbor(topology.NodeID(node), p)
			for v := 0; v < lay.vcs; v++ {
				out := &n.outs[lay.outIdx(node, p, v)]
				if out.ownerMsg == nil || out.remaining >= out.ownerMsg.Hdr.Length {
					continue
				}
				dead := f.NodeFaulty(topology.NodeID(node)) || down == topology.Invalid ||
					f.NodeFaulty(down) || f.LinkFaulty(topology.NodeID(node), down)
				if dead {
					killed[out.ownerMsg] = true
				}
			}
		}
	}

	// 2b. Reconfiguration flush: worms holding resources whose channel
	// ordering this event is about to invalidate — e.g. maze escape
	// worms, whose up*/down* orientation is re-rooted per fault event —
	// are removed like worms touching the failure itself; the recovery
	// protocol of assumption iv reinjects them. Letting them survive
	// could close a wait cycle across the two orientations
	// (Algorithm.FlushOnFault). Every in-flight worm has at least one
	// buffered flit, so sweeping the input queues sees each one.
	for i := range n.ins {
		for _, flt := range n.ins[i].q.slice() {
			if !killed[flt.msg] && n.alg.FlushOnFault(&flt.msg.Hdr) {
				killed[flt.msg] = true
			}
		}
	}

	// 3. Remove killed worms everywhere and account for them.
	for i := range n.ins {
		ivc := &n.ins[i]
		if ivc.q.len() == 0 {
			continue
		}
		live := ivc.q.slice()
		kept := live[:0]
		for _, fl := range live {
			if !killed[fl.msg] {
				kept = append(kept, fl)
			}
		}
		ivc.q.truncate(len(kept))
	}
	for m := range killed {
		if m.State == StateInFlight {
			m.State = StateKilled
			m.DoneTime = n.now
			n.stats.Killed++
			// A worm cut while its head end was already being absorbed
			// at the destination has delivered some flits; back them
			// out — killed messages are excluded from the statistics
			// wholesale (assumption iv).
			n.stats.FlitsDelivered -= int64(m.flitsEjected)
			n.inFlight--
			if n.epochs != nil {
				n.epochs.ReleaseEpoch(m.Hdr.Epoch)
			}
			if n.rec != nil {
				n.rec.Record(trace.Event{Cycle: n.now, Kind: trace.KMsgKilled,
					Node: int32(m.Hdr.Src), Msg: m.ID, Port: -1, VC: -1})
			}
		}
	}

	// 4. Release outputs owned by killed worms; re-route allocations
	// that would cross a dead link but have not moved a flit yet;
	// recompute credits from the surviving buffer occupancy.
	for i := range n.outs {
		out := &n.outs[i]
		if out.ownerMsg != nil && killed[out.ownerMsg] {
			n.releaseOutput(out)
		}
	}
	for node := 0; node < lay.nodes; node++ {
		for slot := 0; slot < lay.inStride; slot++ {
			ivc := &n.ins[node*lay.inStride+slot]
			if ivc.outPort < 0 {
				// Unallocated: recompute the decision under the
				// new fault state next cycle — unless the worm is
				// already partially absorbed (the head flit is
				// gone): clearing the route state of a headless
				// worm would leave routeStage unable to ever route
				// it again and wedge the input VC.
				if ivc.routed && !ivc.eject && (ivc.q.len() == 0 || ivc.q.front().head) {
					ivc.resetRoute()
				}
				continue
			}
			if ivc.curMsg == nil || killed[ivc.curMsg] {
				// The worm this allocation belonged to is gone.
				ivc.resetRoute()
				continue
			}
			out := &n.outs[lay.outIdx(node, ivc.outPort, ivc.outVC)]
			down := n.g.Neighbor(topology.NodeID(node), ivc.outPort)
			dead := down == topology.Invalid || f.LinkFaulty(topology.NodeID(node), down) || f.NodeFaulty(down)
			if dead {
				if out.remaining == ivc.curMsg.Hdr.Length {
					// Nothing sent yet: safe to re-route.
					n.releaseOutput(out)
					ivc.resetRoute()
				}
				// Otherwise the worm already spans the link and was
				// killed in step 2.
			}
		}
	}
	n.recomputeCredits()
	// Surgery rewrote VC state in place all over the arenas: re-derive
	// every active-set membership from scratch (cold path).
	n.rebuildActiveSets()

	// 5. Diagnosis phase: propagate the new fault state to a fixpoint.
	n.alg.UpdateFaults(f)
	if n.rec != nil {
		n.rec.Record(trace.Event{Cycle: n.now, Kind: trace.KFaultPropagated,
			Node: -1, Msg: -1, Port: -1, VC: -1, Arg: int32(len(killed))})
	}
}

// releaseOutput frees one output VC.
func (n *Network) releaseOutput(out *outputVC) {
	out.ownerInPort, out.ownerInVC = -1, -1
	out.ownerMsg = nil
	out.remaining = 0
}

// recomputeCredits rebuilds every output's credit count from the
// actual downstream buffer occupancy (used after fault surgery).
func (n *Network) recomputeCredits() {
	lay := &n.lay
	for node := 0; node < lay.nodes; node++ {
		for p := 0; p < lay.ports; p++ {
			end := n.links[node*lay.ports+p]
			for v := 0; end != noLink && v < lay.vcs; v++ {
				n.credits[lay.outIdx(node, p, v)] =
					int32(n.cfg.BufDepth - n.ins[lay.inIdx(end.node(), end.port(), v)].q.len())
			}
		}
	}
}
