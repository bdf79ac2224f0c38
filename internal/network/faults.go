package network

import (
	"math/bits"
	"slices"

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
	// Everything below walks live work only: the slots and owned outputs
	// that liveWork collects before any edit, and the failed components.
	slots, owned := n.liveWork()

	// 1. Messages touching failed routers (buffered flits or queued at
	// a failed source); the stages' dead masks are rebuilt on the way.
	clear(n.dead)
	for _, nd := range f.FaultyNodes() {
		node := int(nd)
		if node < 0 || node >= lay.nodes {
			continue
		}
		n.dead[node>>6] |= 1 << (node & 63)
		for i := node * lay.inStride; i < (node+1)*lay.inStride; i++ {
			n.forEachQueued(i, func(m *Message) { killed[m] = true })
		}
		for _, m := range n.injQ[node].pending() {
			m.State = StateKilled
			m.DoneTime = n.now
			n.stats.Killed++
			n.queued--
		}
		n.injQ[node] = msgQueue{}
		n.injNodes.set(node, false)
	}
	clear(n.deadLinks)
	for _, l := range f.FaultyLinks() {
		n.markDeadLink(l.A, l.B)
		n.markDeadLink(l.B, l.A)
	}

	// 2. Worms actively crossing a dead component: an output VC with
	// an owner that has already sent at least one flit (remaining <
	// Length) carries a worm that spans the attached link; if the
	// sending router, the link or the receiving router is dead, that
	// worm is cut.
	for _, oi := range owned {
		out := &n.outs[oi]
		if out.remaining >= int32(out.ownerMsg.Hdr.Length) {
			continue
		}
		node := oi / lay.outStride
		if n.nodeDead(node) || n.portDead(node, (oi-node*lay.outStride)/lay.vcs) {
			killed[out.ownerMsg] = true
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
	for _, i := range slots {
		n.forEachQueued(i, func(m *Message) {
			if !killed[m] && n.alg.FlushOnFault(&m.Hdr) {
				killed[m] = true
			}
		})
	}

	// 3. Remove killed worms everywhere and account for them.
	for _, i := range slots {
		n.ins[i].filter(func(fl flit) bool { return !killed[n.msgs[fl.msg()]] })
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
			n.retire(m)
			if n.rec != nil {
				n.rec.Record(trace.Event{Cycle: n.now, Kind: trace.KMsgKilled,
					Node: int32(m.Hdr.Src), Msg: m.ID, Port: -1, VC: -1})
			}
		}
	}

	// 4. Release outputs owned by killed worms; re-route allocations
	// that would cross a dead link but have not moved a flit yet;
	// recompute credits from the surviving buffer occupancy.
	for _, oi := range owned {
		if out := &n.outs[oi]; killed[out.ownerMsg] {
			node := oi / lay.outStride
			n.releaseOutput(node, oi-node*lay.outStride)
		}
	}
	for _, i := range slots {
		ivc := &n.ins[i]
		if ivc.outPort < 0 {
			// Unallocated: recompute the decision under the
			// new fault state next cycle — unless the worm is
			// already partially absorbed (the head flit is
			// gone): clearing the route state of a headless
			// worm would leave routeStage unable to ever route
			// it again and wedge the input VC.
			if ivc.routed() && !ivc.eject() && (ivc.n == 0 || ivc.front().head()) {
				n.resetRoute(i)
			}
			continue
		}
		if ivc.curMsg == nil || killed[ivc.curMsg] {
			// The worm this allocation belonged to is gone.
			n.resetRoute(i)
			continue
		}
		node := i / lay.inStride
		o := int(ivc.outPort)*lay.vcs + int(ivc.outVC)
		if n.portDead(node, int(ivc.outPort)) && n.outs[node*lay.outStride+o].remaining == int32(ivc.curMsg.Hdr.Length) {
			// Nothing sent yet: safe to re-route. Otherwise the worm
			// already spans the link and was killed in step 2.
			n.releaseOutput(node, o)
			n.resetRoute(i)
		}
	}
	// Only the buffers filtered above changed occupancy, and surgery
	// rewrote only these slots: re-derive their upstream credits and
	// their memberships.
	for _, i := range slots {
		if up := int(n.ins[i].up); up >= 0 {
			out := &n.outs[up]
			out.credits = int16(n.cfg.BufDepth - n.ins[i].len())
			upNode := up / lay.outStride
			n.setCredit(upNode, up-upNode*lay.outStride, out.credits > 0)
		}
	}
	for _, i := range slots {
		node := i / lay.inStride
		n.noteInput(node, i-node*lay.inStride)
	}

	// 5. Diagnosis phase: propagate the new fault state to a fixpoint.
	n.alg.UpdateFaults(f)
	if n.rec != nil {
		n.rec.Record(trace.Event{Cycle: n.now, Kind: trace.KFaultPropagated,
			Node: -1, Msg: -1, Port: -1, VC: -1, Arg: int32(len(killed))})
	}
}

// liveWork returns, ascending and before any surgery edit, the input
// slots fault surgery can change — every member of a stage set (a slot
// holding flits is always in one), and the owner and the downstream
// slot of every owned output (an allocated slot whose queue is empty
// mid-worm; an absorbing slot whose worm is still arriving) — and the
// owned outputs (outs indices).
func (n *Network) liveWork() (slots, owned []int) {
	lay := &n.lay
	for wi := range n.routeSet.nodeBits {
		nw := n.routeSet.nodeBits[wi] | n.vaSet.nodeBits[wi] | n.saSet.nodeBits[wi] | n.drainSet.nodeBits[wi]
		for ; nw != 0; nw &= nw - 1 {
			node := wi<<6 + bits.TrailingZeros64(nw)
			base := node * lay.rStride
			for k := 0; k < lay.wpn; k++ {
				mw := uint64(0)
				for kind := kRoute; kind <= kDrain; kind++ {
					mw |= n.rtr[base+lay.maskOff[kind]+k]
				}
				for ; mw != 0; mw &= mw - 1 {
					slots = append(slots, node*lay.inStride+k<<6+bits.TrailingZeros64(mw))
				}
			}
		}
	}
	n.ownNodes.forEach(func(node int) {
		n.forEachOwned(node, func(o int) {
			oi := node*lay.outStride + o
			owned = append(owned, oi)
			out := &n.outs[oi]
			slots = append(slots, node*lay.inStride+int(out.owner))
			if out.downNode >= 0 {
				slots = append(slots, int(out.downNode)*lay.inStride+int(out.downSlot))
			}
		})
	})
	slices.Sort(slots)
	return slices.Compact(slots), owned
}

// forEachQueued calls fn with the message of every flit queued at input
// i (once for an injection VC, which holds one message).
func (n *Network) forEachQueued(i int, fn func(m *Message)) {
	ivc := &n.ins[i]
	k := ivc.len()
	if ivc.flags&vcInject != 0 && k > 0 {
		k = 1
	}
	for j := 0; j < k; j++ {
		fn(n.msgs[ivc.flitAt(j).msg()])
	}
}

// markDeadLink marks every port of a that leads to b in deadLinks.
func (n *Network) markDeadLink(a, b topology.NodeID) {
	if a < 0 || int(a) >= n.lay.nodes {
		return
	}
	for p := 0; p < n.lay.ports; p++ {
		if i := int(a)*n.lay.ports + p; n.links[i] != noLink && n.links[i].node() == int(b) {
			n.deadLinks[i>>6] |= 1 << (i & 63)
		}
	}
}

// portDead reports whether output port p of node leads nowhere, over a
// failed link or into a failed router.
func (n *Network) portDead(node, p int) bool {
	i := node*n.lay.ports + p
	return n.links[i] == noLink || n.deadLinks[i>>6]&(1<<(i&63)) != 0 || n.nodeDead(n.links[i].node())
}
