package network

import (
	"fmt"

	"repro/internal/topology"
)

// CheckInvariants validates the internal consistency of the simulator
// state; tests call it periodically. It returns the first violation
// found, or nil.
func (n *Network) CheckInvariants() error {
	lay := &n.lay
	for node := 0; node < lay.nodes; node++ {
		for p := 0; p < lay.inPorts; p++ {
			for v := 0; v < lay.vcs; v++ {
				ivc := &n.ins[lay.inIdx(node, p, v)]
				if p != lay.ports && ivc.q.len() > n.cfg.BufDepth {
					return fmt.Errorf("node %d input (%d,%d): %d flits exceed buffer depth %d",
						node, p, v, ivc.q.len(), n.cfg.BufDepth)
				}
				if ivc.outPort >= 0 {
					out := &n.outs[lay.outIdx(node, ivc.outPort, ivc.outVC)]
					if out.ownerInPort != p || out.ownerInVC != v {
						return fmt.Errorf("node %d input (%d,%d): allocation to (%d,%d) not owned back",
							node, p, v, ivc.outPort, ivc.outVC)
					}
					if out.ownerMsg != ivc.curMsg {
						return fmt.Errorf("node %d output (%d,%d): owner message mismatch",
							node, ivc.outPort, ivc.outVC)
					}
				}
			}
		}
		for p := 0; p < lay.ports; p++ {
			down := n.g.Neighbor(topology.NodeID(node), p)
			for v := 0; v < lay.vcs; v++ {
				oi := lay.outIdx(node, p, v)
				out, credits := &n.outs[oi], int(n.credits[oi])
				if credits < 0 || credits > n.cfg.BufDepth {
					return fmt.Errorf("node %d output (%d,%d): credits %d out of range",
						node, p, v, credits)
				}
				if down >= 0 {
					dp, ok := n.g.PortTo(down, topology.NodeID(node))
					if ok {
						occ := n.ins[lay.inIdx(int(down), dp, v)].q.len()
						if credits+occ != n.cfg.BufDepth {
							return fmt.Errorf("node %d output (%d,%d): credits %d + occupancy %d != depth %d",
								node, p, v, credits, occ, n.cfg.BufDepth)
						}
					}
				}
				if out.ownerMsg == nil && out.remaining != 0 {
					return fmt.Errorf("node %d output (%d,%d): free but remaining %d",
						node, p, v, out.remaining)
				}
				if out.ownerMsg != nil && out.free() {
					return fmt.Errorf("node %d output (%d,%d): owner message set but port free",
						node, p, v)
				}
				// creditArrived re-arms the owner recorded here.
				if !out.free() && n.alloc[lay.inIdx(node, out.ownerInPort, out.ownerInVC)] != int32(p*lay.vcs+v) {
					return fmt.Errorf("node %d output (%d,%d): owner input (%d,%d) is not allocated to it",
						node, p, v, out.ownerInPort, out.ownerInVC)
				}
			}
		}
	}
	return n.checkActiveSets()
}

// checkActiveSets verifies that every active-set membership and ready
// bit equals its defining predicate over the current VC state, that a
// head asleep in VA is a vaSet member with every candidate output owned,
// that the alloc side array mirrors inputVC.outPort/outVC, and that the
// injection work list covers every node with queued messages. The
// differential test batteries call CheckInvariants every cycle, so any
// incremental maintenance bug in noteInput or a missed noteInput call
// surfaces immediately instead of as a statistics drift.
func (n *Network) checkActiveSets() error {
	lay := &n.lay
	for node := 0; node < lay.nodes; node++ {
		for slot := 0; slot < lay.inStride; slot++ {
			ivc := &n.ins[node*lay.inStride+slot]
			qlen := ivc.q.len()
			wantRoute := !ivc.routed && qlen > 0 && ivc.q.front().head
			wantVA := ivc.routed && !ivc.eject && !ivc.unroutable && ivc.outPort < 0
			wantSA := ivc.outPort >= 0 && qlen > 0
			wantDrain := ivc.routed && (ivc.eject || ivc.unroutable) && qlen > 0
			if got := n.routeSet.has(node, slot); got != wantRoute {
				return fmt.Errorf("node %d slot %d: routeSet membership %v, predicate %v", node, slot, got, wantRoute)
			}
			if got := n.vaSet.has(node, slot); got != wantVA {
				return fmt.Errorf("node %d slot %d: vaSet membership %v, predicate %v", node, slot, got, wantVA)
			}
			if got := n.saSet.has(node, slot); got != wantSA {
				return fmt.Errorf("node %d slot %d: saSet membership %v, predicate %v", node, slot, got, wantSA)
			}
			if got := n.drainSet.has(node, slot); got != wantDrain {
				return fmt.Errorf("node %d slot %d: drainSet membership %v, predicate %v", node, slot, got, wantDrain)
			}
			wantAlloc := int32(-1)
			if ivc.outPort >= 0 {
				wantAlloc = int32(ivc.outPort*lay.vcs + ivc.outVC)
			}
			if got := n.alloc[node*lay.inStride+slot]; got != wantAlloc {
				return fmt.Errorf("node %d slot %d: alloc mirror %d, inputVC says %d", node, slot, got, wantAlloc)
			}
			wantReady := wantSA && n.credits[node*lay.outStride+int(wantAlloc)] > 0
			if got := n.ready[node*n.saSet.wpn+slot>>6]&(1<<(slot&63)) != 0; got != wantReady {
				return fmt.Errorf("node %d slot %d: ready bit %v, predicate %v", node, slot, got, wantReady)
			}
			if n.vaWait[node*n.vaSet.wpn+slot>>6]&(1<<(slot&63)) != 0 {
				if !wantVA {
					return fmt.Errorf("node %d slot %d: vaWait bit on a slot outside the vaSet", node, slot)
				}
				for _, c := range ivc.candidates {
					if n.outs[lay.outIdx(node, c.Port, c.VC)].free() {
						return fmt.Errorf("node %d slot %d: asleep in VA while its candidate output (%d,%d) is free", node, slot, c.Port, c.VC)
					}
				}
			}
		}
		// Injection bits are allowed to be stale-set (a faulty node's
		// queue is nulled without clearing its bit; injectStage skips it),
		// but a node with queued messages must never be missing.
		if q := len(n.injQ[node].pending()); q > 0 && n.injNodes.bits[node>>6]&(1<<(node&63)) == 0 {
			return fmt.Errorf("node %d: %d queued injections but not in injNodes", node, q)
		}
	}
	return nil
}
