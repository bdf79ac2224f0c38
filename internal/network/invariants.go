package network

import (
	"fmt"
	"math/bits"

	"repro/internal/topology"
)

// CheckInvariants validates the internal consistency of the simulator
// state; tests call it periodically. It returns the first violation
// found, or nil.
func (n *Network) CheckInvariants() error {
	lay := &n.lay
	for node := 0; node < lay.nodes; node++ {
		if n.nodeDead(node) != n.faults.NodeFaulty(topology.NodeID(node)) {
			return fmt.Errorf("node %d: dead mask says %v, fault set %v",
				node, n.nodeDead(node), n.faults.NodeFaulty(topology.NodeID(node)))
		}
		for p := 0; p < lay.inPorts; p++ {
			for v := 0; v < lay.vcs; v++ {
				ivc := &n.ins[lay.inIdx(node, p, v)]
				if p != lay.ports && ivc.len() > n.cfg.BufDepth {
					return fmt.Errorf("node %d input (%d,%d): %d flits exceed buffer depth %d",
						node, p, v, ivc.len(), n.cfg.BufDepth)
				}
				for k := 0; k < ivc.len(); k++ {
					if i := ivc.flitAt(k).msg(); int(i) >= len(n.msgs) || n.msgs[i] == nil || n.msgs[i].idx != i {
						return fmt.Errorf("node %d input (%d,%d): flit %d names message-table entry %d, which holds no message of that index",
							node, p, v, k, i)
					}
				}
				if ivc.outPort >= 0 {
					out := &n.outs[lay.outIdx(node, int(ivc.outPort), int(ivc.outVC))]
					if int(out.owner) != p*lay.vcs+v {
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
		ownedAny := false
		for p := 0; p < lay.ports; p++ {
			end := n.links[node*lay.ports+p]
			for v := 0; v < lay.vcs; v++ {
				o := p*lay.vcs + v
				out := &n.outs[node*lay.outStride+o]
				credits := int(out.credits)
				if credits < 0 || credits > n.cfg.BufDepth {
					return fmt.Errorf("node %d output (%d,%d): credits %d out of range",
						node, p, v, credits)
				}
				if n.hasCredit(node, o) != (credits > 0) {
					return fmt.Errorf("node %d output (%d,%d): credit bit %v, credits %d",
						node, p, v, n.hasCredit(node, o), credits)
				}
				if end == noLink && out.downNode != -1 {
					return fmt.Errorf("node %d output (%d,%d): unconnected port names downstream node %d", node, p, v, out.downNode)
				}
				if end != noLink {
					down := lay.inIdx(end.node(), end.port(), v)
					if int(out.downNode) != end.node() || int(out.downSlot) != end.port()*lay.vcs+v || int(n.ins[down].up) != node*lay.outStride+o {
						return fmt.Errorf("node %d output (%d,%d): far-end copies disagree with the link table", node, p, v)
					}
					if occ := n.ins[down].len(); credits+occ != n.cfg.BufDepth {
						return fmt.Errorf("node %d output (%d,%d): credits %d + occupancy %d != depth %d",
							node, p, v, credits, occ, n.cfg.BufDepth)
					}
				}
				if out.ownerMsg == nil && out.remaining != 0 {
					return fmt.Errorf("node %d output (%d,%d): free but remaining %d",
						node, p, v, out.remaining)
				}
				if (out.ownerMsg != nil) == out.free() {
					return fmt.Errorf("node %d output (%d,%d): owner message set %v but port free %v",
						node, p, v, out.ownerMsg != nil, out.free())
				}
				owned := n.owned(node, o)
				if owned == out.free() {
					return fmt.Errorf("node %d output (%d,%d): owned bit %v, owner %d", node, p, v, owned, out.owner)
				}
				ownedAny = ownedAny || owned
				// creditArrived re-arms the owner recorded here.
				if !out.free() {
					in := &n.ins[node*lay.inStride+int(out.owner)]
					if int(in.outPort)*lay.vcs+int(in.outVC) != o || in.outPort < 0 {
						return fmt.Errorf("node %d output (%d,%d): owner input slot %d is not allocated to it",
							node, p, v, out.owner)
					}
				}
			}
		}
		if n.ownNodes.has(node) != ownedAny {
			return fmt.Errorf("node %d: owned-output summary bit %v, owned outputs %v", node, n.ownNodes.has(node), ownedAny)
		}
	}
	return n.checkActiveSets()
}

// checkActiveSets verifies that every active-set membership and ready
// bit equals its defining predicate over the current VC state, that
// each router record's member counts and the sets' node summaries agree
// with the mask words, that a head asleep in VA is a vaSet member with
// every candidate output owned, and that the injection work list covers
// every node with queued messages. The differential test batteries call
// CheckInvariants every cycle, so any incremental maintenance bug in
// noteInput or a missed noteInput call surfaces immediately instead of
// as a statistics drift.
func (n *Network) checkActiveSets() error {
	lay := &n.lay
	sets := [...]struct {
		name string
		s    *vcSet
	}{{"routeSet", &n.routeSet}, {"vaSet", &n.vaSet}, {"saSet", &n.saSet}, {"drainSet", &n.drainSet}}
	for node := 0; node < lay.nodes; node++ {
		for slot := 0; slot < lay.inStride; slot++ {
			ivc := &n.ins[node*lay.inStride+slot]
			qlen := ivc.len()
			routed := ivc.routed()
			absorbing := ivc.eject() || ivc.unroutable()
			want := [...]bool{
				!routed && qlen > 0 && ivc.front().head(),
				routed && !absorbing && ivc.outPort < 0,
				ivc.outPort >= 0 && qlen > 0,
				routed && absorbing && qlen > 0,
			}
			for k, set := range sets {
				if got := set.s.has(node, slot); got != want[k] {
					return fmt.Errorf("node %d slot %d: %s membership %v, predicate %v", node, slot, set.name, got, want[k])
				}
			}
			// Fault surgery walks only liveWork: a slot holding flits or
			// live route state is a set member, allocated (the owner of an
			// owned output), or fed by an owned output (its worm is still
			// arriving).
			if (qlen > 0 || routed && !ivc.eject()) && !want[kRoute] && !want[kVA] && !want[kSA] && !want[kDrain] &&
				ivc.outPort < 0 && (ivc.up < 0 || n.outs[ivc.up].free()) {
				return fmt.Errorf("node %d slot %d: %d flits or route state outside every stage set with no owned output feeding it", node, slot, qlen)
			}
			wantReady := want[kSA] && n.outs[node*lay.outStride+int(ivc.outPort)*lay.vcs+int(ivc.outVC)].credits > 0
			if got := n.rtr[lay.mask(kReady, node, slot)]&(1<<(slot&63)) != 0; got != wantReady {
				return fmt.Errorf("node %d slot %d: ready bit %v, predicate %v", node, slot, got, wantReady)
			}
			if n.rtr[lay.mask(kWait, node, slot)]&(1<<(slot&63)) != 0 {
				if !want[kVA] {
					return fmt.Errorf("node %d slot %d: VA wait bit on a slot outside the vaSet", node, slot)
				}
				for _, c := range n.candidates(node*lay.inStride + slot) {
					if n.outs[lay.outIdx(node, c.Port, c.VC)].free() {
						return fmt.Errorf("node %d slot %d: asleep in VA while its candidate output (%d,%d) is free", node, slot, c.Port, c.VC)
					}
				}
			}
		}
		for _, set := range sets {
			members := 0
			for k := 0; k < lay.wpn; k++ {
				members += bits.OnesCount64(n.rtr[node*lay.rStride+set.s.off+k])
			}
			if c := set.s.count(node); c != members {
				return fmt.Errorf("node %d: %s count %d, mask words hold %d members", node, set.name, c, members)
			}
			if got := set.s.nodeBits[node>>6]&(1<<(node&63)) != 0; got != (members > 0) {
				return fmt.Errorf("node %d: %s summary bit %v with %d members", node, set.name, got, members)
			}
		}
		// Injection bits are allowed to be stale-set (a faulty node's
		// queue is nulled without clearing its bit; injectStage skips it),
		// but a node with queued messages must never be missing.
		if q := len(n.injQ[node].pending()); q > 0 && !n.injNodes.has(node) {
			return fmt.Errorf("node %d: %d queued injections but not in injNodes", node, q)
		}
	}
	return nil
}
