package network

import "math/bits"

// Flat arena state + active-set stepping.
//
// The per-router pointer graph ([]*router -> [][]inputVC) is replaced
// by network-owned contiguous arenas indexed by precomputed strides: a
// pipeline stage walks cache-line-adjacent structs instead of chasing
// three levels of pointers. On top of the arenas, four incrementally
// maintained active sets track exactly the (node, port, VC) slots with
// live work per stage, so an idle VC costs nothing rather than a scan —
// per-cycle cost follows in-flight work, not topology size.
//
// Membership is derived state. Every mutation of an input VC's
// stage-relevant fields funnels through noteInput, which re-evaluates
// the six predicates for that one slot — except the per-flit
// transitions whose outcome applyMoves knows and applies itself:
//
//   route: !routed && q.len() > 0 && q.front().head   (awaiting RC)
//   va:    routed && !eject && !unroutable && outPort < 0  (awaiting VA)
//   sa:    outPort >= 0 && q.len() > 0                (flits to switch)
//   drain: routed && (eject || unroutable) && q.len() > 0
//   ready: sa && credits[allocated output] > 0        (may be nominated)
//   wait:  va && every candidate's output VC is owned (asleep in VA)
//
// ready is the credit-enables-request wire: bare mask words indexed like
// saSet.words, which also follow the credit counter — cleared when
// applyMoves takes an output's last credit, re-armed by creditArrived.
// wait (vaWait, indexed like vaSet.words) is set by the VA attempt that
// found nothing unowned and cleared for the whole node when one of its
// output VCs is released (the tail pop; fault surgery rebuilds). That is
// exact: a sleeper's candidates are fixed until it is routed again, they
// are all outputs of its own node, and allocation only takes outputs
// away, so only a release at this node can change its attempt's result.
//
// The decisionReady gate is deliberately NOT part of the predicates —
// it is time-dependent, and stages check it live (a delayed decision
// stays in its set until ready, which costs one skip per cycle).
//
// Determinism: a vcSet iterates members in ascending (node, slot)
// order via trailing-zero bit scans — exactly the order of the nested
// serial loops it replaces — and every stage's skip conditions equal
// its set's membership predicate, so processing only active slots is
// behaviourally identical to scanning everything. Stage processing may
// remove the slot being visited from the set it is iterating (the
// iteration snapshots each word first) and add slots to *other* sets,
// but never adds to the set being iterated; that property keeps the
// snapshot iteration exact.

// layout precomputes the arena strides of a network: input VCs are
// indexed node*inStride + port*vcs + vc with port Ports() being the
// injection pseudo-port; output VCs node*outStride + port*vcs + vc for
// link ports only.
type layout struct {
	nodes   int
	ports   int // link ports; the injection pseudo-port is index ports
	vcs     int
	inPorts int // ports+1
	// inStride/outStride are the per-node slot counts.
	inStride  int
	outStride int
	vcMask    uint64  // low vcs bits: one port's field of a mask word
	slotPort  []uint8 // slotPort[port*vcs+vc] = port: no stage divides
}

func newLayout(nodes, ports, vcs int) layout {
	if vcs > 64 || ports > 63 {
		// switchNode extracts per-port VC fields from the mask words (at
		// most two words each) and keeps a request bit per input port.
		panic("network: more than 64 VCs per port or 63 ports per node is not supported")
	}
	l := layout{
		nodes: nodes, ports: ports, vcs: vcs, inPorts: ports + 1,
		inStride: (ports + 1) * vcs, outStride: ports * vcs,
		vcMask:   ^uint64(0) >> (64 - uint(vcs)),
		slotPort: make([]uint8, (ports+1)*vcs),
	}
	for slot := range l.slotPort {
		l.slotPort[slot] = uint8(slot / vcs)
	}
	return l
}

// portVC splits a slot (port*vcs + vc) by table lookup.
func (l *layout) portVC(slot int) (port, vc int) {
	port = int(l.slotPort[slot])
	return port, slot - port*l.vcs
}

// vcField extracts port's VC field from one node's mask words (which
// start at words[base]; the field may straddle two of them), rotated
// right by rr: bit i of the result is VC (rr+i) mod vcs.
func (l *layout) vcField(words []uint64, base, port, rr int) uint64 {
	bitpos := port * l.vcs
	f := words[base+bitpos>>6] >> (bitpos & 63)
	if rem := 64 - bitpos&63; rem < l.vcs {
		f |= words[base+bitpos>>6+1] << rem
	}
	f &= l.vcMask
	return (f>>uint(rr) | f<<uint(l.vcs-rr)) & l.vcMask
}

// nextPort returns the lowest input port >= from with a bit set in one
// node's mask words, or -1.
func (l *layout) nextPort(words []uint64, base, from int) int {
	for bit := from * l.vcs; bit < l.inStride; bit = (bit>>6 + 1) << 6 {
		if w := words[base+bit>>6] >> (bit & 63); w != 0 {
			return int(l.slotPort[bit+bits.TrailingZeros64(w)])
		}
	}
	return -1
}

// inIdx returns the ins-arena index of input (node, port, vc).
func (l *layout) inIdx(node, port, vc int) int {
	return node*l.inStride + port*l.vcs + vc
}

// outIdx returns the outs-arena index of output (node, port, vc).
func (l *layout) outIdx(node, port, vc int) int {
	return node*l.outStride + port*l.vcs + vc
}

// vcSet is a two-level bitset over (node, slot) pairs: per-node mask
// words (wpn words each, node-owned), a node-level summary bitset and
// a per-node member count. All operations are O(1); iteration visits
// members in ascending (node, slot) order.
type vcSet struct {
	wpn      int      // mask words per node
	words    []uint64 // nodes * wpn
	nodeBits []uint64 // bit n set iff node n has any member
	count    []int32  // members per node
}

func newVCSet(nodes, slots int) vcSet {
	wpn := (slots + 63) / 64
	return vcSet{
		wpn:      wpn,
		words:    make([]uint64, nodes*wpn),
		nodeBits: make([]uint64, (nodes+63)/64),
		count:    make([]int32, nodes),
	}
}

// set makes (node, slot) a member iff member, updating the count and
// summary bit on transitions.
func (s *vcSet) set(node, slot int, member bool) {
	w := &s.words[node*s.wpn+slot>>6]
	bit := uint64(1) << (slot & 63)
	if member {
		if *w&bit == 0 {
			*w |= bit
			if s.count[node] == 0 {
				s.nodeBits[node>>6] |= 1 << (node & 63)
			}
			s.count[node]++
		}
	} else if *w&bit != 0 {
		*w &^= bit
		s.count[node]--
		if s.count[node] == 0 {
			s.nodeBits[node>>6] &^= 1 << (node & 63)
		}
	}
}

// has reports membership of (node, slot).
func (s *vcSet) has(node, slot int) bool {
	return s.words[node*s.wpn+slot>>6]&(1<<(slot&63)) != 0
}

// size sums the per-node counts (peak sampling only, every 64 cycles).
func (s *vcSet) size() int {
	t := 0
	for _, c := range s.count {
		t += int(c)
	}
	return t
}

// forEach calls fn for every member, in ascending (node, slot) order.
// Each summary and mask word is snapshotted before scanning, so fn may
// remove the visited slot (or any slot of the visited node) and may add
// members to other sets — but must not add members to THIS set.
func (s *vcSet) forEach(fn func(node, slot int)) { s.forEachExcept(nil, fn) }

// forEachExcept is forEach over the members whose bit in skip (indexed
// like words; nil skips nothing) is clear. fn may set skip bits.
func (s *vcSet) forEachExcept(skip []uint64, fn func(node, slot int)) {
	for wi, nw := range s.nodeBits {
		for nw != 0 {
			node := wi<<6 + bits.TrailingZeros64(nw)
			nw &= nw - 1
			base := node * s.wpn
			for k := 0; k < s.wpn; k++ {
				mw := s.words[base+k]
				if skip != nil {
					mw &^= skip[base+k]
				}
				for mw != 0 {
					slot := k<<6 + bits.TrailingZeros64(mw)
					mw &= mw - 1
					fn(node, slot)
				}
			}
		}
	}
}

// forEachNode calls fn for every node with at least one member,
// ascending. Same snapshot contract as forEach.
func (s *vcSet) forEachNode(fn func(node int)) {
	for wi, nw := range s.nodeBits {
		for nw != 0 {
			node := wi<<6 + bits.TrailingZeros64(nw)
			nw &= nw - 1
			fn(node)
		}
	}
}

// nodeSet is a plain node-level bitset (injection work list).
type nodeSet struct {
	bits []uint64
}

func newNodeSet(nodes int) nodeSet {
	return nodeSet{bits: make([]uint64, (nodes+63)/64)}
}

func (s *nodeSet) set(node int, member bool) {
	if member {
		s.bits[node>>6] |= 1 << (node & 63)
	} else {
		s.bits[node>>6] &^= 1 << (node & 63)
	}
}

func (s *nodeSet) size() int {
	t := 0
	for _, w := range s.bits {
		t += bits.OnesCount64(w)
	}
	return t
}

// forEach visits members ascending; the word is snapshotted, so fn may
// clear the visited node's bit.
func (s *nodeSet) forEach(fn func(node int)) {
	for wi, w := range s.bits {
		for w != 0 {
			node := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			fn(node)
		}
	}
}

// noteInput re-derives the memberships, the alloc mirror and the ready
// bit of one input slot (slot = port*vcs + vc) from its current state.
// Every mutation of an input VC's routed/eject/unroutable/outPort/queue
// state must be followed by a noteInput of that slot.
func (n *Network) noteInput(node, slot int) {
	idx := node*n.lay.inStride + slot
	ivc := &n.ins[idx]
	qlen := ivc.q.len()
	n.routeSet.set(node, slot, !ivc.routed && qlen > 0 && ivc.q.front().head)
	n.vaSet.set(node, slot, ivc.routed && !ivc.eject && !ivc.unroutable && ivc.outPort < 0)
	n.saSet.set(node, slot, ivc.outPort >= 0 && qlen > 0)
	n.drainSet.set(node, slot, ivc.routed && (ivc.eject || ivc.unroutable) && qlen > 0)
	n.alloc[idx] = -1
	if ivc.outPort >= 0 {
		n.alloc[idx] = int32(ivc.outPort*n.lay.vcs + ivc.outVC)
	}
	n.setReady(node, slot, ivc.outPort >= 0 && qlen > 0 && n.credits[node*n.lay.outStride+int(n.alloc[idx])] > 0)
	n.vaWait[node*n.vaSet.wpn+slot>>6] &^= 1 << (slot & 63)
}

// setReady sets or clears the ready bit of (node, slot).
func (n *Network) setReady(node, slot int, on bool) {
	w := &n.ready[node*n.saSet.wpn+slot>>6]
	*w &^= 1 << (slot & 63)
	if on {
		*w |= 1 << (slot & 63)
	}
}

// creditArrived returns one credit to output oi of node; a 0 -> 1
// transition re-arms the owning input if it has flits to switch.
func (n *Network) creditArrived(node, oi int) {
	n.credits[oi]++
	if out := &n.outs[oi]; n.credits[oi] == 1 && out.ownerInPort >= 0 {
		if slot := out.ownerInPort*n.lay.vcs + out.ownerInVC; n.saSet.has(node, slot) {
			n.setReady(node, slot, true)
		}
	}
}

// rebuildActiveSets re-derives every slot's memberships — the cold path
// after fault surgery rewrites arbitrary VC state in place.
func (n *Network) rebuildActiveSets() {
	for node := 0; node < n.lay.nodes; node++ {
		for slot := 0; slot < n.lay.inStride; slot++ {
			n.noteInput(node, slot)
		}
		n.injNodes.set(node, len(n.injQ[node].pending()) > 0)
	}
}

// ActiveSetPeaks reports the peak sizes of the per-stage work lists,
// sampled every 64 cycles (Step): how busy the network got, in units
// of live (node, port, VC) slots — the denominator of the active-set
// win. InjectNodes counts nodes with a non-empty injection queue.
type ActiveSetPeaks struct {
	Route       int
	Alloc       int
	Switch      int
	Drain       int
	InjectNodes int
}

// Peaks returns the sampled active-set peaks since the network was
// built.
func (n *Network) Peaks() ActiveSetPeaks { return n.peaks }

// samplePeaks updates the peak gauges (called from Step every 64
// cycles; summation over the per-node counts keeps the hot path free of
// a size counter).
func (n *Network) samplePeaks() {
	if v := n.routeSet.size(); v > n.peaks.Route {
		n.peaks.Route = v
	}
	if v := n.vaSet.size(); v > n.peaks.Alloc {
		n.peaks.Alloc = v
	}
	if v := n.saSet.size(); v > n.peaks.Switch {
		n.peaks.Switch = v
	}
	if v := n.drainSet.size(); v > n.peaks.Drain {
		n.peaks.Drain = v
	}
	if v := n.injNodes.size(); v > n.peaks.InjectNodes {
		n.peaks.InjectNodes = v
	}
}
