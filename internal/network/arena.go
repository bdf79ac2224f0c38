package network

import "math/bits"

// Router-major state + active-set stepping.
//
// Per-router state lives in three kinds of record, each sized so that a
// flit hop touches few cache lines (DESIGN.md §7.1 counts them against
// the per-field arenas they replaced):
//
//   - the slot record (inputVC, Network.ins, one 64-byte line per input
//     VC): flit ring, route and allocation state, the upstream output;
//   - the output record (outputVC, Network.outs, 32 bytes per output
//     VC): owner, remaining, credits, the downstream slot, flits sent;
//   - the router record (Network.rtr, a whole number of lines per node,
//     laid out by layout): first what a hop reads — the sa and ready
//     masks, the credit mask, the member counts and the round-robin
//     pointers — then the route, va, drain and wait masks and the
//     owned-output mask.
//
// A body flit moving X -> Y, its credit going back to U, touches X's
// router record (one line on a mesh, two on the cube8 ROUTE_C layout),
// X's slot and output records, Y's slot record and the first line of
// Y's router record, U's output record and — only when that credit is
// U's first — the first line of U's: at most eight lines
// (TestHopRecordsFitLines). Flits are message-table indices with
// head/tail bits (flit), so a ring holds no pointer and a body flit
// never loads its Message.
//
// On top of the records, four incrementally maintained active sets
// track exactly the (node, port, VC) slots with live work per stage, so
// an idle VC costs nothing rather than a scan — per-cycle cost follows
// in-flight work, not topology size. Their mask words are the router
// record's; a node-level summary bitset per set says which routers have
// members.
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
// ready is the credit-enables-request wire: mask words beside sa's,
// which also follow the credit counter — cleared when applyMoves takes
// an output's last credit, re-armed by creditArrived. The credit mask
// (one bit per output VC: credits > 0) is what noteInput and VA read,
// so noting a slot never loads an output record. wait is set by the VA
// attempt that found nothing unowned and cleared for the whole node
// when one of its output VCs is released (the tail pop; fault surgery
// re-notes). That is exact: a sleeper's candidates are fixed until it
// is routed again, they are all outputs of its own node, and allocation
// only takes outputs away, so only a release at this node can change
// its attempt's result.
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

// Slot-indexed masks of a router record (each wpn words); the first
// four are the stage sets, which also keep a count.
const (
	kRoute = iota
	kVA
	kSA
	kDrain
	kReady
	kWait
	slotMasks
)

// lineWords is the 64-bit words in a cache line.
const lineWords = 8

// layout precomputes the arena strides of a network: input VCs are
// indexed node*inStride + port*vcs + vc with port Ports() being the
// injection pseudo-port; output VCs node*outStride + port*vcs + vc for
// link ports only; router records node*rStride words.
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

	// Router record, in words, what a body flit's hop reads first: the
	// sa and ready masks (wpn words each), the credit mask (wpo words),
	// one word of four uint16 member counts (route, va, sa, drain), rrIn
	// (one byte per input port) and rrOut (one uint32 per output port);
	// then the route, va, drain and wait masks and the owned mask (wpo
	// words). Padded to whole lines.
	wpn, wpo int
	maskOff  [slotMasks]int
	credOff  int
	cntOff   int
	rrInOff  int
	rrOutOff int
	ownOff   int
	rStride  int
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
	l.wpn = (l.inStride + 63) / 64
	l.wpo = (l.outStride + 63) / 64
	l.maskOff[kSA] = 0
	l.maskOff[kReady] = l.wpn
	l.credOff = 2 * l.wpn
	l.cntOff = l.credOff + l.wpo
	l.rrInOff = l.cntOff + 1
	l.rrOutOff = l.rrInOff + (l.inPorts+7)/8
	off := l.rrOutOff + (ports+1)/2
	for _, kind := range []int{kRoute, kVA, kDrain, kWait} {
		l.maskOff[kind] = off
		off += l.wpn
	}
	l.ownOff = off
	l.rStride = (l.ownOff + l.wpo + lineWords - 1) / lineWords * lineWords
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
// node's mask words (starting at words[base]), or -1.
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

// mask returns the index in Network.rtr of the word of node's kind mask
// holding slot's bit.
func (l *layout) mask(kind, node, slot int) int {
	return node*l.rStride + l.maskOff[kind] + slot>>6
}

// vcSet is one stage's work list: its mask words in the router records
// (wpn words per node at offset off), a member count per node (uint16
// field shift of the count word) and a node-level summary bitset. All
// operations are O(1); iteration visits members in ascending (node,
// slot) order.
type vcSet struct {
	words    []uint64 // the router-record arena
	stride   int      // words per router record
	off      int      // offset of the mask in a record
	wpn      int
	cntOff   int
	cntShift uint
	nodeBits []uint64 // bit n set iff node n has any member
}

func newVCSet(rtr []uint64, l *layout, kind int) vcSet {
	return vcSet{
		words: rtr, stride: l.rStride, off: l.maskOff[kind], wpn: l.wpn,
		cntOff: l.cntOff, cntShift: uint(16 * kind),
		nodeBits: make([]uint64, (l.nodes+63)/64),
	}
}

// set makes (node, slot) a member iff member, updating the count and
// summary bit on transitions.
func (s *vcSet) set(node, slot int, member bool) {
	base := node * s.stride
	w := &s.words[base+s.off+slot>>6]
	bit := uint64(1) << (slot & 63)
	if member {
		if *w&bit == 0 {
			*w |= bit
			c := &s.words[base+s.cntOff]
			if *c>>s.cntShift&0xFFFF == 0 {
				s.nodeBits[node>>6] |= 1 << (node & 63)
			}
			*c += 1 << s.cntShift
		}
	} else if *w&bit != 0 {
		*w &^= bit
		c := &s.words[base+s.cntOff]
		if *c -= 1 << s.cntShift; *c>>s.cntShift&0xFFFF == 0 {
			s.nodeBits[node>>6] &^= 1 << (node & 63)
		}
	}
}

// has reports membership of (node, slot).
func (s *vcSet) has(node, slot int) bool {
	return s.words[node*s.stride+s.off+slot>>6]&(1<<(slot&63)) != 0
}

// count returns node's member count.
func (s *vcSet) count(node int) int {
	return int(s.words[node*s.stride+s.cntOff] >> s.cntShift & 0xFFFF)
}

// size sums the counts of the nodes with members (peak sampling only,
// every 64 cycles).
func (s *vcSet) size() int {
	t := 0
	s.forEachNode(func(node int) { t += s.count(node) })
	return t
}

// forEach calls fn for every member, in ascending (node, slot) order.
// Each summary and mask word is snapshotted before scanning, so fn may
// remove the visited slot (or any slot of the visited node) and may add
// members to other sets — but must not add members to THIS set.
func (s *vcSet) forEach(fn func(node, slot int)) { s.forEachExcept(-1, fn) }

// forEachExcept is forEach over the members whose bit in the record
// mask at offset skip (-1 skips nothing) is clear. fn may set skip bits.
func (s *vcSet) forEachExcept(skip int, fn func(node, slot int)) {
	for wi, nw := range s.nodeBits {
		for nw != 0 {
			node := wi<<6 + bits.TrailingZeros64(nw)
			nw &= nw - 1
			base := node * s.stride
			for k := 0; k < s.wpn; k++ {
				mw := s.words[base+s.off+k]
				if skip >= 0 {
					mw &^= s.words[base+skip+k]
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

func (s *nodeSet) has(node int) bool { return s.bits[node>>6]&(1<<(node&63)) != 0 }

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

// noteInput re-derives the memberships and the ready bit of one input
// slot (slot = port*vcs + vc) from its current state, and clears its
// wait bit. Every mutation of an input VC's routed/eject/unroutable/
// outPort/queue state must be followed by a noteInput of that slot.
func (n *Network) noteInput(node, slot int) {
	ivc := &n.ins[node*n.lay.inStride+slot]
	qlen := ivc.n
	routed := ivc.flags&vcRouted != 0
	absorbing := ivc.flags&(vcEject|vcUnroutable) != 0
	n.routeSet.set(node, slot, !routed && qlen > 0 && ivc.front().head())
	n.vaSet.set(node, slot, routed && !absorbing && ivc.outPort < 0)
	sa := ivc.outPort >= 0 && qlen > 0
	n.saSet.set(node, slot, sa)
	n.drainSet.set(node, slot, routed && absorbing && qlen > 0)
	n.setReady(node, slot, sa && n.hasCredit(node, int(ivc.outPort)*n.lay.vcs+int(ivc.outVC)))
	n.rtr[n.lay.mask(kWait, node, slot)] &^= 1 << (slot & 63)
}

// setReady sets or clears the ready bit of (node, slot).
func (n *Network) setReady(node, slot int, on bool) {
	setBit(&n.rtr[n.lay.mask(kReady, node, slot)], slot, on)
}

// hasCredit reports node's credit-mask bit of output slot o
// (port*vcs+vc): the output has a free downstream buffer slot.
func (n *Network) hasCredit(node, o int) bool {
	return n.rtr[node*n.lay.rStride+n.lay.credOff+o>>6]&(1<<(o&63)) != 0
}

// setCredit sets or clears node's credit-mask bit of output slot o.
func (n *Network) setCredit(node, o int, on bool) {
	setBit(&n.rtr[node*n.lay.rStride+n.lay.credOff+o>>6], o, on)
}

func setBit(w *uint64, i int, on bool) {
	*w &^= 1 << (i & 63)
	if on {
		*w |= 1 << (i & 63)
	}
}

// rrIn returns input port p's round-robin VC pointer at node.
func (n *Network) rrIn(node, p int) int {
	return int(n.rtr[node*n.lay.rStride+n.lay.rrInOff+p>>3] >> (8 * (p & 7)) & 0xFF)
}

func (n *Network) setRRIn(node, p, v int) {
	w := &n.rtr[node*n.lay.rStride+n.lay.rrInOff+p>>3]
	sh := 8 * uint(p&7)
	*w = *w&^(0xFF<<sh) | uint64(v)<<sh
}

// rrOut returns output port op's grant counter at node; it counts
// grants modulo 2^32 (an int counter would first differ after 2^32
// grants through one port).
func (n *Network) rrOut(node, op int) int {
	return int(uint32(n.rtr[node*n.lay.rStride+n.lay.rrOutOff+op>>1] >> (32 * (op & 1))))
}

func (n *Network) setRROut(node, op, v int) {
	w := &n.rtr[node*n.lay.rStride+n.lay.rrOutOff+op>>1]
	sh := 32 * uint(op&1)
	*w = *w&^(0xFFFFFFFF<<sh) | uint64(uint32(v))<<sh
}

// creditArrived returns one credit to output oi; a 0 -> 1 transition
// sets the output's credit bit and re-arms the owning input if it has
// flits to switch.
func (n *Network) creditArrived(oi int) {
	out := &n.outs[oi]
	if out.credits++; out.credits != 1 {
		return
	}
	node := oi / n.lay.outStride
	n.setCredit(node, oi-node*n.lay.outStride, true)
	if slot := int(out.owner); slot >= 0 && n.saSet.has(node, slot) {
		n.setReady(node, slot, true)
	}
}

// claimOutput makes input slot of node the owner of its output slot o
// for message m (VA).
func (n *Network) claimOutput(node, slot, o int, m *Message) {
	out := &n.outs[node*n.lay.outStride+o]
	out.owner = int16(slot)
	out.ownerMsg = m
	out.remaining = int32(m.Hdr.Length)
	setBit(&n.rtr[node*n.lay.rStride+n.lay.ownOff+o>>6], o, true)
	n.ownNodes.set(node, true)
}

// releaseOutput frees output slot o of node.
func (n *Network) releaseOutput(node, o int) {
	out := &n.outs[node*n.lay.outStride+o]
	out.owner = -1
	out.ownerMsg = nil
	out.remaining = 0
	base := node*n.lay.rStride + n.lay.ownOff
	setBit(&n.rtr[base+o>>6], o, false)
	for _, w := range n.rtr[base : base+n.lay.wpo] {
		if w != 0 {
			return
		}
	}
	n.ownNodes.set(node, false)
}

// forEachOwned calls fn for every owned output of node, ascending.
func (n *Network) forEachOwned(node int, fn func(o int)) {
	base := node*n.lay.rStride + n.lay.ownOff
	for k := 0; k < n.lay.wpo; k++ {
		for w := n.rtr[base+k]; w != 0; w &= w - 1 {
			fn(k<<6 + bits.TrailingZeros64(w))
		}
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
// cycles; summation over the active nodes' counts keeps the hot path
// free of a size counter).
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
