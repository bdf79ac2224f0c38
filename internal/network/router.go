package network

// msgQueue is one node's source queue, head-indexed: a pop nils its
// slot and, once half the array is dead prefix, slides the live
// messages back to the start, so the array is reused and keeps no
// popped message reachable.
type msgQueue struct {
	buf  []*Message
	head int
}

func (q *msgQueue) pending() []*Message { return q.buf[q.head:] }

func (q *msgQueue) popFront() *Message {
	m := q.buf[q.head]
	q.buf[q.head] = nil
	if q.head++; 2*q.head >= len(q.buf) {
		live := copy(q.buf, q.buf[q.head:])
		clear(q.buf[live:])
		q.buf, q.head = q.buf[:live], 0
	}
	return m
}

// ringCap is the flit capacity of an input VC's ring, and so the
// largest Config.BufDepth: what is left of the slot record's 64 bytes
// after its header.
const ringCap = 9

// Slot record flags.
const (
	vcRouted       uint8 = 1 << iota // the front message has passed RC
	vcEject                          // the front message is at its destination
	vcUnroutable                     // the front message is being absorbed (dropped)
	vcBlockedNoted                   // the recorder logged this credit-blocking episode
	vcInject                         // a VC of the injection pseudo-port
	vcStarted                        // injection VC: the head flit has left
)

// inputVC is the slot record: the receive side of one virtual channel
// of one input port — its flit ring, the routing state of the message
// whose head is (or was) at the front, its allocated output and the
// output upstream that its credits go back to. It is one 64-byte line
// (TestHopRecordsFitLines); the routing candidates, read only by RC and
// VA, live beside it in Network.cands.
//
// A link VC's ring holds up to BufDepth flits. The injection
// pseudo-port's VC holds one whole message at a time (injectStage
// materialises the next only once it is empty), so its ring keeps that
// message's flit once in ring[0] and n counts the flits still to leave;
// front derives the head and tail bits.
type inputVC struct {
	// curMsg is the message the route state belongs to (set at RC);
	// the queue may be transiently empty while the worm streams
	// through, so the front flit alone cannot identify it.
	curMsg *Message
	// decisionReady is the cycle at which the routing decision
	// becomes available (models the decision time studied in E9).
	decisionReady int64
	// up is the outs index of the upstream output VC whose credits
	// this VC's buffer backs; -1 for the injection pseudo-port and an
	// unconnected port.
	up int32
	// n is the number of queued flits; head the ring index of the
	// front one.
	n     uint32
	head  uint8
	flags uint8
	// outPort/outVC are the allocated output (-1 before VA).
	outPort, outVC int8
	ring           [ringCap]flit
}

func (vc *inputVC) len() int { return int(vc.n) }

func (vc *inputVC) routed() bool     { return vc.flags&vcRouted != 0 }
func (vc *inputVC) eject() bool      { return vc.flags&vcEject != 0 }
func (vc *inputVC) unroutable() bool { return vc.flags&vcUnroutable != 0 }

// front returns the first flit; the queue must be non-empty.
func (vc *inputVC) front() flit {
	if vc.flags&vcInject == 0 {
		return vc.ring[vc.head]
	}
	f := vc.ring[0]
	if vc.flags&vcStarted == 0 {
		f |= flitHead
	}
	if vc.n == 1 {
		f |= flitTail
	}
	return f
}

// popFront removes and returns the first flit.
func (vc *inputVC) popFront() flit {
	if vc.flags&vcInject != 0 {
		f := vc.front()
		vc.n--
		vc.flags |= vcStarted
		return f
	}
	f := vc.ring[vc.head]
	vc.n--
	if vc.head++; vc.head == ringCap {
		vc.head = 0
	}
	return f
}

// pushBack appends one flit to a link VC's ring.
func (vc *inputVC) pushBack(f flit) {
	if vc.n == ringCap {
		panic("network: input VC ring overflow")
	}
	i := int(vc.head) + int(vc.n)
	if i >= ringCap {
		i -= ringCap
	}
	vc.ring[i] = f
	vc.n++
}

// load materialises a whole message of length flits (message-table
// index idx) into an empty injection VC.
func (vc *inputVC) load(idx int32, length int) {
	vc.ring[0] = flit(idx) << 2
	vc.n = uint32(length)
	vc.flags &^= vcStarted
}

// flitAt returns the i-th queued flit (0 = front).
func (vc *inputVC) flitAt(i int) flit {
	if vc.flags&vcInject != 0 {
		return vc.ring[0]
	}
	j := int(vc.head) + i
	if j >= ringCap {
		j -= ringCap
	}
	return vc.ring[j]
}

// filter keeps the queued flits for which keep holds, in order (fault
// surgery). An injection VC holds one message, kept or dropped whole.
func (vc *inputVC) filter(keep func(flit) bool) {
	if vc.flags&vcInject != 0 {
		if vc.n > 0 && !keep(vc.ring[0]) {
			vc.n = 0
		}
		return
	}
	kept := uint32(0)
	for i := 0; i < int(vc.n); i++ {
		if f := vc.flitAt(i); keep(f) {
			j := int(vc.head) + int(kept)
			if j >= ringCap {
				j -= ringCap
			}
			vc.ring[j] = f
			kept++
		}
	}
	vc.n = kept
}

// resetRoute clears the route state; the queue and its kind stay.
func (vc *inputVC) resetRoute() {
	vc.flags &= vcInject | vcStarted
	vc.curMsg = nil
	vc.decisionReady = 0
	vc.outPort, vc.outVC = -1, -1
}

// outputVC is the output record: the send side of one virtual channel
// of one output port — its owner, the flits the owner still has to
// send, the free downstream buffer slots, the far end, and the flits
// sent. 32 bytes, two to a line.
type outputVC struct {
	// ownerMsg is the message holding this output VC (nil when free);
	// fault surgery uses it to release channels of killed worms.
	ownerMsg *Message
	// sent counts the flits transmitted (link-utilisation statistics).
	sent int64
	// downNode/downSlot name the downstream input VC (node, port*vcs+vc
	// there); downNode is -1 for an unconnected port.
	downNode int32
	// remaining is the number of flits of the owning message that
	// still have to pass this output (the NAFTA adaptivity
	// criterion).
	remaining int32
	// owner is the owning input slot of this node (port*vcs+vc, the
	// injection port included); -1 means free.
	owner    int16
	credits  int16
	downSlot int16
}

func (o *outputVC) free() bool { return o.owner == -1 }
