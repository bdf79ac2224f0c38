package network

import (
	"repro/internal/routing"
)

// flitQueue is a head-indexed FIFO of flits. Unlike the naive
// `q = q[1:]` pop — which slides the slice forward until every append
// reallocates — the queue reuses its backing array: popping advances
// head (resetting to the array start when emptied), and a full push
// compacts the live flits to the front instead of growing. Once warm,
// the steady-state hot path performs zero allocations.
type flitQueue struct {
	buf  []flit
	head int
}

func (q *flitQueue) len() int { return len(q.buf) - q.head }

// front returns the first flit; the queue must be non-empty.
func (q *flitQueue) front() *flit { return &q.buf[q.head] }

// popFront removes and returns the first flit.
func (q *flitQueue) popFront() flit {
	f := q.buf[q.head]
	q.buf[q.head] = flit{} // release the message reference
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return f
}

// pushBack appends one flit, compacting the live region to the array
// start when the tail hits capacity.
func (q *flitQueue) pushBack(f flit) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, f)
}

// slice exposes the live flits for in-place iteration or filtering;
// after filtering into the returned slice, call truncate with the kept
// count.
func (q *flitQueue) slice() []flit { return q.buf[q.head:] }

// truncate shrinks the queue to its first n live flits (used by the
// fault surgery after filtering slice() in place).
func (q *flitQueue) truncate(n int) { q.buf = q.buf[:q.head+n] }

// msgQueue is one node's source queue, head-indexed like flitQueue: a
// pop nils its slot and, once half the array is dead prefix, slides the
// live messages back to the start, so the array is reused and keeps no
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

// inputVC is the receive side of one virtual channel of one input
// port: a FIFO flit buffer plus the routing state of the message whose
// head is (or will be) at the front.
type inputVC struct {
	q flitQueue

	// routed is true once the front message has passed RC.
	routed bool
	// curMsg is the message the route state belongs to (set at RC);
	// the queue may be transiently empty while the worm streams
	// through, so the front flit alone cannot identify it.
	curMsg *Message
	// decisionReady is the cycle at which the routing decision
	// becomes available (models the decision time studied in E9).
	decisionReady int64
	// candidates are the admissible outputs from RC (nil + routed
	// means unroutable -> absorb).
	candidates []routing.Candidate
	// unroutable marks a message being absorbed (dropped).
	unroutable bool
	// outPort/outVC are the allocated output (-1 before VA).
	outPort, outVC int
	// eject is true when the front message is at its destination.
	eject bool
	// blockedNoted marks that the flight recorder already logged the
	// current credit-blocking episode (one event per episode, not per
	// cycle).
	blockedNoted bool
}

func (vc *inputVC) resetRoute() {
	vc.routed = false
	vc.curMsg = nil
	vc.decisionReady = 0
	// Keep the backing array: routeStage refills it via RouteAppend with
	// candidates[:0], so steady-state routing does not allocate.
	vc.candidates = vc.candidates[:0]
	vc.unroutable = false
	vc.outPort, vc.outVC = -1, -1
	vc.eject = false
	vc.blockedNoted = false
}

// frontMsg returns the message of the front flit, or nil.
func (vc *inputVC) frontMsg() *Message {
	if vc.q.len() == 0 {
		return nil
	}
	return vc.q.front().msg
}

// outputVC is the send side of one virtual channel of one output port.
type outputVC struct {
	// ownerIn identifies the input holding this output VC as
	// (inPort, inVC); inPort == -1 means free, inPort == injection
	// port index means the local injection stage.
	ownerInPort, ownerInVC int
	// ownerMsg is the message holding this output VC (nil when free);
	// fault surgery uses it to release channels of killed worms.
	ownerMsg *Message
	// remaining is the number of flits of the owning message that
	// still have to pass this output (the NAFTA adaptivity
	// criterion).
	remaining int
}

func (o *outputVC) free() bool { return o.ownerInPort == -1 }
