// Package network implements a flit-level, cycle-driven simulator of a
// wormhole-switched multicomputer network with virtual channels — the
// substrate on which the paper's routing algorithms are evaluated.
//
// The router model follows the canonical four-phase pipeline: routing
// computation (RC, performed by a routing.Algorithm and charged with
// the algorithm's rule-interpretation step count), virtual-channel
// allocation (VA, guided by a routing.Selector implementing the
// adaptivity criterion), switch allocation (SA, round-robin fair per
// input and output port) and switch traversal (ST, one flit per
// physical link and cycle). Flow control is credit based with per-VC
// input buffers.
//
// Fault injection honours the paper's assumption iv: when faults are
// applied, messages currently touching the failed components are
// removed (in a real direct network they would be reinjected via the
// nearest home link) and the algorithm's diagnosis/state propagation
// runs to its fixpoint before traffic continues.
package network

import (
	"repro/internal/routing"
	"repro/internal/topology"
)

// MessageState describes the lifecycle stage of a message.
type MessageState int

const (
	// StateQueued means the message waits in its source injection
	// queue.
	StateQueued MessageState = iota
	// StateInFlight means at least one flit is in the network.
	StateInFlight
	// StateDelivered means the tail flit was ejected at the
	// destination.
	StateDelivered
	// StateDropped means the routing algorithm declared the message
	// unroutable and the network absorbed it.
	StateDropped
	// StateKilled means a fault event destroyed the message in
	// transit (assumption iv: such messages are handled by a
	// higher-level reinjection protocol and are excluded from latency
	// statistics).
	StateKilled
)

// Message is one wormhole message (a sequence of Length flits: one
// head, Length-2 body, one tail; minimum length 2).
type Message struct {
	ID  int64
	Hdr routing.Header

	// InjectTime is the cycle the message entered the source queue.
	InjectTime int64
	// StartTime is the cycle its head flit first left the injection
	// queue (-1 while queued).
	StartTime int64
	// DoneTime is the cycle the tail flit was ejected or the message
	// was dropped/killed (-1 otherwise).
	DoneTime int64

	State MessageState
	// Hops counts physical link traversals of the head flit.
	Hops int
	// Steps accumulates the rule-interpreter invocations spent on the
	// message's routing decisions (paper Section 5).
	Steps int
	// DropNode records where an unroutable message was absorbed.
	DropNode topology.NodeID
	// DropInPort and DropInVC record the input port (in routing.Request
	// convention: routing.InjectionPort for the source's injection
	// queue) and input VC of the unroutable decision that absorbed the
	// message. The campaign oracle replays that exact decision on the
	// native reference algorithm to decide whether the drop was
	// justified. Both are -1 until the message is dropped.
	DropInPort int
	DropInVC   int
	// Unreachable marks the drop as a certified unreachability verdict:
	// the algorithm's UnreachableVerdict confirmed at the unroutable
	// decision that the destination is disconnected on the post-fault
	// graph. The guaranteed-delivery oracle accepts only
	// such drops for the maze family.
	Unreachable bool

	// flitsEjected counts flits already delivered at the destination;
	// when a fault event kills a partially absorbed worm, this many
	// flits are backed out of Stats.FlitsDelivered (killed messages are
	// excluded from the statistics wholesale, assumption iv).
	flitsEjected int
	// idx is the message's slot in Network.msgs while it is in the
	// network, which is what its flits name.
	idx int32
}

// Latency returns the total queue+network latency in cycles, or -1 if
// the message was not delivered.
func (m *Message) Latency() int64 {
	if m.State != StateDelivered {
		return -1
	}
	return m.DoneTime - m.InjectTime
}

// NetworkLatency returns the cycles between the head flit leaving the
// injection queue and tail ejection, or -1 if not delivered.
func (m *Message) NetworkLatency() int64 {
	if m.State != StateDelivered || m.StartTime < 0 {
		return -1
	}
	return m.DoneTime - m.StartTime
}

// flit is one flow-control unit in a buffer: the message-table index
// of its message (Network.msgs) above the head and tail bits. A buffer
// holds no pointer, so a VC ring stays four bytes a flit.
type flit uint32

const (
	flitTail flit = 1 << iota
	flitHead
)

func (f flit) head() bool { return f&flitHead != 0 }
func (f flit) tail() bool { return f&flitTail != 0 }

// msg returns the message-table index of the flit's message.
func (f flit) msg() int32 { return int32(f >> 2) }
