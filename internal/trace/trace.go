// Package trace is the simulator's flight recorder: a near-zero-
// overhead event log of everything the router pipeline, the fault
// machinery and the rule engine do, kept in fixed-size per-node ring
// buffers so that the last N cycles of history are always available
// for a post-mortem when an invariant trips.
//
// The design follows the classic flight-recorder discipline:
//
//   - recording is opt-in — a simulation without an attached Recorder
//     pays exactly one nil-check per would-be event;
//   - events are compact fixed-size records (no allocation on the
//     recording path once the rings are built);
//   - the rings keep the recent past per node; an optional streaming
//     Sink (JSONL or Chrome trace_event) additionally persists the
//     full event stream for offline analysis;
//   - when the network's invariant checker detects a deadlock or a
//     livelocked packet, the recorder's recent history plus a full
//     router/VC/credit snapshot become a structured Report naming the
//     cycle, the blocked packets and the channel-wait cycle.
//
// A Recorder is intentionally not synchronised: the simulator is
// single-goroutine per network, and parallel sweeps attach one
// recorder per job (see sim.Config.Recorder).
package trace

import (
	"encoding/json"
	"fmt"
)

// Kind enumerates the recorded event types.
type Kind uint8

const (
	// KFlitInjected: a message's head flit entered the network at
	// Node (Arg = message length in flits).
	KFlitInjected Kind = iota
	// KRouteComputed: RC produced Arg admissible candidates for Msg at
	// Node (Port/VC identify the input; Arg < 0 never happens — an
	// empty candidate set is KUnroutable).
	KRouteComputed
	// KUnroutable: RC found no admissible output; the message will be
	// absorbed at Node.
	KUnroutable
	// KVCAllocated: VA granted output (Port,VC) of Node to Msg.
	KVCAllocated
	// KVCFreed: the tail flit of Msg released output (Port,VC) of
	// Node.
	KVCFreed
	// KFlitBlocked: Msg holds output (Port,VC) of Node but cannot send
	// for want of downstream credits (recorded once per blocking
	// episode, not per cycle).
	KFlitBlocked
	// KCreditSent: one credit returned upstream to output (Port,VC) of
	// Node; it arrives in the same cycle (Arg = 0).
	KCreditSent
	// KFlitDelivered: the tail flit of Msg was ejected at Node
	// (Arg = total latency in cycles).
	KFlitDelivered
	// KFlitDropped: Msg was absorbed as unroutable at Node.
	KFlitDropped
	// KMsgKilled: fault surgery removed Msg (it touched a failed
	// component) at Node.
	KMsgKilled
	// KFaultRaised: Node became faulty (Arg = 0) or the link through
	// Port of Node failed (Arg = 1).
	KFaultRaised
	// KFaultPropagated: the diagnosis phase ran at cycle Cycle
	// (Arg = number of messages killed by the surgery).
	KFaultPropagated
	// KRuleFired: the rule interpreter fired rule Arg of base Port
	// (an index into the program's base list) for a decision at Node.
	KRuleFired
	// KDispatch: the event manager dequeued an internal event
	// (Arg = remaining queue length).
	KDispatch
	// KDeadlock: the watchdog or wait-for-graph analysis declared a
	// deadlock at Cycle (Arg = number of messages in the certified
	// cycle, 0 when only the watchdog fired).
	KDeadlock
	// KLivelock: Msg exceeded the configured age bound at Node
	// (Arg = age in cycles).
	KLivelock
	// KReconfigSwap: the network's decision engine was hot-swapped at
	// Cycle (Arg = the new table epoch).
	KReconfigSwap
	// KEpochRetired: the last worm pinned to an old table epoch left
	// the network and the epoch's engine was retired (Arg = the
	// retired epoch).
	KEpochRetired

	kindCount
)

var kindNames = [kindCount]string{
	"flit-injected", "route-computed", "unroutable", "vc-allocated",
	"vc-freed", "flit-blocked", "credit-sent", "flit-delivered",
	"flit-dropped", "msg-killed", "fault-raised", "fault-propagated",
	"rule-fired", "dispatch", "deadlock", "livelock",
	"reconfig-swap", "epoch-retired",
}

// String returns the stable lower-case name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one compact flight-recorder record (32 bytes). Field
// meanings are kind-specific; see the Kind constants. Msg is -1 when
// no message is involved, Port/VC are -1 when not applicable.
type Event struct {
	Cycle int64 `json:"cycle"`
	Msg   int64 `json:"msg"`
	Node  int32 `json:"node"`
	Arg   int32 `json:"arg"`
	Port  int16 `json:"port"`
	VC    int16 `json:"vc"`
	Kind  Kind  `json:"-"`
}

// eventJSON is the wire form of an Event: the kind travels by name so
// traces stay readable and stable across kind renumbering.
type eventJSON struct {
	Cycle int64  `json:"cycle"`
	Kind  string `json:"kind"`
	Node  int32  `json:"node"`
	Msg   int64  `json:"msg"`
	Port  int16  `json:"port"`
	VC    int16  `json:"vc"`
	Arg   int32  `json:"arg"`
}

// MarshalJSON encodes the event with its kind name.
func (ev Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(eventJSON{
		Cycle: ev.Cycle, Kind: ev.Kind.String(), Node: ev.Node,
		Msg: ev.Msg, Port: ev.Port, VC: ev.VC, Arg: ev.Arg,
	})
}

// UnmarshalJSON restores an event, resolving the kind by name.
func (ev *Event) UnmarshalJSON(data []byte) error {
	var j eventJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*ev = Event{Cycle: j.Cycle, Node: j.Node, Msg: j.Msg, Port: j.Port, VC: j.VC, Arg: j.Arg}
	for k := Kind(0); k < kindCount; k++ {
		if k.String() == j.Kind {
			ev.Kind = k
			return nil
		}
	}
	return fmt.Errorf("trace: unknown event kind %q", j.Kind)
}

// Recorder is the flight recorder: one fixed-size ring per node plus
// an optional streaming sink. The zero Recorder is not usable; build
// one with New. Methods are not safe for concurrent use — attach one
// recorder per simulation.
type Recorder struct {
	rings []ring
	sink  Sink
	// clock supplies the current simulation cycle to recording hooks
	// that live outside the network (the rule interpreter); the
	// network registers itself here on attach.
	clock func() int64
	// sinkErr remembers the first sink failure; recording continues
	// into the rings so a post-mortem stays possible.
	sinkErr error
	dropped int64
}

// DefaultPerNodeEvents is the ring capacity used when New is called
// with perNode <= 0.
const DefaultPerNodeEvents = 1024

// New builds a recorder for a network of `nodes` nodes keeping the
// most recent `perNode` events per node (DefaultPerNodeEvents when
// <= 0). Events recorded with an out-of-range node (machine-level
// events of detached interpreters use node -1) go to ring 0.
func New(nodes, perNode int) *Recorder {
	if nodes < 1 {
		nodes = 1
	}
	if perNode <= 0 {
		perNode = DefaultPerNodeEvents
	}
	r := &Recorder{rings: make([]ring, nodes)}
	for i := range r.rings {
		r.rings[i].init(perNode)
	}
	return r
}

// SetSink attaches a streaming sink; every subsequent event is
// forwarded to it in addition to the ring. Pass nil to detach.
func (r *Recorder) SetSink(s Sink) { r.sink = s }

// SetClock registers the simulation clock (the network does this on
// attach); hooks outside the pipeline stamp their events with Now.
func (r *Recorder) SetClock(clock func() int64) { r.clock = clock }

// Now returns the current simulation cycle (0 before a clock is
// registered).
func (r *Recorder) Now() int64 {
	if r.clock == nil {
		return 0
	}
	return r.clock()
}

// Record appends one event. This is the hot path: a ring store plus
// an optional sink write.
func (r *Recorder) Record(ev Event) {
	n := int(ev.Node)
	if n < 0 || n >= len(r.rings) {
		n = 0
	}
	if r.rings[n].push(ev) {
		r.dropped++
	}
	if r.sink != nil && r.sinkErr == nil {
		if err := r.sink.Emit(ev); err != nil {
			r.sinkErr = err
		}
	}
}

// Dropped returns the number of events overwritten in the rings since
// the recorder was built (the streaming sink, when attached, still
// saw them).
func (r *Recorder) Dropped() int64 { return r.dropped }

// NodeEvents returns the retained events of one node, oldest first.
func (r *Recorder) NodeEvents(node int) []Event {
	if node < 0 || node >= len(r.rings) {
		return nil
	}
	return r.rings[node].slice()
}

// Events returns all retained events merged across nodes in
// cycle order (stable within a cycle by node).
func (r *Recorder) Events() []Event {
	var out []Event
	for i := range r.rings {
		out = append(out, r.rings[i].slice()...)
	}
	// Stable merge by cycle; per-node slices are already ordered.
	stableSortByCycle(out)
	return out
}

// EventsSince returns the merged events with Cycle >= since.
func (r *Recorder) EventsSince(since int64) []Event {
	all := r.Events()
	for i, ev := range all {
		if ev.Cycle >= since {
			return all[i:]
		}
	}
	return nil
}

// Close flushes and closes the attached sink (no-op without one). It
// returns the first sink error encountered during the run, if any.
func (r *Recorder) Close() error {
	if r.sink == nil {
		return r.sinkErr
	}
	err := r.sink.Close()
	if r.sinkErr != nil {
		return r.sinkErr
	}
	return err
}

// stableSortByCycle is an insertion-free merge sort specialisation:
// the input is a concatenation of already-sorted runs, so a simple
// stable sort keyed on Cycle suffices and keeps per-node order.
func stableSortByCycle(evs []Event) {
	// Small inputs dominate (post-mortem windows); use a stable
	// bottom-up merge via sort.SliceStable semantics without pulling
	// package sort into the hot path — this runs only on extraction.
	mergeSortByCycle(evs, make([]Event, len(evs)))
}

func mergeSortByCycle(evs, tmp []Event) {
	if len(evs) < 2 {
		return
	}
	mid := len(evs) / 2
	mergeSortByCycle(evs[:mid], tmp[:mid])
	mergeSortByCycle(evs[mid:], tmp[mid:])
	copy(tmp, evs)
	i, j := 0, mid
	for k := range evs {
		switch {
		case i >= mid:
			evs[k] = tmp[j]
			j++
		case j >= len(tmp):
			evs[k] = tmp[i]
			i++
		case tmp[j].Cycle < tmp[i].Cycle:
			evs[k] = tmp[j]
			j++
		default:
			evs[k] = tmp[i]
			i++
		}
	}
}
