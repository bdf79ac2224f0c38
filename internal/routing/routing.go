// Package routing defines the routing-algorithm interface of the
// reproduced router and implements the algorithms discussed in the
// paper:
//
//   - XY dimension-order routing (mesh) and e-cube routing (hypercube),
//     the oblivious baselines the flexible router must be competitive
//     with (Section 1);
//   - spanning-tree routing, the strawman fault-tolerant algorithm of
//     Section 2.1;
//   - NARA, the non-fault-tolerant fully adaptive minimal mesh
//     algorithm underlying NAFTA;
//   - NAFTA (Cunningham/Avresky), fault-tolerant adaptive routing for
//     2-D meshes with convex fault-block completion and dead-end
//     states;
//   - ROUTE_C (Chiu/Wu), fault-tolerant routing for hypercubes with
//     safe/unsafe node states and five virtual channels, plus its
//     stripped-down non-fault-tolerant variant.
//
// Every algorithm separates the two sets of the paper's common
// structure: fault knowledge restricts the usable outputs (set 1), the
// topological/deadlock rules produce the admissible outputs toward the
// destination (set 2), and the selection policy picks one element of
// the intersection according to an adaptivity criterion.
package routing

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/topology"
)

// InjectionPort is the InPort value of a request for a message that is
// being injected at its source node.
const InjectionPort = -1

// Deadlock-regime tags. Two routing engines may be hot-swapped while
// worms of the old engine are still in flight only when they share a
// deadlock-avoidance regime — the same virtual-channel discipline, so
// that messages routed under either table set cannot close a wait
// cycle together. The tags are opaque strings compared for equality by
// the reconfiguration safety gate; an algorithm that does not declare
// one is only swappable against an identically named engine.
const (
	// RegimeNAFTA: two virtual networks (north-last / south-last) on a
	// 2-D mesh, the NAFTA/NARA discipline.
	RegimeNAFTA = "mesh-vnet/2vc"
	// RegimeRouteC: ascending/descending phases plus bounded detour
	// levels on five VCs, the ROUTE_C hypercube discipline.
	RegimeRouteC = "cube-phase/5vc"
	// RegimeMaze: adaptive maze moves on VC0 with an always-offered
	// up*/down* escape channel on VC1 (Duato-style), the Maze-routing
	// discipline (mesh, torus and irregular graphs).
	RegimeMaze = "maze-escape/2vc"
)

// RegimeOf returns an algorithm's deadlock-regime tag, falling back to
// name + VC count for algorithms that do not declare one (which makes
// them hot-swappable only against the same algorithm).
func RegimeOf(a Algorithm) string {
	if r := a.DeadlockRegime(); r != "" {
		return r
	}
	return fmt.Sprintf("%s/%dvc", a.Name(), a.NumVCs())
}

// Header carries the routing-relevant state of a message. The paper's
// Section 3 (lifelock avoidance) requires that routers can modify
// headers of messages detoured by faults; the fault-tolerance fields
// below are exactly that mutable state.
type Header struct {
	Src, Dst topology.NodeID
	Length   int // message length in flits, including head and tail

	// Misroutes counts non-minimal hops taken so far (the "path
	// length counter" of Section 3).
	Misroutes int
	// Marked flags a message that was diverted by a fault and is
	// treated exceptionally (NAFTA's test_exception rule base).
	Marked bool
	// Phase is ROUTE_C's routing phase: 0 while ascending (links with
	// increasing addresses), 1 while descending.
	Phase int
	// DetourLevel is ROUTE_C's hops-so-far escape level; it selects
	// among the extra virtual channels and is bounded, ensuring
	// livelock freedom.
	DetourLevel int
	// VNet is NAFTA's virtual network: 0 = north-last (for south-bound
	// messages), 1 = south-last (for north-bound messages).
	VNet int
	// NegHops counts colour-descending hops for the negative-hop
	// scheme; it is the message's virtual-channel level there.
	NegHops int
	// Dateline flags that the message crossed the current ring's
	// wrap-around link (torus dateline VC discipline).
	Dateline int
	// MazeMode is the Maze-routing per-message mode: 0 normal
	// (productive moves), 1 traversal (face-routing wall-follow around
	// a blocking fault region), 2 escape (sticky up*/down* channel).
	MazeMode int
	// MazeStart and MazeStartPort are the face-routing traversal
	// state: entry node and the wall port taken there (the
	// disconnection heuristic fires when the message is back at
	// MazeStart about to repeat MazeStartPort). The traversal exits
	// back to normal mode only from a node strictly closer to the
	// destination than MazeStart.
	MazeStart     NodeIDField
	MazeStartPort int
	// MazeSteps counts wall-follow hops of the current traversal; a
	// budget of ~4*nodes bounds it regardless of fault geometry.
	MazeSteps int
	// MazeEpoch stamps the fault epoch the traversal/escape state was
	// computed under; a mismatch after a mid-run fault event restarts
	// the state machine instead of trusting stale wall geometry.
	MazeEpoch uint32
	// Epoch is the rule-table epoch that admitted the message into the
	// network (0 when no epoch source is attached). Under online
	// reconfiguration an in-flight worm keeps routing on the tables of
	// its admission epoch; the field never influences the decision
	// itself, only which engine generation makes it.
	Epoch uint64
}

// NodeIDField aliases topology.NodeID for header fields (keeps the
// Header declaration readable).
type NodeIDField = topology.NodeID

// Request is the input of one routing decision.
type Request struct {
	// Node is the router making the decision.
	Node topology.NodeID
	// InPort is the arrival port, or InjectionPort at the source.
	InPort int
	// InVC is the arrival virtual channel (0 at injection).
	InVC int
	// Hdr is the message header; RouteAppend must not modify it (each
	// candidate carries its Hop, which ApplyHop commits once the hop is
	// granted).
	Hdr *Header
}

// Candidate is one admissible output: physical port plus virtual
// channel, and the header update of the hop through it.
type Candidate struct {
	Port int
	VC   int
	Hop  Hop `json:"-"` // router-internal: never in a decision service's answer
}

// Hop is the header update of one hop (the paper's Section 3: routers
// modify the headers of detoured messages), decided by the routing
// decision that offers the hop: Ops says which fields change and holds
// their small new values, Stamp is the maze fault epoch that
// SetMazeMode writes (one per decision: every candidate of a decision
// carries the same). ApplyHop is the one place that applies it.
type Hop struct {
	Ops   HopOps
	Stamp uint32
}

// HopOps is a hop's field writes in 16 bits: the flags below, and the
// flag and value bits of SetPhase, SetLevel, SetDateline and
// SetMazeMode.
type HopOps uint16

const (
	HopMisroute  HopOps = 1 << iota // a non-minimal hop: Misroutes++, Marked
	HopLatchVNet                    // injection: VNet = the candidate's VC
	HopNegHop                       // a colour-descending hop: NegHops++
	HopMazeEntry                    // MazeStart, MazeStartPort, MazeSteps = node, port, 1
	HopMazeStep                     // a wall-follow hop: MazeSteps++
	hopSetPhase
	hopPhase1
	hopSetLevel
	hopLevel // 2 bits
	_
	hopSetDateline
	hopDateline1
	hopMaze // MazeMode = the mode bits, MazeEpoch = Stamp
	hopMode // 2 bits
)

// SetPhase writes Phase = p (0 or 1).
func SetPhase(p int) HopOps { return hopSetPhase | HopOps(p&1)*hopPhase1 }

// SetLevel writes DetourLevel = l (0 to 3).
func SetLevel(l int) HopOps { return hopSetLevel | HopOps(l&3)*hopLevel }

// SetDateline writes Dateline = d (0 or 1).
func SetDateline(d int) HopOps { return hopSetDateline | HopOps(d&1)*hopDateline1 }

// SetMazeMode writes MazeMode = mode (0 to 2) and stamps MazeEpoch
// with the hop's Stamp.
func SetMazeMode(mode int) HopOps { return hopMaze | HopOps(mode&3)*hopMode }

// ApplyHop commits the hop through c, granted at node, to the header h:
// the network calls it once per hop, when VA grants the candidate.
func ApplyHop(h *Header, node topology.NodeID, c Candidate) {
	ops := c.Hop.Ops
	if ops&HopMisroute != 0 {
		h.Misroutes++
		h.Marked = true
	}
	if ops&HopLatchVNet != 0 {
		h.VNet = c.VC
	}
	if ops&HopNegHop != 0 {
		h.NegHops++
	}
	if ops&hopSetPhase != 0 {
		h.Phase = int(ops/hopPhase1) & 1
	}
	if ops&hopSetLevel != 0 {
		h.DetourLevel = int(ops/hopLevel) & 3
	}
	if ops&hopSetDateline != 0 {
		h.Dateline = int(ops/hopDateline1) & 1
	}
	if ops&hopMaze != 0 {
		h.MazeMode = int(ops/hopMode) & 3
		h.MazeEpoch = c.Hop.Stamp
	}
	if ops&HopMazeEntry != 0 {
		h.MazeStart, h.MazeStartPort, h.MazeSteps = node, c.Port, 1
	}
	if ops&HopMazeStep != 0 {
		h.MazeSteps++
	}
}

// Algorithm is a routing algorithm instance bound to one topology. An
// instance holds the distributed fault state of all routers (the
// simulator is cycle-driven and the paper's assumption iv lets the
// diagnosis phase complete atomically, so central storage of the
// per-node states is behaviourally equivalent; the states themselves
// are still computed by neighbour-local propagation rules).
//
// Every method is part of the contract. Most algorithms answer the last
// six neutrally; those answers are written once, in Defaults, which the
// native algorithms embed. A wrapper embeds the Algorithm it wraps and
// overrides what it changes (the rule adapters embed their native
// instance), or implements every method itself (reconfig.Swapper), so a
// forgotten forward is a compile error rather than a silent change of
// deadlock behaviour.
type Algorithm interface {
	// Name returns a short identifier, e.g. "nafta".
	Name() string
	// NumVCs returns the number of virtual channels per physical link
	// the algorithm requires.
	NumVCs() int
	// RouteAppend appends the admissible outputs for the request to buf
	// (typically a per-virtual-channel buffer reset to buf[:0] by the
	// caller) and returns the extended slice; the candidates must not
	// alias algorithm-internal storage. Appending nothing means the
	// message is unroutable at this node under the current fault state
	// (the simulator drops and records it); a fault-tolerant algorithm
	// must append at least one candidate whenever the paper's condition
	// 3 holds. Each candidate carries the Hop its hop commits, decided
	// from the same state that admitted its port and VC.
	RouteAppend(req Request, buf []Candidate) []Candidate
	// Steps returns the number of rule-interpreter invocations this
	// decision costs on the rule-based router (paper Section 5: NARA
	// 1, NAFTA 1 fault-free to 3 worst case, ROUTE_C always 2).
	Steps(req Request) int
	// UpdateFaults recomputes the distributed fault state to its
	// fixpoint after the fault set changed (assumption iv: no traffic
	// during the diagnosis phase).
	UpdateFaults(f *fault.Set)

	// DeadlockRegime declares the deadlock-avoidance regime for the
	// hot-swap safety gate; "" declares none (RegimeOf then falls back
	// to name + VC count).
	DeadlockRegime() string
	// AllocNeedsCredit reports whether the deadlock-freedom argument
	// requires credit-gated virtual-channel allocation: the network
	// must not commit a head to an output VC that has no downstream
	// credit. A head that cannot advance then stays in the VA stage,
	// re-arbitrating every cycle with the full candidate set — in
	// particular the escape channel — still selectable. This is the
	// blocked-head side of Duato's protocol (the maze family's VC0
	// moves are fully adaptive, so commit-on-free could close a VC0
	// wait cycle that the always-offered escape VC would have broken).
	// Families with acyclic channel-dependency graphs don't need the
	// gate and keep the cheaper commit-on-free allocation.
	AllocNeedsCredit() bool
	// FlushOnFault reports whether the message described by h holds
	// resources whose ordering the pending fault event invalidates. It
	// is consulted before UpdateFaults advances the epoch, for
	// algorithms whose UpdateFaults reorients a channel ordering that
	// in-flight messages may already occupy — e.g. the maze escape
	// plane's per-component up*/down* orientation, which is re-rooted
	// and re-levelled per fault event. A worm holding escape buffers
	// acquired under the old orientation can close a wait cycle with
	// worms routing under the new one (the union of two acyclic
	// orientations need not be acyclic), so the network's fault
	// surgery removes flagged worms at the event, exactly like worms
	// physically touching the failed element: the fault model's
	// recovery protocol (assumption iv) reinjects them.
	FlushOnFault(h *Header) bool
	// UnreachableVerdict, asked after RouteAppend appended nothing,
	// reports whether the destination is genuinely unreachable from the
	// deciding node on the post-fault graph — the drop is a
	// delivery-oracle-sanctioned verdict, not a sacrifice. The network
	// flags such drops on the message and in Stats.Unreachable.
	UnreachableVerdict(req Request) bool
	// Blocks returns the fault-block view of algorithms that deactivate
	// healthy nodes (NAFTA's convex completion), nil otherwise. The
	// traffic generator neither sources nor sinks traffic at a node the
	// view disables (assumption iii).
	Blocks() *fault.BlockInfo
	// AttachLoads hands the algorithm the network's load view, for
	// algorithms whose decision reads buffer exploitation (the
	// rule-based NAFTA's adaptivity input). The network calls it on
	// every algorithm it is built or reconfigured with.
	AttachLoads(v LoadView)
}

// Defaults holds the neutral answers of the optional part of the
// Algorithm contract: no declared regime, commit-on-free allocation, no
// reconfiguration flush, no unreachable verdict (every empty route is a
// plain drop), no block view and no use for the load view. Algorithms
// embed it and override what they have.
type Defaults struct{}

func (Defaults) DeadlockRegime() string          { return "" }
func (Defaults) AllocNeedsCredit() bool          { return false }
func (Defaults) FlushOnFault(*Header) bool       { return false }
func (Defaults) UnreachableVerdict(Request) bool { return false }
func (Defaults) Blocks() *fault.BlockInfo        { return nil }
func (Defaults) AttachLoads(LoadView)            {}

// RouteInto is a.RouteAppend(req, buf); the benchmark harness calls it.
func RouteInto(a Algorithm, req Request, buf []Candidate) []Candidate {
	return a.RouteAppend(req, buf)
}

// LoadView exposes the local load information a selection policy may
// consult (buffer exploitation, as produced by the paper's Information
// Units).
type LoadView interface {
	// Credits returns the free flit slots in the downstream buffer of
	// output (port,vc).
	Credits(node topology.NodeID, port, vc int) int
	// QueuedFlits returns the amount of data (flits) still to be
	// transmitted by the message currently owning output (port,vc); 0
	// if free. This is NAFTA's adaptivity criterion ("the amount of
	// data that still has to pass a node").
	QueuedFlits(node topology.NodeID, port, vc int) int
}

// Selector picks one candidate among the admissible ones. The
// simulator only offers candidates whose output VC is free.
type Selector interface {
	Name() string
	Select(view LoadView, node topology.NodeID, cands []Candidate, hdr *Header) Candidate
}

// ---------------------------------------------------------------------
// Selection policies (adaptivity criteria).

// FirstFit always picks the first candidate; with the deterministic
// candidate order of the algorithms this yields an oblivious tie-break
// and serves as the adaptivity-off ablation.
type FirstFit struct{}

func (FirstFit) Name() string { return "firstfit" }

func (FirstFit) Select(_ LoadView, _ topology.NodeID, cands []Candidate, _ *Header) Candidate {
	return cands[0]
}

// MaxCredit picks the candidate with the most downstream credits
// (least full buffer), a local load measure.
type MaxCredit struct{}

func (MaxCredit) Name() string { return "maxcredit" }

func (MaxCredit) Select(v LoadView, node topology.NodeID, cands []Candidate, _ *Header) Candidate {
	best := cands[0]
	bestC := v.Credits(node, best.Port, best.VC)
	for _, c := range cands[1:] {
		if cr := v.Credits(node, c.Port, c.VC); cr > bestC {
			best, bestC = c, cr
		}
	}
	return best
}

// MinQueue implements NAFTA's adaptivity criterion: prefer the output
// whose physical port has the least data still to pass (summed over
// its VCs), using credits as tie-break.
type MinQueue struct{}

func (MinQueue) Name() string { return "minqueue" }

func (MinQueue) Select(v LoadView, node topology.NodeID, cands []Candidate, _ *Header) Candidate {
	best := cands[0]
	bestQ := v.QueuedFlits(node, best.Port, best.VC)
	bestC := v.Credits(node, best.Port, best.VC)
	for _, c := range cands[1:] {
		q := v.QueuedFlits(node, c.Port, c.VC)
		cr := v.Credits(node, c.Port, c.VC)
		if q < bestQ || (q == bestQ && cr > bestC) {
			best, bestQ, bestC = c, q, cr
		}
	}
	return best
}

// RoundRobin cycles through candidates per node, giving a fair,
// load-oblivious spread (ablation policy).
type RoundRobin struct {
	counters map[topology.NodeID]int
}

// NewRoundRobin returns a RoundRobin selector.
func NewRoundRobin() *RoundRobin {
	return &RoundRobin{counters: make(map[topology.NodeID]int)}
}

func (r *RoundRobin) Name() string { return "roundrobin" }

func (r *RoundRobin) Select(_ LoadView, node topology.NodeID, cands []Candidate, _ *Header) Candidate {
	i := r.counters[node] % len(cands)
	r.counters[node]++
	return cands[i]
}
