package routing

import (
	"math/bits"

	"repro/internal/fault"
	"repro/internal/topology"
)

// NodeState is ROUTE_C's per-node safety state (Chiu/Wu 1996). The
// states form the finite lattice safe < ounsafe < sunsafe < faulty in
// which the propagation scheme computes monotone updates, which is why
// it "settles fast" (the paper: the way error states are combined
// forms a partial order).
type NodeState int

const (
	// StateSafe marks a fully usable node.
	StateSafe NodeState = iota
	// StateOUnsafe (ordinarily unsafe) marks a node with at least two
	// not-safe neighbours; routing avoids it when alternatives exist.
	StateOUnsafe
	// StateSUnsafe (strongly unsafe) marks a node with at least two
	// faulty neighbours or two faulty incident links; routing treats
	// it as a last resort.
	StateSUnsafe
	// StateFaulty marks a failed node.
	StateFaulty
)

// String returns the state mnemonic used in the paper's Figure 4.
func (s NodeState) String() string {
	switch s {
	case StateSafe:
		return "safe"
	case StateOUnsafe:
		return "ounsafe"
	case StateSUnsafe:
		return "sunsafe"
	case StateFaulty:
		return "faulty"
	}
	return "invalid"
}

// ROUTE_C virtual-channel layout. The paper: ROUTE_C "uses five virtual
// channels"; deadlock avoidance first uses all links with increasing
// addresses, then all links with decreasing addresses [Kon90], and
// "by applying the method from [BoC96] three additional virtual
// channels suffice" for the fault detours.
const (
	routecVCUp      = 0 // ascending phase
	routecVCDown    = 1 // descending phase
	routecVCDetour0 = 2 // first detour level; levels 1..3 map to VCs 2..4
	routecMaxDetour = 3
)

// RouteC is the fault-tolerant hypercube routing algorithm ROUTE_C.
// Every routing decision takes exactly two rule interpretations
// (decide_dir, then decide_vc), matching the paper's Section 5.
type RouteC struct {
	Defaults
	cube   *topology.Hypercube
	faults *fault.Set
	states []NodeState
	// PropagationRounds records how many neighbour-exchange waves the
	// last UpdateFaults needed to settle (the paper argues the partial
	// order makes this fast).
	PropagationRounds int
}

// NewRouteC builds ROUTE_C on hypercube h with no faults.
func NewRouteC(h *topology.Hypercube) *RouteC {
	r := &RouteC{cube: h}
	r.UpdateFaults(fault.NewSet())
	return r
}

func (r *RouteC) Name() string { return "routec" }

// NumVCs is five: up, down, and three detour channels.
func (r *RouteC) NumVCs() int { return 5 }

// DeadlockRegime tags the phase/detour-level VC discipline for the
// hot-swap safety gate.
func (r *RouteC) DeadlockRegime() string { return RegimeRouteC }

// Steps is always two: decide_dir followed by decide_vc.
func (r *RouteC) Steps(Request) int { return 2 }

// States exposes the per-node safety states (evaluation harness and
// the rule-base equivalence tests).
func (r *RouteC) States() []NodeState { return r.states }

// TotallyUnsafe reports whether no safe node remains, the easily
// detected global state under which condition 3 can no longer be
// guaranteed ("this will only occur if more than n-1 nodes are
// faulty").
func (r *RouteC) TotallyUnsafe() bool {
	for _, s := range r.states {
		if s == StateSafe {
			return false
		}
	}
	return true
}

// UpdateFaults recomputes the node states by the wave propagation of
// Figure 4, iterated to the fixpoint: a node with two directly faulty
// neighbours or faulty incident links becomes strongly unsafe, a node
// with three not-safe neighbours becomes ordinarily unsafe. Updates are
// monotone in the state lattice, so the loop terminates after at most
// Nodes() rounds.
func (r *RouteC) UpdateFaults(f *fault.Set) {
	r.faults = f
	n, ports := r.cube.Nodes(), r.cube.Ports()
	states := make([]NodeState, n)
	// What depends on f alone is counted once, from the fault lists, not
	// every round: each node's faulty neighbours plus faulty incident
	// links, and the ports that lead over a failed link (perceived state
	// lfault) or into a failed router — not safe whatever the states. A
	// cube link along dimension p is port p at both ends.
	direct := make([]int, n)
	hard := make([]uint64, n)
	for _, x := range f.FaultyNodes() {
		if x < 0 || int(x) >= n {
			continue
		}
		states[x] = StateFaulty
		for p := 0; p < ports; p++ {
			nb := r.cube.Neighbor(x, p)
			direct[nb]++
			hard[nb] |= 1 << p
		}
	}
	for _, l := range f.FaultyLinks() {
		d := uint64(l.A ^ l.B)
		if l.A < 0 || l.B < 0 || int(l.A) >= n || int(l.B) >= n || d == 0 || d&(d-1) != 0 {
			continue // not a cube link
		}
		p := bits.TrailingZeros64(d)
		direct[l.A]++
		direct[l.B]++
		hard[l.A] |= 1 << p
		hard[l.B] |= 1 << p
	}
	next := make([]NodeState, n)
	rounds := 0
	for {
		changed := false
		copy(next, states)
		for i := 0; i < n; i++ {
			if states[i] == StateFaulty {
				continue
			}
			id := topology.NodeID(i)
			notSafe := bits.OnesCount64(hard[i])
			for p := 0; p < ports; p++ {
				if hard[i]&(1<<p) != 0 {
					continue
				}
				if nb := r.cube.Neighbor(id, p); nb != topology.Invalid && states[nb] != StateSafe {
					notSafe++
				}
			}
			var s NodeState
			switch {
			case direct[i] >= 2:
				s = StateSUnsafe
			case notSafe >= 3:
				// The paper's Figure 4 fires the escalation when
				// number_unsafe already equals 2 and a third not-safe
				// notification arrives, i.e. at three not-safe
				// neighbours; a lower threshold lets the ounsafe
				// state percolate across the whole cube.
				s = StateOUnsafe
			default:
				s = StateSafe
			}
			// Monotone: states never improve during one diagnosis
			// phase.
			if s > next[i] {
				next[i] = s
				changed = true
			}
		}
		states, next = next, states
		rounds++
		if !changed {
			break
		}
	}
	r.states = states
	r.PropagationRounds = rounds
}

// usable keeps, among the ports of mask, those whose hop is physically
// possible and that do not lead straight back over the arrival port.
func (r *RouteC) usable(n topology.NodeID, mask uint, inPort int) uint {
	var out uint
	for m := mask; m != 0; m &= m - 1 {
		if p := bits.TrailingZeros(m); p != inPort && r.faults.PortUsable(r.cube, n, p) {
			out |= 1 << uint(p)
		}
	}
	return out
}

// preferSafe keeps, among the given ports, only those with the best
// (lowest) neighbour state; the destination always counts as best so
// the final hop is never filtered away.
func (r *RouteC) preferSafe(n topology.NodeID, ports uint, dst topology.NodeID) uint {
	var byState [StateFaulty + 1]uint
	for m := ports; m != 0; m &= m - 1 {
		p := bits.TrailingZeros(m)
		nb := r.cube.Neighbor(n, p)
		s := r.states[nb]
		if nb == dst {
			s = StateSafe
		}
		byState[s] |= 1 << uint(p)
	}
	for _, best := range byState {
		if best != 0 {
			return best
		}
	}
	return 0
}

// hop kinds produced by decideDir: a minimal hop on the current
// level, a level bump (minimal ascending hop that re-opens phase 0 on
// the next detour channel after a descending-entry level ran dry), or
// a genuine detour (non-minimal hop onto the next level).
const (
	kindMinimal = iota
	kindBump
	kindDetour
)

// decideDir is the first rule interpretation: compute the admissible
// output ports as a mask (set 2 from the up/down scheme intersected
// with set 1 from the fault states).
func (r *RouteC) decideDir(req Request) (ports uint, kind int) {
	cur, dst := req.Node, req.Hdr.Dst
	up, down := r.cube.UpMask(cur, dst), r.cube.DownMask(cur, dst)
	// Minimal ports, honouring the up-before-down order. The order is
	// kept inside detour levels as well (each level re-runs ascent
	// then descent), so channel dependencies within a level stay
	// address-monotone. A minimal port can only equal the arrival port
	// right after a detour; bouncing straight back would re-create the
	// decision that caused the detour (ping-pong livelock).
	minimal := down
	if up != 0 && req.Hdr.Phase == 0 {
		minimal = up
	}
	if m := r.usable(cur, minimal, req.InPort); m != 0 {
		return r.preferSafe(cur, m, dst), kindMinimal
	}
	// In phase 0 the down-ports may still be intact: fall through to
	// them before declaring a detour (phase change is minimal, not a
	// misroute).
	if req.Hdr.Phase == 0 {
		if m := r.usable(cur, down, req.InPort); m != 0 {
			return r.preferSafe(cur, m, dst), kindMinimal
		}
	}
	// Level bump: a descending-entry level cannot ascend (the channel
	// discipline forbids down->up edges within a level), but pending
	// ascending work can continue on the NEXT level's channel — a
	// minimal hop, no misroute, one level consumed. Cross-level edges
	// only ascend, so the dependency graph stays acyclic.
	if req.Hdr.Phase == 1 && req.Hdr.DetourLevel < routecMaxDetour {
		if m := r.usable(cur, up, req.InPort); m != 0 {
			return r.preferSafe(cur, m, dst), kindBump
		}
	}
	// Detour: any usable non-minimal port, if budget remains.
	if req.Hdr.DetourLevel >= routecMaxDetour {
		return 0, kindDetour
	}
	nonMinimal := (1<<uint(r.cube.Ports()) - 1) &^ (up | down)
	return r.preferSafe(cur, r.usable(cur, nonMinimal, req.InPort), dst), kindDetour
}

// decideVC is the second rule interpretation: attach the virtual
// channel mandated by phase and detour level, and the header update of
// the hop. Bumps and detours both claim the next level's channel
// (decideDir offers them only below routecMaxDetour).
func (r *RouteC) decideVC(req Request, ports uint, kind int, out []Candidate) []Candidate {
	up := r.cube.UpMask(req.Node, req.Hdr.Dst)
	for ; ports != 0; ports &= ports - 1 {
		p := bits.TrailingZeros(ports)
		ascends := uint(req.Node)>>uint(p)&1 == 0
		level := req.Hdr.DetourLevel
		if kind != kindMinimal {
			level++
		}
		vc := routecVCDetour0 + level - 1
		if level == 0 {
			vc = routecVCDown
			if ascends {
				vc = routecVCUp
			}
		}
		// The phase after the hop. A detour's direction class starts the
		// new level: an address-increasing entry ascends (ups then downs,
		// all address-monotone on that channel), a decreasing one locks
		// the level descending — a down-type entry followed by up-hops on
		// one level channel closes a wait cycle, which the network's
		// wait-for-graph analyser caught. A minimal descending hop rides
		// the down channel, so it ends the ascent too. A minimal ascending
		// hop (a bump re-opens phase 0 on the next level) keeps ascending
		// while ascending work is left at the next node.
		phase := 1
		if ascends && (kind == kindDetour || up&^(1<<uint(p)) != 0) {
			phase = 0
		}
		var ops HopOps
		if phase != req.Hdr.Phase {
			ops |= SetPhase(phase)
		}
		if level != req.Hdr.DetourLevel {
			ops |= SetLevel(level)
		}
		if kind == kindDetour {
			ops |= HopMisroute
		}
		out = append(out, Candidate{Port: p, VC: vc, Hop: Hop{Ops: ops}})
	}
	return out
}

func (r *RouteC) RouteAppend(req Request, buf []Candidate) []Candidate {
	ports, kind := r.decideDir(req)
	if ports == 0 {
		return buf
	}
	return r.decideVC(req, ports, kind, buf)
}

// RouteCNFT is the stripped-down, non-fault-tolerant variant of
// ROUTE_C used in the paper's overhead comparison: the same up/down
// minimal routing, but no node states, no detours, and only the two
// base virtual channels; it behaves exactly like ROUTE_C in a
// fault-free network and needs a single rule interpretation per
// message.
type RouteCNFT struct {
	Defaults
	cube   *topology.Hypercube
	faults *fault.Set
}

// NewRouteCNFT builds the stripped variant on hypercube h.
func NewRouteCNFT(h *topology.Hypercube) *RouteCNFT {
	return &RouteCNFT{cube: h, faults: fault.NewSet()}
}

func (r *RouteCNFT) Name() string              { return "routec-nft" }
func (r *RouteCNFT) NumVCs() int               { return 2 }
func (r *RouteCNFT) Steps(Request) int         { return 1 }
func (r *RouteCNFT) UpdateFaults(f *fault.Set) { r.faults = f }

func (r *RouteCNFT) RouteAppend(req Request, out []Candidate) []Candidate {
	cur, dst := req.Node, req.Hdr.Dst
	up := r.cube.UpMask(cur, dst)
	ports, vc := up, routecVCUp
	if up == 0 || req.Hdr.Phase == 1 {
		ports, vc = r.cube.DownMask(cur, dst), routecVCDown
	}
	for ; ports != 0; ports &= ports - 1 {
		if p := bits.TrailingZeros(ports); r.faults.PortUsable(r.cube, cur, p) {
			// The message descends once no ascending work is left after
			// the hop.
			var hop Hop
			if req.Hdr.Phase == 0 && up&^(1<<uint(p)) == 0 {
				hop.Ops = SetPhase(1)
			}
			out = append(out, Candidate{Port: p, VC: vc, Hop: hop})
		}
	}
	return out
}
