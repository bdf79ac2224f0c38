package routing

import (
	"repro/internal/fault"
	"repro/internal/topology"
)

// UpDown is the classic table-based routing for irregular switched
// networks (Autonet-style up*/down*): links are oriented toward a root
// (by BFS level, node ID as tie-break), and every legal path consists
// of zero or more "up" hops followed by zero or more "down" hops —
// the orientation is acyclic in both phases, so a single virtual
// channel is deadlock-free.
//
// UpDown is the reproduction's stand-in for the table-based routers of
// the paper's introduction (the Spider chip): fault tolerance exists
// "only by means of reconfiguration" — UpdateFaults recomputes the
// orientation and the full reachability tables, and the Rebuilds
// counter exposes that global cost, in contrast to NAFTA's local state
// propagation (experiment E12).
type UpDown struct {
	Defaults
	g      topology.Graph
	faults *fault.Set
	level  []int
	// canDown[n][d]: d reachable from n using down links only.
	// canUD[n][d]: d reachable from n on an up*down* path.
	canDown [][]bool
	canUD   [][]bool
	// Rebuilds counts table recomputations (global reconfigurations).
	Rebuilds int
}

// NewUpDown builds up*/down* routing on g (initially fault free).
func NewUpDown(g topology.Graph) *UpDown {
	u := &UpDown{g: g, faults: fault.NewSet()}
	u.UpdateFaults(u.faults)
	u.Rebuilds = 0
	return u
}

func (u *UpDown) Name() string      { return "updown" }
func (u *UpDown) NumVCs() int       { return 1 }
func (u *UpDown) Steps(Request) int { return 1 }

// up reports whether the hop a->b ascends toward the root (lower
// level wins; node ID breaks ties, which keeps the orientation
// acyclic).
func (u *UpDown) up(a, b topology.NodeID) bool {
	if u.level[b] != u.level[a] {
		return u.level[b] < u.level[a]
	}
	return b < a
}

// UpdateFaults reorients the network and rebuilds the reachability
// tables — the global reconfiguration of a table-based router.
func (u *UpDown) UpdateFaults(f *fault.Set) {
	u.faults = f
	n := u.g.Nodes()
	// Root: the lowest operational node; levels via BFS on the
	// operational part.
	root := topology.Invalid
	for i := 0; i < n; i++ {
		if !f.NodeFaulty(topology.NodeID(i)) {
			root = topology.NodeID(i)
			break
		}
	}
	u.level = make([]int, n)
	if root != topology.Invalid {
		u.level = topology.BFSDist(u.g, root, f.Filter())
	}
	for i := range u.level {
		if u.level[i] < 0 {
			u.level[i] = n + i // disconnected: arbitrary distinct high level
		}
	}
	usable := func(a, b topology.NodeID) bool { return f.HopUsable(a, b) }

	// Reachability tables over the acyclic orientation, computed by
	// fixpoint iteration (converges within the diameter because the
	// orientation is acyclic).
	u.canDown = make([][]bool, n)
	u.canUD = make([][]bool, n)
	for i := 0; i < n; i++ {
		u.canDown[i] = make([]bool, n)
		u.canUD[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		if !f.NodeFaulty(topology.NodeID(i)) {
			u.canDown[i][i] = true
			u.canUD[i][i] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for a := 0; a < n; a++ {
			if f.NodeFaulty(topology.NodeID(a)) {
				continue
			}
			for p := 0; p < u.g.Ports(); p++ {
				b := u.g.Neighbor(topology.NodeID(a), p)
				if b == topology.Invalid || !usable(topology.NodeID(a), b) {
					continue
				}
				if !u.up(topology.NodeID(a), b) { // a -> b goes down
					for d := 0; d < n; d++ {
						if u.canDown[b][d] && !u.canDown[a][d] {
							u.canDown[a][d] = true
							changed = true
						}
					}
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for a := 0; a < n; a++ {
			if f.NodeFaulty(topology.NodeID(a)) {
				continue
			}
			for d := 0; d < n; d++ {
				if u.canDown[a][d] && !u.canUD[a][d] {
					u.canUD[a][d] = true
					changed = true
				}
			}
			for p := 0; p < u.g.Ports(); p++ {
				b := u.g.Neighbor(topology.NodeID(a), p)
				if b == topology.Invalid || !usable(topology.NodeID(a), b) {
					continue
				}
				if u.up(topology.NodeID(a), b) { // a -> b goes up
					for d := 0; d < n; d++ {
						if u.canUD[b][d] && !u.canUD[a][d] {
							u.canUD[a][d] = true
							changed = true
						}
					}
				}
			}
		}
	}
	u.Rebuilds++
}

func (u *UpDown) RouteAppend(req Request, out []Candidate) []Candidate {
	cur, dst := req.Node, req.Hdr.Dst
	for p := 0; p < u.g.Ports(); p++ {
		nb := u.g.Neighbor(cur, p)
		if nb == topology.Invalid || !u.faults.HopUsable(cur, nb) {
			continue
		}
		if u.up(cur, nb) {
			// Up hops are only legal while the message has not
			// descended, and only if an up*down* continuation exists.
			if req.Hdr.Phase == 0 && u.canUD[nb][dst] {
				out = append(out, Candidate{Port: p, VC: 0})
			}
		} else if u.canDown[nb][dst] {
			// Once descending, the message stays in the down phase.
			out = append(out, Candidate{Port: p, VC: 0, Hop: Hop{Ops: SetPhase(1)}})
		}
	}
	return out
}

var _ Algorithm = (*UpDown)(nil)
