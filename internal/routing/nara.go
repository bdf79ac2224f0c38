package routing

import (
	"math/bits"

	"repro/internal/fault"
	"repro/internal/topology"
)

// Virtual-network identifiers for the turn-model scheme shared by NARA
// and NAFTA. Each virtual network occupies one virtual channel per
// physical link; messages never change networks in flight, so the two
// channel dependency graphs stay disjoint and each is acyclic by the
// turn model (Glass/Ni): the north-last network prohibits turns out of
// north, the south-last network turns out of south.
const (
	// VNNorthLast carries south-bound messages (they never need to
	// leave a northward move, so prohibiting turns out of north does
	// not restrict their minimal adaptivity).
	VNNorthLast = 0
	// VNSouthLast carries north-bound messages.
	VNSouthLast = 1
)

// vnetFor picks the virtual network for a message at injection: a
// message that must travel north gets the south-last network (N, E, W
// freely mixable there), a south-bound one the north-last network.
// Row-only messages (dy == cy) normally use south-last (fault detours
// then go north, which that network allows freely); on the top row,
// where no northern detour exists, they use north-last so a southern
// detour remains legal.
func vnetFor(m *topology.Mesh, cur, dst topology.NodeID) int {
	_, cy := m.XY(cur)
	_, dy := m.XY(dst)
	switch {
	case dy < cy:
		return VNNorthLast
	case dy > cy:
		return VNSouthLast
	case cy == m.H-1:
		return VNNorthLast
	}
	return VNSouthLast
}

// NARA is the non-fault-tolerant fully adaptive minimal routing
// algorithm for 2-D meshes from which NAFTA is derived (the paper uses
// the pair to isolate the cost of fault tolerance). It offers every
// minimal path for selection (condition 1) using two virtual channels
// and one rule interpretation per message.
type NARA struct {
	Defaults
	mesh   *topology.Mesh
	faults *fault.Set
}

// NewNARA builds NARA on mesh m.
func NewNARA(m *topology.Mesh) *NARA {
	return &NARA{mesh: m, faults: fault.NewSet()}
}

func (n *NARA) Name() string      { return "nara" }
func (n *NARA) NumVCs() int       { return 2 }
func (n *NARA) Steps(Request) int { return 1 }

// UpdateFaults stores the set; NARA itself does not react to faults
// (messages whose minimal ports are all broken become unroutable).
func (n *NARA) UpdateFaults(f *fault.Set) { n.faults = f }

func (n *NARA) RouteAppend(req Request, out []Candidate) []Candidate {
	vnet, hop := req.Hdr.VNet, latchVNet(req)
	if req.InPort == InjectionPort {
		vnet = vnetFor(n.mesh, req.Node, req.Hdr.Dst)
	}
	// Same horizontal-first candidate order as NAFTA: the paper
	// requires the stripped algorithm to behave exactly like the
	// fault-tolerant one in a fault-free network.
	cx, cy := n.mesh.XY(req.Node)
	dx, dy := n.mesh.XY(req.Hdr.Dst)
	var ports uint8
	for m := naftaQuads[3*sign(dy-cy)+sign(dx-cx)+4].minimal; m != 0; m &= m - 1 {
		if p := bits.TrailingZeros8(m); n.faults.PortUsable(n.mesh, req.Node, p) {
			ports |= 1 << uint(p)
		}
	}
	const horiz = 1<<topology.East | 1<<topology.West
	return appendPorts(appendPorts(out, ports&horiz, vnet, hop), ports&^horiz, vnet, hop)
}
