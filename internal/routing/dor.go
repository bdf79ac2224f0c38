package routing

import (
	"repro/internal/fault"
	"repro/internal/topology"
)

// XY is oblivious dimension-order routing on a 2-D mesh (or torus
// without wrap-around use): correct X first, then Y. It is
// deadlock-free with a single virtual channel on the mesh and serves
// as the fixed-behaviour baseline of Section 1 ("once installed, the
// behaviour of these networks, especially the routing scheme, is
// fixed"). It is not fault tolerant: a fault on the unique path makes
// the message unroutable.
type XY struct {
	Defaults
	mesh   *topology.Mesh
	faults *fault.Set
}

// NewXY builds XY routing for mesh m.
func NewXY(m *topology.Mesh) *XY {
	return &XY{mesh: m, faults: fault.NewSet()}
}

func (x *XY) Name() string      { return "xy" }
func (x *XY) NumVCs() int       { return 1 }
func (x *XY) Steps(Request) int { return 1 }

// UpdateFaults stores the fault set; XY does not adapt, it only drops
// messages whose fixed path is broken.
func (x *XY) UpdateFaults(f *fault.Set) { x.faults = f }

func (x *XY) RouteAppend(req Request, buf []Candidate) []Candidate {
	cx, cy := x.mesh.XY(req.Node)
	dx, dy := x.mesh.XY(req.Hdr.Dst)
	var port int
	switch {
	case dx > cx:
		port = topology.East
	case dx < cx:
		port = topology.West
	case dy > cy:
		port = topology.North
	default:
		port = topology.South
	}
	if !x.faults.PortUsable(x.mesh, req.Node, port) {
		return buf // fixed path broken: unroutable
	}
	return append(buf, Candidate{Port: port, VC: 0})
}

// ECube is oblivious dimension-order routing on a hypercube: resolve
// the lowest differing dimension first. Deadlock-free with one virtual
// channel; not fault tolerant.
type ECube struct {
	Defaults
	cube   *topology.Hypercube
	faults *fault.Set
}

// NewECube builds e-cube routing for hypercube h.
func NewECube(h *topology.Hypercube) *ECube {
	return &ECube{cube: h, faults: fault.NewSet()}
}

func (e *ECube) Name() string              { return "ecube" }
func (e *ECube) NumVCs() int               { return 1 }
func (e *ECube) Steps(Request) int         { return 1 }
func (e *ECube) UpdateFaults(f *fault.Set) { e.faults = f }

func (e *ECube) RouteAppend(req Request, buf []Candidate) []Candidate {
	diff := uint(req.Node ^ req.Hdr.Dst)
	if diff == 0 {
		return buf
	}
	// Lowest differing dimension.
	p := 0
	for diff&1 == 0 {
		diff >>= 1
		p++
	}
	if !e.faults.PortUsable(e.cube, req.Node, p) {
		return buf
	}
	return append(buf, Candidate{Port: p, VC: 0})
}
