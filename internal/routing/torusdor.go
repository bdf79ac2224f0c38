package routing

import (
	"repro/internal/fault"
	"repro/internal/topology"
)

// TorusDOR is oblivious dimension-order routing on a 2-D torus with
// dateline virtual channels: each message resolves X before Y, always
// taking the shorter way around each ring, and switches from VC0 to
// VC1 when it crosses the ring's wrap-around link (the dateline). The
// dateline break makes each ring's channel dependency graph acyclic,
// and the strict X-then-Y order keeps the dimensions acyclic between
// each other. Like XY on the mesh it is not fault tolerant; it
// completes the torus topology as a baseline (the paper's reference
// list treats tori via [ChB95a, CyG94]).
type TorusDOR struct {
	Defaults
	torus  *topology.Torus
	faults *fault.Set
}

// NewTorusDOR builds dateline dimension-order routing on torus t.
func NewTorusDOR(t *topology.Torus) *TorusDOR {
	return &TorusDOR{torus: t, faults: fault.NewSet()}
}

func (t *TorusDOR) Name() string { return "torusdor" }

// NumVCs is two: the dateline pair shared by both dimensions (a
// message is only ever inside one ring at a time).
func (t *TorusDOR) NumVCs() int { return 2 }

func (t *TorusDOR) Steps(Request) int { return 1 }

func (t *TorusDOR) UpdateFaults(f *fault.Set) { t.faults = f }

// step returns the port and wrap flag for the next hop of the
// dimension-ordered path from cur to dst, or -1 when cur == dst.
func (t *TorusDOR) step(cur, dst topology.NodeID) (port int, wraps bool) {
	cx, cy := t.torus.XY(cur)
	dx, dy := t.torus.XY(dst)
	if cx != dx {
		diff := ((dx-cx)%t.torus.W + t.torus.W) % t.torus.W
		if diff <= t.torus.W/2 {
			return topology.East, cx == t.torus.W-1
		}
		return topology.West, cx == 0
	}
	if cy != dy {
		diff := ((dy-cy)%t.torus.H + t.torus.H) % t.torus.H
		if diff <= t.torus.H/2 {
			return topology.North, cy == t.torus.H-1
		}
		return topology.South, cy == 0
	}
	return -1, false
}

func (t *TorusDOR) RouteAppend(req Request, buf []Candidate) []Candidate {
	port, wraps := t.step(req.Node, req.Hdr.Dst)
	if port < 0 {
		return buf
	}
	if !t.faults.PortUsable(t.torus, req.Node, port) {
		return buf // oblivious: fixed path broken
	}
	vc := 0
	if req.Hdr.Dateline != 0 {
		vc = 1
	}
	// Crossing the wrap-around link sets the dateline state; entering
	// the second dimension resets it: the Y ring has its own dateline.
	var hop Hop
	cx, _ := t.torus.XY(req.Node)
	nx, _ := t.torus.XY(t.torus.Neighbor(req.Node, port))
	dx, _ := t.torus.XY(req.Hdr.Dst)
	switch {
	case cx != dx && nx == dx:
		hop.Ops = SetDateline(0)
	case wraps:
		hop.Ops = SetDateline(1)
	}
	return append(buf, Candidate{Port: port, VC: vc, Hop: hop})
}

var _ Algorithm = (*TorusDOR)(nil)
