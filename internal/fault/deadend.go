package fault

import "repro/internal/topology"

// DeadEnds holds NAFTA's directional dead-end states for a mesh. The
// paper describes the state "dead-end-east" as "all columns to the east
// have at least one fault": a node in that state may be unable to
// forward a north- or south-bound message once it has committed east,
// so messages with a vertical component must not enter such a region.
// The states are derived from per-column/per-row fault occupancy and
// are propagated in a wave from the borders (here computed directly;
// the propagation variant lives in the routing package's incremental
// update).
type DeadEnds struct {
	mesh *topology.Mesh
	// ColFault[x] is true if column x contains at least one faulty or
	// disabled node or a faulty vertical link.
	ColFault []bool
	// RowFault[y] likewise for row y and horizontal links.
	RowFault []bool
	// DeadEast[x] is true if every column strictly east of x is
	// faulty; analogously for the other directions.
	DeadEast  []bool
	DeadWest  []bool
	DeadNorth []bool // indexed by row y
	DeadSouth []bool
}

// BuildDeadEnds computes the dead-end state tables for mesh m under
// fault set s with block completion b (pass nil to use raw faults
// only).
func BuildDeadEnds(m *topology.Mesh, s *Set, b *BlockInfo) *DeadEnds {
	d := &DeadEnds{
		mesh:      m,
		ColFault:  make([]bool, m.W),
		RowFault:  make([]bool, m.H),
		DeadEast:  make([]bool, m.W),
		DeadWest:  make([]bool, m.W),
		DeadNorth: make([]bool, m.H),
		DeadSouth: make([]bool, m.H),
	}
	mark := func(n topology.NodeID) {
		x, y := m.XY(n)
		d.ColFault[x], d.RowFault[y] = true, true
	}
	for n := range s.nodes {
		if inMesh(m, n) {
			mark(n)
		}
	}
	if b != nil {
		for n, dis := range b.Disabled {
			if dis {
				mark(topology.NodeID(n))
			}
		}
	}
	// Vertical link faults block the column, horizontal ones the row.
	s.eachMeshLink(m, func(a, _ topology.NodeID, p int) {
		x, y := m.XY(a)
		if p == topology.North || p == topology.South {
			d.ColFault[x] = true
		} else {
			d.RowFault[y] = true
		}
	})
	// Wave from the east border westwards: dead-end-east holds at
	// column x iff all columns x' > x are faulty.
	all := true
	for x := m.W - 1; x >= 0; x-- {
		d.DeadEast[x] = all && x < m.W-1
		all = all && d.ColFault[x]
	}
	all = true
	for x := 0; x < m.W; x++ {
		d.DeadWest[x] = all && x > 0
		all = all && d.ColFault[x]
	}
	all = true
	for y := m.H - 1; y >= 0; y-- {
		d.DeadNorth[y] = all && y < m.H-1
		all = all && d.RowFault[y]
	}
	all = true
	for y := 0; y < m.H; y++ {
		d.DeadSouth[y] = all && y > 0
		all = all && d.RowFault[y]
	}
	return d
}

// NodeDeadEnd reports the dead-end state of node n in mesh direction
// dir (topology.North etc.): entering further in that direction cannot
// escape sideways anymore.
func (d *DeadEnds) NodeDeadEnd(n topology.NodeID, dir int) bool {
	x, y := d.mesh.XY(n)
	switch dir {
	case topology.East:
		return d.DeadEast[x]
	case topology.West:
		return d.DeadWest[x]
	case topology.North:
		return d.DeadNorth[y]
	case topology.South:
		return d.DeadSouth[y]
	}
	return false
}
