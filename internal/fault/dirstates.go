package fault

import "repro/internal/topology"

// DirStates holds NAFTA's propagated directional blocking flags: for a
// node n, Blocked(d, t, n) is true when, starting at n and travelling
// in direction t along the straight line to the mesh border, the port
// d is blocked (by a fault, a disabled node or the border) at every
// node on the way. A north-bound message that finds north blocked
// locally may detour east only if some node east of it re-opens the
// north direction — exactly what !Blocked(north, east, n_east) states.
//
// The flags are one bit per (d,t) pair and node; they are computed by
// the same wave propagation as the paper's dead-end states (each node
// combines its local observation with the flag of its t-neighbour) and
// therefore respect NAFTA's constant-memory-per-node discipline. The
// paper's coarse dead-end state ("all columns to the east have at least
// one fault") is their aggregate over whole columns and rows.
type DirStates struct {
	// blocked[n] is node n's blocked-port nibble: bit p is set when the
	// hop through p is unusable (border, faulty link, faulty or
	// deactivated target). hard[n] counts only the border and real
	// faults, not the nodes the convex completion deactivated.
	blocked, hard []uint8
	// flags[n] packs the eight propagated flags of node n, by travel
	// direction t: bit t for the perpendicular direction that is north
	// or east, bit 4+t for the one that is south or west (flagBit).
	flags []uint8
	// runs[4*n+d] is the clear-run length of node n in direction d: the
	// number of consecutive usable hops before a fault, a disabled
	// node or the border interrupts the straight line. The value needs
	// only ceil(log2(max(W,H))) bits per direction and node and is
	// propagated from the neighbour like the flags (run(n) =
	// 1 + run(neighbour) if the first hop is clear).
	runs []int32
}

// flagBit is the position of Blocked(dir, travel, .) in a flags byte;
// dir must be perpendicular to travel.
func flagBit(dir, travel int) uint { return uint(travel + 4*(dir>>1)) }

// BuildDirStates computes the directional blocking flags for mesh m
// under fault set s with block completion b (nil to use raw faults).
// Each wave is one linear walk over the nodes: a node's travel-direction
// neighbour lies a fixed stride away and the border is part of the
// blocked nibble, so no coordinate is computed and no map is read.
func BuildDirStates(m *topology.Mesh, s *Set, b *BlockInfo) *DirStates {
	nodes := m.Nodes()
	d := &DirStates{flags: make([]uint8, nodes), runs: make([]int32, topology.MeshPorts*nodes)}
	if b != nil {
		d.blocked, d.hard = withBorder(m, b.obs), withBorder(m, b.raw)
	} else {
		d.blocked = withBorder(m, observed(m, s))
		d.hard = d.blocked
	}
	// Propagate against the travel direction: the state of n depends on
	// its travel-direction neighbour, so a wave starts at the border the
	// travel points to — descending node order for north and east,
	// ascending for south and west.
	for n := nodes - 1; n >= 0; n-- {
		d.wave(n, topology.North, m.W)
		d.wave(n, topology.East, 1)
	}
	for n := 0; n < nodes; n++ {
		d.wave(n, topology.South, -m.W)
		d.wave(n, topology.West, -1)
	}
	return d
}

// withBorder returns a copy of the per-node observation nibbles with
// the unconnected border ports blocked as well.
func withBorder(m *topology.Mesh, obs []uint8) []uint8 {
	out := append([]uint8(nil), obs...)
	top := (m.H - 1) * m.W
	for x := 0; x < m.W; x++ {
		out[x] |= 1 << topology.South
		out[top+x] |= 1 << topology.North
	}
	for n := 0; n < len(out); n += m.W {
		out[n] |= 1 << topology.West
		out[n+m.W-1] |= 1 << topology.East
	}
	return out
}

// wave sets node n's clear run in direction travel and its two flags
// for that travel direction from its local nibble and the state of its
// travel-direction neighbour, step nodes away.
func (d *DirStates) wave(n, travel, step int) {
	bl := d.blocked[n]
	// The two directions perpendicular to travel, moved to the flag
	// positions of this travel direction.
	pos := uint(topology.East - travel&1)
	f := (bl>>pos&1)<<uint(travel) | (bl>>(pos+2)&1)<<uint(4+travel)
	// If the travel direction itself is interrupted (border, fault,
	// disabled node) the wave ends here: nothing beyond the
	// interruption can re-open a direction for a message detouring
	// along this line.
	if bl>>uint(travel)&1 == 0 {
		d.runs[topology.MeshPorts*n+travel] = 1 + d.runs[topology.MeshPorts*(n+step)+travel]
		f &= d.flags[n+step]
	}
	d.flags[n] |= f
}

// PortBlocks returns node n's blocked-port nibbles: bit p of blocked is
// set when the hop through p is unusable (border, faulty link, faulty
// or deactivated target); hard leaves the deactivated targets out.
func (d *DirStates) PortBlocks(n topology.NodeID) (blocked, hard uint8) {
	return d.blocked[n], d.hard[n]
}

// Flags returns node n's propagated flags as two port nibbles indexed
// by travel direction: bit t of the low nibble is Blocked(north or east,
// t, n), bit t of the high nibble Blocked(south or west, t, n).
func (d *DirStates) Flags(n topology.NodeID) uint8 { return d.flags[n] }

// ClearRun returns the number of consecutive usable hops from n in
// direction dir before the straight line is interrupted by a fault,
// a disabled node or the mesh border.
func (d *DirStates) ClearRun(dir int, n topology.NodeID) int {
	return int(d.runs[topology.MeshPorts*int(n)+dir])
}

// Blocked reports whether direction dir stays blocked from n onwards
// when travelling in direction travel (which must be perpendicular to
// dir).
func (d *DirStates) Blocked(dir, travel int, n topology.NodeID) bool {
	if (dir^travel)&1 == 0 {
		return false // only perpendicular travel is meaningful
	}
	return d.flags[n]>>flagBit(dir, travel)&1 != 0
}
