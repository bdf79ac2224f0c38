package fault

import (
	"slices"

	"repro/internal/topology"
)

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
	// runs[2*n] and runs[2*n+1] are the clear-run lengths of node n to
	// the east and to the west (the ones NAFTA's entry guard reads): the
	// number of consecutive usable hops before a fault, a disabled node
	// or the border interrupts the straight line. The value needs only
	// ceil(log2(W)) bits per direction and node and is propagated from
	// the neighbour like the flags (run(n) = 1 + run(neighbour) if the
	// first hop is clear).
	runs []int32
}

// flagBit is the position of Blocked(dir, travel, .) in a flags byte;
// dir must be perpendicular to travel.
func flagBit(dir, travel int) uint { return uint(travel + 4*(dir>>1)) }

// Build computes the directional blocking flags for mesh m under fault
// set s with block completion b (nil to use raw faults), reusing d's
// buffers. Each wave is one linear walk over the nodes: a node's
// travel-direction neighbour lies a fixed stride away and the border is
// part of the blocked nibble, so no coordinate is computed and no map
// is read.
func (d *DirStates) Build(m *topology.Mesh, s *Set, b *BlockInfo) {
	nodes := m.Nodes()
	if b == nil {
		obs := observed(m, s)
		b = &BlockInfo{obs: obs, raw: obs}
	}
	d.blocked, d.hard = withBorder(d.blocked, m, b.obs), withBorder(d.hard, m, b.raw)
	d.flags = slices.Grow(d.flags[:0], nodes)[:nodes] // every element is written below
	d.runs = slices.Grow(d.runs[:0], 2*nodes)[:2*nodes]
	// Propagate against the travel direction: the state of n depends on
	// its travel-direction neighbour, so a wave starts at the border the
	// travel points to — descending node order for north and east,
	// ascending for south and west. Each walk runs two waves at once;
	// their flags are disjoint, and the east and west runs ride along.
	const (
		north, east, south, west = topology.North, topology.East, topology.South, topology.West
		// The two flags of each travel direction t: bits t and 4+t.
		northBits, eastBits uint8 = 1<<north | 1<<(4+north), 1<<east | 1<<(4+east)
		southBits, westBits uint8 = 1<<south | 1<<(4+south), 1<<west | 1<<(4+west)
	)
	blocked, flags, runs, w := d.blocked, d.flags, d.runs, m.W
	for n := nodes - 1; n >= 0; n-- {
		bl := blocked[n]
		f := sideFlags[bl] & (northBits | eastBits)
		// If the travel direction itself is interrupted (border, fault,
		// disabled node) the wave ends here: nothing beyond the
		// interruption can re-open a direction for a message detouring
		// along this line.
		if bl&(1<<north) == 0 {
			f &= flags[n+w] | ^northBits
		}
		runs[2*n] = 0
		if bl&(1<<east) == 0 {
			runs[2*n] = 1 + runs[2*(n+1)]
			f &= flags[n+1] | ^eastBits
		}
		flags[n] = f
	}
	for n := 0; n < nodes; n++ {
		bl := blocked[n]
		f := sideFlags[bl] & (southBits | westBits)
		if bl&(1<<south) == 0 {
			f &= flags[n-w] | ^southBits
		}
		runs[2*n+1] = 0
		if bl&(1<<west) == 0 {
			runs[2*n+1] = 1 + runs[2*(n-1)+1]
			f &= flags[n-1] | ^westBits
		}
		flags[n] |= f
	}
}

// sideFlags[bl] is the local part of a node's flags for blocked nibble
// bl: for every travel direction t, the bit of each perpendicular
// direction that is blocked at the node itself. A wave clears the bits
// the travel-direction neighbour's flags re-open.
var sideFlags = func() (tab [16]uint8) {
	for bl := range tab {
		for t := range topology.MeshPorts {
			// The two directions perpendicular to t.
			pos := uint(topology.East - t&1)
			tab[bl] |= uint8(bl>>pos&1)<<uint(t) | uint8(bl>>(pos+2)&1)<<uint(4+t)
		}
	}
	return tab
}()

// withBorder copies the per-node observation nibbles into into's array,
// with the unconnected border ports blocked as well.
func withBorder(into []uint8, m *topology.Mesh, obs []uint8) []uint8 {
	out := append(into[:0], obs...)
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
// direction dir, which must be east or west (no other run is kept),
// before the straight line is interrupted by a fault, a disabled node
// or the mesh border.
func (d *DirStates) ClearRun(dir int, n topology.NodeID) int {
	return int(d.runs[2*int(n)+dir>>1])
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
