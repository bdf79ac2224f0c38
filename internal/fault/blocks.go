package fault

import "repro/internal/topology"

// BlockInfo is the result of rectangular fault-block completion on a
// 2-D mesh. NAFTA-style algorithms deactivate some healthy nodes so
// that every fault region becomes convex (a rectangle); messages are
// then routed around rectangles, which needs only constant state per
// node. The cost is a violation of the paper's condition 3: deactivated
// healthy nodes can no longer source, sink or forward messages.
type BlockInfo struct {
	mesh *topology.Mesh
	// Disabled[n] is true for nodes that are faulty or deactivated by
	// the convex completion.
	Disabled []bool
	// Deactivated counts healthy nodes sacrificed by the completion.
	Deactivated int
	// Rounds is how many propagation waves were needed to reach the
	// fixpoint; each wave corresponds to one neighbour-to-neighbour
	// state exchange in hardware.
	Rounds int
	// raw[n] has bit p set when node n observes a real fault through
	// mesh port p (faulty link or faulty neighbour); obs additionally
	// counts the neighbours the completion deactivated.
	raw, obs []uint8
}

// observed returns, per node, the nibble of mesh ports through which
// the node observes a real fault: bit p is set when the link through p
// or the neighbour behind it is faulty. A mesh border is not a fault
// (fault rectangles only grow from real faults). It walks the fault set,
// which is sparse, not the mesh.
func observed(m *topology.Mesh, s *Set) []uint8 {
	obs := make([]uint8, m.Nodes())
	for n := range s.nodes {
		if inMesh(m, n) {
			observe(m, obs, n)
		}
	}
	// Only faulty links joining two neighbours of the mesh count.
	for l := range s.links {
		if !inMesh(m, l.A) || !inMesh(m, l.B) {
			continue
		}
		if p, ok := m.PortTo(l.A, l.B); ok {
			obs[l.A] |= 1 << uint(p)
			obs[l.B] |= 1 << uint(topology.OppositeMeshPort(p))
		}
	}
	return obs
}

func inMesh(m *topology.Mesh, n topology.NodeID) bool { return n >= 0 && int(n) < m.Nodes() }

// observe makes the neighbours of the faulty or deactivated node n see
// it, each through the port that faces n.
func observe(m *topology.Mesh, obs []uint8, n topology.NodeID) {
	x, y := m.XY(n)
	if y+1 < m.H {
		obs[int(n)+m.W] |= 1 << topology.South
	}
	if x+1 < m.W {
		obs[n+1] |= 1 << topology.West
	}
	if y > 0 {
		obs[int(n)-m.W] |= 1 << topology.North
	}
	if x > 0 {
		obs[n-1] |= 1 << topology.East
	}
}

// BuildBlocks runs the convex completion to a fixpoint: a healthy node
// becomes deactivated when it observes a fault/deactivated neighbour
// (or faulty link) in both mesh dimensions. This fills concave corners
// until every fault region is rectangular, matching the paper's
// description "concave fault patterns are completed to a convex shape
// excluding the use of some non-faulty nodes".
func BuildBlocks(m *topology.Mesh, s *Set) *BlockInfo {
	b := &BlockInfo{
		mesh:     m,
		Disabled: make([]bool, m.Nodes()),
		raw:      observed(m, s),
	}
	for n := range s.nodes {
		if inMesh(m, n) {
			b.Disabled[n] = true
		}
	}
	b.obs = append([]uint8(nil), b.raw...)
	const vert, horiz = 1<<topology.North | 1<<topology.South, 1<<topology.East | 1<<topology.West
	for changed := true; changed; b.Rounds++ {
		changed = false
		// Raster order, reading the nibbles live: a node deactivated in
		// this wave is seen by its north and east neighbours in the same
		// wave, by the others in the next.
		for n := range b.obs {
			if o := b.obs[n]; o&vert != 0 && o&horiz != 0 && !b.Disabled[n] {
				b.Disabled[n] = true
				b.Deactivated++
				changed = true
				observe(m, b.obs, topology.NodeID(n))
			}
		}
	}
	return b
}

// DisabledNode reports whether n is faulty or deactivated.
func (b *BlockInfo) DisabledNode(n topology.NodeID) bool { return b.Disabled[n] }

// IsConvex verifies the fixpoint invariant: the set of disabled nodes,
// restricted to each connected group, forms a full rectangle. Used by
// property tests.
func (b *BlockInfo) IsConvex() bool {
	m := b.mesh
	seen := make([]bool, m.Nodes())
	for start := 0; start < m.Nodes(); start++ {
		if !b.Disabled[start] || seen[start] {
			continue
		}
		// Flood-fill the disabled group (4-connectivity).
		minX, minY := m.W, m.H
		maxX, maxY := -1, -1
		stack := []topology.NodeID{topology.NodeID(start)}
		seen[start] = true
		var members []topology.NodeID
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, n)
			x, y := m.XY(n)
			if x < minX {
				minX = x
			}
			if x > maxX {
				maxX = x
			}
			if y < minY {
				minY = y
			}
			if y > maxY {
				maxY = y
			}
			for p := 0; p < m.Ports(); p++ {
				nb := m.Neighbor(n, p)
				if nb == topology.Invalid || seen[nb] || !b.Disabled[nb] {
					continue
				}
				seen[nb] = true
				stack = append(stack, nb)
			}
		}
		// The bounding rectangle must be entirely disabled.
		if len(members) != (maxX-minX+1)*(maxY-minY+1) {
			return false
		}
	}
	return true
}
