package fault

import (
	"math/rand"
	"testing"

	"repro/internal/topology"
)

// Frozen copy of the diagnosis builders as they stood before PR 21
// rebuilt them around the per-node blocked-port nibble: raster sweeps
// that ask the fault set's maps per node and port. It is the reference
// TestBuildersMatchFrozenSweep holds the new builders to; do not
// "modernise" it.

type oldBlocks struct {
	Disabled    []bool
	Deactivated int
	Rounds      int
}

func oldDimFault(m *topology.Mesh, s *Set, disabled []bool, x, y, dx, dy int) bool {
	nx, ny := x+dx, y+dy
	if nx < 0 || nx >= m.W || ny < 0 || ny >= m.H {
		return false
	}
	n := m.Node(x, y)
	nb := m.Node(nx, ny)
	if s.NodeFaulty(nb) || disabled[nb] {
		return true
	}
	return s.LinkFaulty(n, nb)
}

func oldBuildBlocks(m *topology.Mesh, s *Set) *oldBlocks {
	b := &oldBlocks{
		Disabled: make([]bool, m.Nodes()),
	}
	for n := range b.Disabled {
		b.Disabled[n] = s.NodeFaulty(topology.NodeID(n))
	}
	for {
		changed := false
		for y := 0; y < m.H; y++ {
			for x := 0; x < m.W; x++ {
				n := m.Node(x, y)
				if b.Disabled[n] {
					continue
				}
				vert := oldDimFault(m, s, b.Disabled, x, y, 0, 1) || oldDimFault(m, s, b.Disabled, x, y, 0, -1)
				horiz := oldDimFault(m, s, b.Disabled, x, y, 1, 0) || oldDimFault(m, s, b.Disabled, x, y, -1, 0)
				if vert && horiz {
					b.Disabled[n] = true
					b.Deactivated++
					changed = true
				}
			}
		}
		b.Rounds++
		if !changed {
			break
		}
	}
	return b
}

type oldDirStates struct {
	blocked [topology.MeshPorts][topology.MeshPorts][]bool
	runs    [topology.MeshPorts][]int
}

func oldBuildDirStates(m *topology.Mesh, s *Set, b *oldBlocks) *oldDirStates {
	d := &oldDirStates{}
	disabled := func(n topology.NodeID) bool {
		if s.NodeFaulty(n) {
			return true
		}
		return b != nil && b.Disabled[n]
	}
	// portBlocked(n, p): the hop through p is unusable (border, fault
	// or disabled target).
	portBlocked := func(n topology.NodeID, p int) bool {
		nb := m.Neighbor(n, p)
		if nb == topology.Invalid {
			return true
		}
		return disabled(nb) || s.LinkFaulty(n, nb)
	}
	for dir := 0; dir < topology.MeshPorts; dir++ {
		runs := make([]int, m.Nodes())
		for _, n := range oldTravelOrder(m, dir) {
			if portBlocked(n, dir) {
				runs[n] = 0
			} else {
				runs[n] = 1 + runs[m.Neighbor(n, dir)]
			}
		}
		d.runs[dir] = runs
	}
	for dir := 0; dir < topology.MeshPorts; dir++ {
		for travel := 0; travel < topology.MeshPorts; travel++ {
			if travel == dir || travel == topology.OppositeMeshPort(dir) {
				continue // only perpendicular travel is meaningful
			}
			flags := make([]bool, m.Nodes())
			// Propagate against the travel direction: the flag of n
			// depends on the flag of its travel-direction neighbour,
			// so we start at the border the travel points to. Order
			// nodes by decreasing coordinate along travel.
			for _, n := range oldTravelOrder(m, travel) {
				local := portBlocked(n, dir)
				// If the travel direction itself is interrupted
				// (border, fault, disabled node) the wave ends here:
				// nothing beyond the interruption can re-open dir for
				// a message detouring along this line.
				if portBlocked(n, travel) {
					flags[n] = local
				} else {
					flags[n] = local && flags[m.Neighbor(n, travel)]
				}
			}
			d.blocked[dir][travel] = flags
		}
	}
	return d
}

// oldTravelOrder returns all mesh nodes ordered so that each node's
// neighbour in direction travel comes earlier (border-first sweep).
func oldTravelOrder(m *topology.Mesh, travel int) []topology.NodeID {
	out := make([]topology.NodeID, 0, m.Nodes())
	switch travel {
	case topology.East: // sweep x descending
		for x := m.W - 1; x >= 0; x-- {
			for y := 0; y < m.H; y++ {
				out = append(out, m.Node(x, y))
			}
		}
	case topology.West:
		for x := 0; x < m.W; x++ {
			for y := 0; y < m.H; y++ {
				out = append(out, m.Node(x, y))
			}
		}
	case topology.North: // sweep y descending
		for y := m.H - 1; y >= 0; y-- {
			for x := 0; x < m.W; x++ {
				out = append(out, m.Node(x, y))
			}
		}
	case topology.South:
		for y := 0; y < m.H; y++ {
			for x := 0; x < m.W; x++ {
				out = append(out, m.Node(x, y))
			}
		}
	}
	return out
}

// TestBuildersMatchFrozenSweep: the nibble-based builders must derive
// exactly what the frozen raster sweeps derive — Disabled, the
// deactivation and wave counts, every Blocked flag and every east and
// west ClearRun (the only runs DirStates keeps) — with and without the
// convex completion. One DirStates is rebuilt in place for every case,
// so a value left over from an earlier build shows as a difference.
func TestBuildersMatchFrozenSweep(t *testing.T) {
	for _, c := range []struct {
		name         string
		w, h         int
		nodes, links int
		stray        bool // also fail nodes and links that are not in the mesh
	}{
		{"8x8 sparse", 8, 8, 2, 2, false},
		{"8x8 dense", 8, 8, 9, 6, false},
		{"5x7", 5, 7, 4, 4, false},
		{"9x3 links only", 9, 3, 0, 7, false},
		{"2x2", 2, 2, 1, 1, false},
		{"1x6 line", 1, 6, 1, 1, false},
		{"6x1 line", 6, 1, 1, 2, false},
		{"7x6 with stray faults", 7, 6, 3, 3, true},
		{"16x16 fault-free", 16, 16, 0, 0, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := topology.NewMesh(c.w, c.h)
			links := topology.Links(m)
			var ns DirStates
			for seed := int64(0); seed < 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				s := NewSet()
				for i := 0; i < c.nodes; i++ {
					s.FailNode(topology.NodeID(rng.Intn(m.Nodes())))
				}
				for i := 0; i < c.links && len(links) > 0; i++ {
					l := links[rng.Intn(len(links))]
					s.FailLink(l.A, l.B)
				}
				if c.stray {
					s.FailNode(topology.NodeID(m.Nodes() + rng.Intn(5)))
					s.FailLink(0, topology.NodeID(m.Nodes()-1))                                // not neighbours
					s.FailLink(topology.NodeID(m.Nodes()-1), topology.NodeID(m.Nodes()-1+m.W)) // off the top
				}
				ob, nb := oldBuildBlocks(m, s), BuildBlocks(m, s)
				if nb.Deactivated != ob.Deactivated || nb.Rounds != ob.Rounds {
					t.Fatalf("seed %d %v: deactivated/rounds %d/%d, frozen %d/%d",
						seed, s, nb.Deactivated, nb.Rounds, ob.Deactivated, ob.Rounds)
				}
				for n := range ob.Disabled {
					if nb.Disabled[n] != ob.Disabled[n] {
						t.Fatalf("seed %d %v: Disabled[%d] = %v, frozen %v", seed, s, n, nb.Disabled[n], ob.Disabled[n])
					}
				}
				for _, withBlocks := range []bool{true, false} {
					var obp *oldBlocks
					var nbp *BlockInfo
					if withBlocks {
						obp, nbp = ob, nb
					}
					os := oldBuildDirStates(m, s, obp)
					ns.Build(m, s, nbp)
					for n := 0; n < m.Nodes(); n++ {
						id := topology.NodeID(n)
						for dir := 0; dir < topology.MeshPorts; dir++ {
							if dir == topology.East || dir == topology.West {
								if got, want := ns.ClearRun(dir, id), os.runs[dir][n]; got != want {
									t.Fatalf("seed %d %v blocks=%v: ClearRun(%d,%d) = %d, frozen %d", seed, s, withBlocks, dir, n, got, want)
								}
							}
							for travel := 0; travel < topology.MeshPorts; travel++ {
								want := os.blocked[dir][travel] != nil && os.blocked[dir][travel][n]
								if got := ns.Blocked(dir, travel, id); got != want {
									t.Fatalf("seed %d %v blocks=%v: Blocked(%d,%d,%d) = %v, frozen %v",
										seed, s, withBlocks, dir, travel, n, got, want)
								}
							}
						}
					}
				}
			}
		})
	}
}
