package routing

import (
	"testing"

	"repro/internal/topology"
)

// torusWalk drives one message through TorusDOR, recording the VC of
// every hop and whether any hop crossed a wrap link without the next
// hop of that ring riding the dateline VC.
func torusWalk(t *testing.T, tor *topology.Torus, alg *TorusDOR, src, dst topology.NodeID) (hops int, hdr *Header) {
	t.Helper()
	hdr = &Header{Src: src, Dst: dst, Length: 4}
	req := Request{Node: src, InPort: InjectionPort, Hdr: hdr}
	for req.Node != dst {
		cands := alg.RouteAppend(req, nil)
		if len(cands) != 1 {
			t.Fatalf("torusdor %d->%d at %d: want exactly one candidate, got %v", src, dst, req.Node, cands)
		}
		chosen := cands[0]
		// Dateline discipline: once the header carries the dateline
		// flag, every further hop of the current ring must ride VC1.
		if hdr.Dateline != 0 && chosen.VC != 1 {
			t.Fatalf("torusdor %d->%d at %d: dateline set but hop uses VC%d", src, dst, req.Node, chosen.VC)
		}
		if hdr.Dateline == 0 && chosen.VC != 0 {
			t.Fatalf("torusdor %d->%d at %d: dateline clear but hop uses VC%d", src, dst, req.Node, chosen.VC)
		}
		wasWrap := isWrapHop(tor, req.Node, chosen.Port)
		ApplyHop(req.Hdr, req.Node, chosen)
		if wasWrap && hdr.Dateline != 1 {
			// The only exception: the wrap hop lands exactly on the
			// destination column and the dateline is reset for the Y
			// ring — but the hop sets then resets in that order, so a
			// wrap into the destination column with remaining Y hops
			// must still have cleared it deliberately.
			next := tor.Neighbor(req.Node, chosen.Port)
			nx, _ := tor.XY(next)
			dx, _ := tor.XY(dst)
			if nx != dx {
				t.Fatalf("torusdor %d->%d: wrap hop at %d did not set the dateline", src, dst, req.Node)
			}
		}
		req = Request{Node: tor.Neighbor(req.Node, chosen.Port), InPort: 0, InVC: chosen.VC, Hdr: hdr}
		hops++
		if hops > 4*tor.Nodes() {
			t.Fatalf("torusdor %d->%d did not terminate", src, dst)
		}
	}
	return hops, hdr
}

// isWrapHop reports whether taking port p at node n crosses a ring's
// wrap-around link.
func isWrapHop(tor *topology.Torus, n topology.NodeID, p int) bool {
	x, y := tor.XY(n)
	switch p {
	case topology.East:
		return x == tor.W-1
	case topology.West:
		return x == 0
	case topology.North:
		return y == tor.H-1
	case topology.South:
		return y == 0
	}
	return false
}

// The satellite property: on fault-free tori of several aspect ratios,
// every pair's dimension-ordered path is exactly the BFS shortest-path
// distance, and the dateline VC switch fires on every wrap crossing.
func TestTorusDORShortestPathsAndDatelines(t *testing.T) {
	shapes := [][2]int{{4, 4}, {5, 3}, {3, 7}, {6, 4}, {8, 3}}
	for _, sh := range shapes {
		tor := topology.NewTorus(sh[0], sh[1])
		alg := NewTorusDOR(tor)
		wraps := 0
		for s := 0; s < tor.Nodes(); s++ {
			bfs := topology.BFSDist(tor, topology.NodeID(s), nil)
			for d := 0; d < tor.Nodes(); d++ {
				if s == d {
					continue
				}
				hops, hdr := torusWalk(t, tor, alg, topology.NodeID(s), topology.NodeID(d))
				if hops != bfs[d] {
					t.Fatalf("torus%dx%d %d->%d: %d hops, BFS says %d", sh[0], sh[1], s, d, hops, bfs[d])
				}
				if hdr.Dateline != 0 {
					wraps++
				}
			}
		}
		if wraps == 0 {
			t.Fatalf("torus%dx%d: no pair ended with dateline state; wrap crossings untested", sh[0], sh[1])
		}
	}
}

// The torus closed-form Dist must itself agree with BFS (the property
// the walk comparison above leans on).
func TestTorusDistMatchesBFS(t *testing.T) {
	for _, sh := range [][2]int{{4, 4}, {5, 3}, {3, 7}} {
		tor := topology.NewTorus(sh[0], sh[1])
		for s := 0; s < tor.Nodes(); s++ {
			bfs := topology.BFSDist(tor, topology.NodeID(s), nil)
			for d := 0; d < tor.Nodes(); d++ {
				if got := tor.Dist(topology.NodeID(s), topology.NodeID(d)); got != bfs[d] {
					t.Fatalf("torus%dx%d Dist(%d,%d) = %d, BFS = %d", sh[0], sh[1], s, d, got, bfs[d])
				}
			}
		}
	}
}
