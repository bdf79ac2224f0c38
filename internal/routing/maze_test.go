package routing

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/topology"
)

// mazeWalk drives one message like walk but without t.Fatal on
// non-delivery: it returns delivery, hop count, the final header and
// the request of the failing decision (valid only when !ok).
func mazeWalk(t *testing.T, g topology.Graph, m *Maze, src, dst topology.NodeID, maxHops int) (bool, int, *Header, Request) {
	t.Helper()
	hdr := &Header{Src: src, Dst: dst, Length: 4}
	req := Request{Node: src, InPort: InjectionPort, InVC: 0, Hdr: hdr}
	hops := 0
	for req.Node != dst {
		cands := m.RouteAppend(req, nil)
		if len(cands) == 0 {
			return false, hops, hdr, req
		}
		chosen := cands[0]
		ApplyHop(req.Hdr, req.Node, chosen)
		next := g.Neighbor(req.Node, chosen.Port)
		if next == topology.Invalid {
			t.Fatalf("maze routed into a border at node %d port %d", req.Node, chosen.Port)
		}
		back, _ := g.PortTo(next, req.Node)
		req = Request{Node: next, InPort: back, InVC: chosen.VC, Hdr: hdr}
		hops++
		if hops > maxHops {
			t.Fatalf("maze %d->%d exceeded %d hops (mode %d steps %d)", src, dst, maxHops, hdr.MazeMode, hdr.MazeSteps)
		}
	}
	return true, hops, hdr, req
}

// mazeGuarantee checks the family's core contract on every ordered
// pair of g under faults f: reachable pairs must be delivered,
// unreachable pairs must end in an empty RouteAppend whose UnreachableVerdict
// confirms the drop. Returns how many pairs were unreachable.
func mazeGuarantee(t *testing.T, g topology.Graph, f *fault.Set) int {
	t.Helper()
	m, err := NewMaze(g)
	if err != nil {
		t.Fatal(err)
	}
	m.UpdateFaults(f)
	filter := f.Filter()
	maxHops := 20*g.Nodes() + 200
	unreachable := 0
	for s := 0; s < g.Nodes(); s++ {
		for d := 0; d < g.Nodes(); d++ {
			if s == d || f.NodeFaulty(topology.NodeID(s)) || f.NodeFaulty(topology.NodeID(d)) {
				continue
			}
			reach := topology.Reachable(g, topology.NodeID(s), topology.NodeID(d), filter)
			ok, _, _, lastReq := mazeWalk(t, g, m, topology.NodeID(s), topology.NodeID(d), maxHops)
			if reach && !ok {
				t.Fatalf("%s: maze sacrificed reachable pair %d->%d", g.Name(), s, d)
			}
			if !reach {
				unreachable++
				if ok {
					t.Fatalf("%s: maze claims delivery of unreachable pair %d->%d", g.Name(), s, d)
				}
				if !m.UnreachableVerdict(lastReq) {
					t.Fatalf("%s: maze dropped %d->%d without an unreachable verdict", g.Name(), s, d)
				}
			}
		}
	}
	return unreachable
}

func TestMazeAllPairsFaultFreeMinimal(t *testing.T) {
	graphs := []topology.Graph{topology.NewMesh(5, 4), topology.NewTorus(5, 4)}
	for _, g := range graphs {
		m, err := NewMaze(g)
		if err != nil {
			t.Fatal(err)
		}
		dist := g.(interface {
			Dist(a, b topology.NodeID) int
		}).Dist
		for s := 0; s < g.Nodes(); s++ {
			for d := 0; d < g.Nodes(); d++ {
				if s == d {
					continue
				}
				ok, hops, hdr, _ := mazeWalk(t, g, m, topology.NodeID(s), topology.NodeID(d), 100)
				if !ok {
					t.Fatalf("%s: maze failed fault-free %d->%d", g.Name(), s, d)
				}
				if want := dist(topology.NodeID(s), topology.NodeID(d)); hops != want {
					t.Fatalf("%s: maze %d->%d took %d hops, want %d", g.Name(), s, d, hops, want)
				}
				if hdr.MazeMode != MazeModeNormal {
					t.Fatalf("fault-free message must stay in normal mode, got %d", hdr.MazeMode)
				}
			}
		}
	}
}

func TestMazeTraversalAroundBlock(t *testing.T) {
	g := topology.NewMesh(8, 8)
	m, err := NewMaze(g)
	if err != nil {
		t.Fatal(err)
	}
	// A concave pocket: a C-shaped wall opening west, so eastbound
	// messages entering the pocket must wall-follow back out.
	f := fault.NewSet()
	for y := 2; y <= 5; y++ {
		f.FailNode(g.Node(5, y)) // east wall
	}
	f.FailNode(g.Node(4, 2)) // north lip
	f.FailNode(g.Node(4, 5)) // south lip
	m.UpdateFaults(f)
	ok, hops, hdr, _ := mazeWalk(t, g, m, g.Node(3, 3), g.Node(7, 3), 10000)
	if !ok {
		t.Fatal("maze failed to escape the pocket")
	}
	if hops <= g.Dist(g.Node(3, 3), g.Node(7, 3)) {
		t.Fatalf("detour must be non-minimal, got %d hops", hops)
	}
	_ = hdr
}

func TestMazeGuaranteeMeshRandomFaults(t *testing.T) {
	g := topology.NewMesh(8, 8)
	sawPartition := false
	for seed := int64(0); seed < 10; seed++ {
		// KeepConnected deliberately off: the maze family must
		// adjudicate partitioned graphs, not avoid them.
		f, err := fault.Random(g, fault.RandomOptions{Nodes: 7, Links: 5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if mazeGuarantee(t, g, f) > 0 {
			sawPartition = true
		}
	}
	if !sawPartition {
		t.Fatal("fault patterns never partitioned the mesh; the unreachable arm was untested")
	}
}

func TestMazeGuaranteeTorusRandomFaults(t *testing.T) {
	g := topology.NewTorus(6, 6)
	for seed := int64(0); seed < 8; seed++ {
		f, err := fault.Random(g, fault.RandomOptions{Nodes: 6, Links: 6, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		mazeGuarantee(t, g, f)
	}
}

func TestMazeGuaranteeTorusRingCut(t *testing.T) {
	// Cutting every link of one column ring makes the torus a cylinder
	// that is still connected the other way around: the wall-follow
	// heuristic may fire a false disconnection alarm here, and the
	// component cross-check must convert it into a forced escape, not
	// a drop.
	g := topology.NewTorus(6, 5)
	f := fault.NewSet()
	for y := 0; y < 5; y++ {
		f.FailLink(g.Node(2, y), g.Node(3, y))
	}
	if n := mazeGuarantee(t, g, f); n != 0 {
		t.Fatalf("ring-cut torus stays connected, but %d pairs judged unreachable", n)
	}
}

func TestMazeGuaranteeIrregular(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g, err := topology.RandomIrregular(24, 10, seed)
		if err != nil {
			t.Fatal(err)
		}
		if g.Ports() > MazeMaxPorts {
			continue // rare high-degree draw; NewMaze would refuse it
		}
		f, err := fault.Random(g, fault.RandomOptions{Nodes: 3, Links: 4, Seed: seed * 7})
		if err != nil {
			t.Fatal(err)
		}
		mazeGuarantee(t, g, f)
	}
}

func TestMazePartitionVerdict(t *testing.T) {
	// A clean column cut: x<=2 and x>=4 are separate components.
	g := topology.NewMesh(6, 4)
	f := fault.NewSet()
	for y := 0; y < 4; y++ {
		f.FailNode(g.Node(3, y))
	}
	m, err := NewMaze(g)
	if err != nil {
		t.Fatal(err)
	}
	m.UpdateFaults(f)
	hdr := &Header{Src: g.Node(0, 0), Dst: g.Node(5, 3), Length: 4}
	req := Request{Node: hdr.Src, InPort: InjectionPort, Hdr: hdr}
	if !m.UnreachableVerdict(req) {
		t.Fatal("cross-partition pair must get an unreachable verdict")
	}
	ok, _, _, lastReq := mazeWalk(t, g, m, hdr.Src, hdr.Dst, 10000)
	if ok {
		t.Fatal("maze delivered across a partition")
	}
	if !m.UnreachableVerdict(lastReq) {
		t.Fatal("drop without verdict")
	}
	// Same-side pairs are unaffected.
	if !m.UnreachableVerdict(req) == false {
		_ = req
	}
	ok, _, _, _ = mazeWalk(t, g, m, g.Node(0, 0), g.Node(2, 3), 10000)
	if !ok {
		t.Fatal("same-component pair must deliver")
	}
}

func TestMazeEpochRestartsTraversalState(t *testing.T) {
	g := topology.NewMesh(6, 6)
	m, err := NewMaze(g)
	if err != nil {
		t.Fatal(err)
	}
	f := fault.NewSet()
	f.FailNode(g.Node(3, 3))
	m.UpdateFaults(f)
	// A header carrying traversal state stamped with a stale epoch must
	// decide as if in normal mode.
	hdr := &Header{
		Src: g.Node(0, 0), Dst: g.Node(5, 5), Length: 4,
		MazeMode: MazeModeTraversal, MazeStart: g.Node(2, 2),
		MazeStartPort: 0, MazeSteps: 7,
		MazeEpoch: m.epoch - 1,
	}
	req := Request{Node: g.Node(0, 0), InPort: InjectionPort, Hdr: hdr}
	facts := m.Facts(req)
	if facts.Mode != MazeModeNormal {
		t.Fatalf("stale traversal state must restart as normal mode, got %d", facts.Mode)
	}
	// Stale escape state stays sticky but resets the phase.
	hdr.MazeMode = MazeModeEscape
	hdr.Phase = 1
	facts = m.Facts(req)
	if facts.Mode != MazeModeEscape {
		t.Fatalf("stale escape state must stay escape, got %d", facts.Mode)
	}
	cands := m.RouteAppend(req, nil)
	if len(cands) == 0 {
		t.Fatal("phase-reset escape must still offer a hop")
	}
	for _, c := range cands {
		if c.VC != 1 {
			t.Fatalf("escape-mode candidates must ride VC1, got %v", c)
		}
	}
	// The hop restamps the header with the current epoch.
	ApplyHop(req.Hdr, req.Node, cands[0])
	if hdr.MazeEpoch != m.epoch {
		t.Fatalf("the hop must stamp the current epoch, got %d want %d", hdr.MazeEpoch, m.epoch)
	}
}

func TestMazeEscapeAlwaysOffered(t *testing.T) {
	g := topology.NewMesh(6, 6)
	m, err := NewMaze(g)
	if err != nil {
		t.Fatal(err)
	}
	hdr := &Header{Src: g.Node(0, 0), Dst: g.Node(5, 5), Length: 4}
	req := Request{Node: g.Node(2, 2), InPort: topology.West, Hdr: hdr}
	cands := m.RouteAppend(req, nil)
	if len(cands) != 2 {
		t.Fatalf("decision must offer a maze move and an escape hop, got %v", cands)
	}
	if cands[0].VC != 0 || cands[1].VC != 1 {
		t.Fatalf("candidate order must be [move@VC0, escape@VC1], got %v", cands)
	}
	// The sticky escape: granting VC1 flips the mode for good.
	ApplyHop(req.Hdr, req.Node, cands[1])
	if hdr.MazeMode != MazeModeEscape {
		t.Fatalf("escape grant must latch escape mode, got %d", hdr.MazeMode)
	}
}

func TestMazeRouteAppendZeroAlloc(t *testing.T) {
	g := topology.NewMesh(8, 8)
	m, err := NewMaze(g)
	if err != nil {
		t.Fatal(err)
	}
	f := fault.NewSet()
	f.FailNode(g.Node(4, 4))
	m.UpdateFaults(f)
	hdr := &Header{Src: g.Node(0, 0), Dst: g.Node(7, 7), Length: 4}
	req := Request{Node: g.Node(3, 3), InPort: topology.West, Hdr: hdr}
	buf := make([]Candidate, 0, 8)
	allocs := testing.AllocsPerRun(200, func() {
		buf = m.RouteAppend(req, buf[:0])
		if len(buf) == 0 {
			t.Fatal("expected candidates")
		}
	})
	if allocs != 0 {
		t.Fatalf("RouteAppend allocates %.1f/op, want 0", allocs)
	}
}

func TestMazeRejectsHighDegreeGraphs(t *testing.T) {
	// A star graph: the hub's degree exceeds MazeMaxPorts.
	var edges []topology.Link
	for i := 1; i <= MazeMaxPorts+1; i++ {
		edges = append(edges, topology.Link{A: 0, B: topology.NodeID(i)})
	}
	g, err := topology.NewIrregular("star", MazeMaxPorts+2, edges)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMaze(g); err == nil {
		t.Fatal("NewMaze must refuse graphs with more than MazeMaxPorts ports")
	}
}
