package network

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/topology"
)

// ringAlg deliberately routes every message clockwise around the outer
// ring of a mesh with a single virtual channel — the textbook
// deadlock-prone discipline (a cyclic channel dependency).
type ringAlg struct {
	routing.Defaults
	m *topology.Mesh
}

func (r *ringAlg) Name() string              { return "ring" }
func (r *ringAlg) NumVCs() int               { return 1 }
func (r *ringAlg) Steps(routing.Request) int { return 1 }
func (r *ringAlg) UpdateFaults(*fault.Set)   {}

// RouteAppend follows the ring clockwise: east along the bottom, north
// up the right edge, west along the top, south down the left edge.
func (r *ringAlg) RouteAppend(req routing.Request, buf []routing.Candidate) []routing.Candidate {
	x, y := r.m.XY(req.Node)
	w, h := r.m.W, r.m.H
	var port int
	switch {
	case y == 0 && x < w-1:
		port = topology.East
	case x == w-1 && y < h-1:
		port = topology.North
	case y == h-1 && x > 0:
		port = topology.West
	default:
		port = topology.South
	}
	return append(buf, routing.Candidate{Port: port, VC: 0})
}

// TestDeadlockDetectorFindsRingDeadlock drives the deliberately broken
// ring discipline into a circular wait and checks the analyser
// certifies it.
func TestDeadlockDetectorFindsRingDeadlock(t *testing.T) {
	m := topology.NewMesh(3, 3)
	n := New(Config{Graph: m, Algorithm: &ringAlg{m: m}, BufDepth: 2, WatchdogCycles: 200})
	// One long message injected at each ring corner, each destined
	// "around the corner" so all four segments are claimed at once.
	corners := []struct{ src, dst topology.NodeID }{
		{m.Node(0, 0), m.Node(2, 1)}, // east segment, turning north
		{m.Node(2, 0), m.Node(1, 2)}, // north segment, turning west
		{m.Node(2, 2), m.Node(0, 1)}, // west segment, turning south
		{m.Node(0, 2), m.Node(1, 0)}, // south segment, turning east
	}
	for _, c := range corners {
		n.Inject(c.src, c.dst, 24)
	}
	found := false
	for i := 0; i < 500; i++ {
		n.Step()
		if cyc := n.FindDeadlockCycle(); len(cyc) >= 2 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("ring discipline should deadlock and be certified by the analyser")
	}
	// The watchdog agrees eventually.
	for i := 0; i < 300; i++ {
		n.Step()
	}
	if !n.Stats().DeadlockSuspected {
		t.Fatal("watchdog should also flag the deadlock")
	}
}

// TestNoDeadlockCycleUnderStress checks the analyser stays silent for
// the paper's algorithms under heavy load and faults — every cycle of
// three stress runs.
func TestNoDeadlockCycleUnderStress(t *testing.T) {
	t.Run("nafta-mesh", func(t *testing.T) {
		m := topology.NewMesh(8, 8)
		alg := routing.NewNAFTA(m)
		n := New(Config{Graph: m, Algorithm: alg, BufDepth: 2})
		f := fault.NewSet()
		f.FailNode(m.Node(3, 3))
		f.FailNode(m.Node(4, 3))
		n.ApplyFaults(f)
		stress(t, n, m.Nodes(), func(rng *rand.Rand) (topology.NodeID, topology.NodeID) {
			return topology.NodeID(rng.Intn(m.Nodes())), topology.NodeID(rng.Intn(m.Nodes()))
		}, func(x topology.NodeID) bool { return f.NodeFaulty(x) || alg.Blocks().DisabledNode(x) })
	})
	t.Run("routec-cube", func(t *testing.T) {
		h := topology.NewHypercube(5)
		alg := routing.NewRouteC(h)
		n := New(Config{Graph: h, Algorithm: alg})
		f, err := fault.Random(h, fault.RandomOptions{Nodes: 3, Seed: 1, KeepConnected: true})
		if err != nil {
			t.Fatal(err)
		}
		n.ApplyFaults(f)
		stress(t, n, h.Nodes(), func(rng *rand.Rand) (topology.NodeID, topology.NodeID) {
			return topology.NodeID(rng.Intn(h.Nodes())), topology.NodeID(rng.Intn(h.Nodes()))
		}, f.NodeFaulty)
	})
	t.Run("neghop-mesh", func(t *testing.T) {
		m := topology.NewMesh(8, 8)
		alg, err := routing.NewNegHop(m, 10)
		if err != nil {
			t.Fatal(err)
		}
		n := New(Config{Graph: m, Algorithm: alg, BufDepth: 2})
		f := fault.NewSet()
		f.FailLink(m.Node(3, 3), m.Node(3, 4))
		n.ApplyFaults(f)
		stress(t, n, m.Nodes(), func(rng *rand.Rand) (topology.NodeID, topology.NodeID) {
			return topology.NodeID(rng.Intn(m.Nodes())), topology.NodeID(rng.Intn(m.Nodes()))
		}, func(topology.NodeID) bool { return false })
	})
}

func stress(t *testing.T, n *Network, nodes int,
	pick func(*rand.Rand) (topology.NodeID, topology.NodeID),
	skip func(topology.NodeID) bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	for cycle := 0; cycle < 3000; cycle++ {
		// Heavy injection for the first two thirds.
		if cycle < 2000 && cycle%2 == 0 {
			for k := 0; k < 4; k++ {
				src, dst := pick(rng)
				if src == dst || skip(src) || skip(dst) {
					continue
				}
				n.Inject(src, dst, 8)
			}
		}
		n.Step()
		if cycle%25 == 0 {
			if cyc := n.FindDeadlockCycle(); cyc != nil {
				t.Fatalf("cycle %d: circular wait among messages %v", cycle, cyc)
			}
		}
	}
	if !n.Drain(100000) {
		if cyc := n.FindDeadlockCycle(); cyc != nil {
			t.Fatalf("drain stalled with circular wait %v", cyc)
		}
		t.Fatalf("drain stalled without a certified cycle (inflight %d)", n.InFlight())
	}
}

// Up*/down* on an irregular cluster topology: heavy traffic, no
// circular waits (the single-VC discipline must hold).
func TestNoDeadlockCycleUpDownIrregular(t *testing.T) {
	g, err := topology.RandomIrregular(24, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	alg := routing.NewUpDown(g)
	n := New(Config{Graph: g, Algorithm: alg, BufDepth: 2})
	f := fault.NewSet()
	n.ApplyFaults(f)
	stress(t, n, g.Nodes(), func(rng *rand.Rand) (topology.NodeID, topology.NodeID) {
		return topology.NodeID(rng.Intn(g.Nodes())), topology.NodeID(rng.Intn(g.Nodes()))
	}, func(topology.NodeID) bool { return false })
}
