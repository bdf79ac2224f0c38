package rulesets

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/topology"
)

// mazeTestGraphs returns the three topology families of the maze
// campaign with a representative fault pattern each (partitions
// allowed — the family's point).
func mazeTestGraphs(t *testing.T) []struct {
	g topology.Graph
	f *fault.Set
} {
	t.Helper()
	mesh := topology.NewMesh(8, 8)
	mf := fault.NewSet()
	for y := 2; y <= 5; y++ {
		mf.FailNode(mesh.Node(5, y))
	}
	mf.FailNode(mesh.Node(4, 2))
	mf.FailNode(mesh.Node(4, 5))

	tor := topology.NewTorus(6, 5)
	tf := fault.NewSet()
	for y := 0; y < 5; y++ {
		tf.FailLink(tor.Node(2, y), tor.Node(3, y))
	}

	irr, err := topology.RandomIrregular(20, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if irr.Ports() > routing.MazeMaxPorts {
		t.Fatalf("test irregular graph drew degree %d > %d; pick another seed", irr.Ports(), routing.MazeMaxPorts)
	}
	rf, err := fault.Random(irr, fault.RandomOptions{Nodes: 2, Links: 3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		g topology.Graph
		f *fault.Set
	}{{mesh, mf}, {tor, tf}, {irr, rf}}
}

// Every decision of a full walk must agree across the native engine,
// the dense fast path and the interpreted reference path — the two rule
// paths also in the rules they fire, in order, and in their lookup
// counts — and reachable pairs must be delivered, unreachable ones
// unanimously certified.
func TestRuleMazeMatchesNativeWalks(t *testing.T) {
	for _, tc := range mazeTestGraphs(t) {
		g := tc.g
		native, err := routing.NewMaze(g)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := NewRuleMaze(g)
		if err != nil {
			t.Fatal(err)
		}
		if !fast.FastPathActive() {
			t.Fatalf("%s: maze decision bases must compile densely", g.Name())
		}
		interp, err := NewRuleMaze(g)
		if err != nil {
			t.Fatal(err)
		}
		interp.DisableFast = true
		var fastFired, interpFired []firing
		fast.OnRuleFired = recordFirings(&fastFired)
		interp.OnRuleFired = recordFirings(&interpFired)
		native.UpdateFaults(tc.f)
		fast.UpdateFaults(tc.f)
		interp.UpdateFaults(tc.f)
		filter := tc.f.Filter()

		rng := rand.New(rand.NewSource(42))
		maxHops := 20*g.Nodes() + 200
		walked := 0
		for i := 0; i < 150; i++ {
			src := topology.NodeID(rng.Intn(g.Nodes()))
			dst := topology.NodeID(rng.Intn(g.Nodes()))
			if src == dst || tc.f.NodeFaulty(src) || tc.f.NodeFaulty(dst) {
				continue
			}
			walked++
			reach := topology.Reachable(g, src, dst, filter)
			hdr := &routing.Header{Src: src, Dst: dst, Length: 4}
			req := routing.Request{Node: src, InPort: routing.InjectionPort, Hdr: hdr}
			hops, delivered := 0, false
			for {
				if req.Node == dst {
					delivered = true
					break
				}
				fastFired, interpFired = fastFired[:0], interpFired[:0]
				a := fast.RouteAppend(req, nil)
				b := interp.RouteAppend(req, nil)
				c := native.RouteAppend(req, nil)
				if !sameCands(a, b) || !sameCands(a, c) {
					t.Fatalf("%s %d->%d at %d: fast %v interp %v native %v", g.Name(), src, dst, req.Node, a, b, c)
				}
				if !sameFirings(fastFired, interpFired) || len(fastFired) != len(a) {
					t.Fatalf("%s %d->%d at %d: fired %v vs %v for %v", g.Name(), src, dst, req.Node, fastFired, interpFired, a)
				}
				if fast.Lookups != interp.Lookups {
					t.Fatalf("%s %d->%d at %d: lookups %d vs %d", g.Name(), src, dst, req.Node, fast.Lookups, interp.Lookups)
				}
				if len(a) == 0 {
					if !fast.UnreachableVerdict(req) || !native.UnreachableVerdict(req) {
						t.Fatalf("%s %d->%d: drop without unanimous verdict", g.Name(), src, dst)
					}
					break
				}
				chosen := a[0]
				routing.ApplyHop(req.Hdr, req.Node, chosen)
				next := g.Neighbor(req.Node, chosen.Port)
				if next == topology.Invalid || !tc.f.HopUsable(req.Node, next) {
					t.Fatalf("%s %d->%d: illegal hop %v at %d", g.Name(), src, dst, chosen, req.Node)
				}
				back, _ := g.PortTo(next, req.Node)
				req = routing.Request{Node: next, InPort: back, InVC: chosen.VC, Hdr: hdr}
				hops++
				if hops > maxHops {
					t.Fatalf("%s %d->%d: no termination", g.Name(), src, dst)
				}
			}
			if reach && !delivered {
				t.Fatalf("%s: sacrificed reachable pair %d->%d", g.Name(), src, dst)
			}
			if !reach && delivered {
				t.Fatalf("%s: delivered unreachable pair %d->%d", g.Name(), src, dst)
			}
		}
		if walked == 0 {
			t.Fatalf("%s: no pairs walked", g.Name())
		}
	}
}

func TestRuleMazeSurface(t *testing.T) {
	g := topology.NewTorus(5, 4)
	r, err := NewRuleMaze(g)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumVCs() != 2 {
		t.Fatalf("NumVCs = %d, want 2", r.NumVCs())
	}
	hdr := &routing.Header{Src: 0, Dst: 7, Length: 4}
	req := routing.Request{Node: 0, InPort: routing.InjectionPort, Hdr: hdr}
	if r.Steps(req) != 2 {
		t.Fatalf("Steps = %d, want 2 (move + escape base)", r.Steps(req))
	}
	if got := routing.RegimeOf(r); got != routing.RegimeMaze {
		t.Fatalf("regime = %q, want %q", got, routing.RegimeMaze)
	}
}

func TestRuleMazeRouteAppendZeroAlloc(t *testing.T) {
	g := topology.NewMesh(8, 8)
	r, err := NewRuleMaze(g)
	if err != nil {
		t.Fatal(err)
	}
	f := fault.NewSet()
	f.FailNode(g.Node(4, 4))
	r.UpdateFaults(f)
	if !r.FastPathActive() {
		t.Fatal("fast path must be active")
	}
	hdr := &routing.Header{Src: g.Node(0, 0), Dst: g.Node(7, 7), Length: 4}
	req := routing.Request{Node: g.Node(3, 3), InPort: topology.West, Hdr: hdr}
	buf := make([]routing.Candidate, 0, 8)
	allocs := testing.AllocsPerRun(200, func() {
		buf = r.RouteAppend(req, buf[:0])
		if len(buf) == 0 {
			t.Fatal("expected candidates")
		}
	})
	if allocs != 0 {
		t.Fatalf("RouteAppend allocates %.1f/op, want 0", allocs)
	}
}
