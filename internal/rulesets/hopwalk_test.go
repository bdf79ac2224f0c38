package rulesets

import (
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/topology"
)

// hopWalkCase is one family on one faulted topology: its native engine
// and, for the three families with a rule program, the rule adapter
// (both already told the faults f). picksOne marks an adapter whose
// conclusion selects one of the native's candidates (NAFTA's
// adaptivity) instead of offering them all; covers are the header
// writes the walks must take at least once.
type hopWalkCase struct {
	name         string
	g            topology.Graph
	f            *fault.Set
	native, rule routing.Algorithm
	picksOne     bool
	covers       routing.HopOps
}

func hopWalkCases(t *testing.T) []hopWalkCase {
	t.Helper()
	must := func(a routing.Algorithm, err error) routing.Algorithm {
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	faulted := func(g topology.Graph, nodes, links int, seed int64) *fault.Set {
		f, err := fault.Random(g, fault.RandomOptions{Nodes: nodes, Links: links, Seed: seed, KeepConnected: true})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	mesh, cube, torus := topology.NewMesh(8, 8), topology.NewHypercube(6), topology.NewTorus(6, 6)
	irreg, err := topology.RandomIrregular(20, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Every maze hop writes the mode; the escape channel's writes its
	// phase.
	mazeWalk := routing.SetMazeMode(routing.MazeModeEscape) | routing.SetPhase(1)
	cases := []hopWalkCase{
		{"xy", mesh, fault.NewSet(), routing.NewXY(mesh), nil, false, 0},
		{"nara", mesh, fault.NewSet(), routing.NewNARA(mesh), nil, false, routing.HopLatchVNet},
		{"nafta", mesh, faulted(mesh, 4, 2, 2), routing.NewNAFTA(mesh), must(NewRuleNAFTA(mesh)), true, routing.HopLatchVNet | routing.HopMisroute},
		{"tree", mesh, faulted(mesh, 2, 0, 1), routing.NewTree(mesh), nil, false, 0},
		{"neghop", mesh, faulted(mesh, 2, 0, 1), must(routing.NewNegHop(mesh, 12)), nil, false, routing.HopNegHop | routing.HopMisroute},
		{"maze-mesh", mesh, faulted(mesh, 4, 0, 4), must(routing.NewMaze(mesh)), must(NewRuleMaze(mesh)), false, mazeWalk | routing.HopMazeEntry | routing.HopMazeStep},
		{"maze-torus", torus, faulted(torus, 0, 6, 1), must(routing.NewMaze(torus)), must(NewRuleMaze(torus)), false, mazeWalk},
		{"maze-irregular", irreg, faulted(irreg, 0, 4, 1), must(routing.NewMaze(irreg)), must(NewRuleMaze(irreg)), false, mazeWalk},
		{"torusdor", torus, fault.NewSet(), routing.NewTorusDOR(torus), nil, false, routing.SetDateline(1)},
		{"updown", irreg, faulted(irreg, 0, 2, 1), routing.NewUpDown(irreg), nil, false, routing.SetPhase(1)},
		{"ecube", cube, fault.NewSet(), routing.NewECube(cube), nil, false, 0},
		{"routec", cube, faulted(cube, 5, 6, 3), routing.NewRouteC(cube), must(NewRuleRouteC(cube)), false, routing.HopMisroute | routing.SetLevel(1) | routing.SetPhase(1)},
		{"routec-nft", cube, fault.NewSet(), routing.NewRouteCNFT(cube), nil, false, routing.SetPhase(1)},
	}
	for _, c := range cases {
		c.native.UpdateFaults(c.f)
		if c.rule != nil {
			c.rule.UpdateFaults(c.f)
		}
	}
	return cases
}

// TestHopWalk walks a message between every pair of healthy nodes of
// every family, hop by hop as the network does: RouteAppend, then
// routing.ApplyHop of a granted candidate. A message takes offer
// (src+dst) mod the offer's length at every hop, so some keep to the
// first candidate (a maze traversal runs its course) and others to
// later ones (the escape channel, ROUTE_C's other ports). A family's rule
// adapter walks the same message on its own header; its candidates,
// header updates included, must be the native's (one of them for
// NAFTA, whose conclusion picks one), and its header after every hop
// must equal the native's. The walks allocate nothing.
func TestHopWalk(t *testing.T) {
	for _, c := range hopWalkCases(t) {
		nodes := c.g.Nodes()
		maxHops := 4 * nodes
		nbuf := make([]routing.Candidate, 0, 16)
		rbuf := make([]routing.Candidate, 0, 16)
		// The headers outlive the closure, so taking their addresses
		// allocates nothing inside it.
		var nh, rh routing.Header
		hops, misroutes, seen := 0, 0, routing.HopOps(0)
		walkAll := func() {
			hops, misroutes, seen = 0, 0, 0
			for src := 0; src < nodes; src++ {
				for dst := 0; dst < nodes; dst++ {
					if src == dst || c.f.NodeFaulty(topology.NodeID(src)) || c.f.NodeFaulty(topology.NodeID(dst)) {
						continue
					}
					nh = routing.Header{Src: topology.NodeID(src), Dst: topology.NodeID(dst), Length: 4}
					rh = nh
					req := routing.Request{Node: nh.Src, InPort: routing.InjectionPort, Hdr: &nh}
					for k := 0; req.Node != nh.Dst && k < maxHops; k++ {
						nbuf = c.native.RouteAppend(req, nbuf[:0])
						granted := nbuf
						if c.rule != nil {
							rreq := req
							rreq.Hdr = &rh
							rbuf = c.rule.RouteAppend(rreq, rbuf[:0])
							granted = rbuf
							if c.picksOne && len(rbuf) != min(len(nbuf), 1) || !c.picksOne && !sameCands(nbuf, rbuf) {
								t.Fatalf("%s %d->%d at %d: native %v, rule %v", c.name, src, dst, req.Node, nbuf, rbuf)
							}
						}
						if len(granted) == 0 {
							break
						}
						chosen := granted[(src+dst)%len(granted)]
						seen |= chosen.Hop.Ops
						routing.ApplyHop(&nh, req.Node, chosen)
						if c.rule != nil {
							if !slices.Contains(nbuf, chosen) {
								t.Fatalf("%s %d->%d at %d: rule candidate %v not among the native's %v",
									c.name, src, dst, req.Node, chosen, nbuf)
							}
							routing.ApplyHop(&rh, req.Node, chosen)
							if nh != rh {
								t.Fatalf("%s %d->%d after the hop %v at %d: native header %+v, rule %+v",
									c.name, src, dst, chosen, req.Node, nh, rh)
							}
						}
						next := c.g.Neighbor(req.Node, chosen.Port)
						back, _ := c.g.PortTo(next, req.Node)
						req = routing.Request{Node: next, InPort: back, InVC: chosen.VC, Hdr: &nh}
						hops++
					}
					misroutes += nh.Misroutes
				}
			}
		}
		if allocs := testing.AllocsPerRun(1, walkAll); allocs != 0 {
			t.Errorf("%s: %.0f allocations over %d hops, want 0", c.name, allocs, hops)
		}
		if seen&c.covers != c.covers {
			t.Errorf("%s: the walks wrote %#x, never all of %#x", c.name, seen, c.covers)
		}
		t.Logf("%s: %d hops, %d misroutes, header writes %#x", c.name, hops, misroutes, seen)
	}
}
