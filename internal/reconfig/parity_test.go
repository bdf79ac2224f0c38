package reconfig

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/rulesets"
	"repro/internal/topology"
)

// TestWrappersAnswerLikeTheirNative holds every wrapper of a native
// algorithm — the rule adapters, a Swapper over each rule adapter and a
// Swapper over each native — to the native's answers on the part of the
// contract the wrappers do not decide themselves: the deadlock regime,
// the credit gate, the reconfiguration flush, the unreachable verdict
// and the block view. It asks before and after a fault event that cuts
// node 0 off from the rest of the graph and, on the meshes, deactivates
// healthy nodes.
func TestWrappersAnswerLikeTheirNative(t *testing.T) {
	mesh, torus, cube := topology.NewMesh(6, 6), topology.NewTorus(5, 5), topology.NewHypercube(4)
	irreg, err := topology.RandomIrregular(14, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	must := func(a routing.Algorithm, err error) routing.Algorithm {
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	type pair struct {
		name    string
		g       topology.Graph
		native  func() routing.Algorithm
		adapter func() routing.Algorithm // nil: the native has no rule adapter
	}
	pairs := []pair{
		{"nafta", mesh, func() routing.Algorithm { return routing.NewNAFTA(mesh) },
			func() routing.Algorithm { return must(rulesets.NewRuleNAFTA(mesh)) }},
		{"routec", cube, func() routing.Algorithm { return routing.NewRouteC(cube) },
			func() routing.Algorithm { return must(rulesets.NewRuleRouteC(cube)) }},
		{"nara", mesh, func() routing.Algorithm { return routing.NewNARA(mesh) }, nil},
	}
	for _, g := range []topology.Graph{mesh, torus, irreg} {
		pairs = append(pairs, pair{"maze/" + g.Name(), g,
			func() routing.Algorithm { return must(routing.NewMaze(g)) },
			func() routing.Algorithm { return must(rulesets.NewRuleMaze(g)) }})
	}

	type row struct {
		name    string
		g       topology.Graph
		native  routing.Algorithm
		wrapper routing.Algorithm
	}
	var rows []row
	for _, p := range pairs {
		if p.adapter != nil {
			rows = append(rows,
				row{"rule-" + p.name, p.g, p.native(), p.adapter()},
				row{"swapper/rule-" + p.name, p.g, p.native(), NewSwapper(p.adapter())})
		}
		rows = append(rows, row{"swapper/" + p.name, p.g, p.native(), NewSwapper(p.native())})
	}

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			f := fault.NewSet()
			for p := 0; p < r.g.Ports(); p++ {
				if nb := r.g.Neighbor(0, p); nb != topology.Invalid {
					f.FailNode(nb)
				}
			}
			if m, ok := r.g.(*topology.Mesh); ok {
				f.FailNode(m.Node(3, 3))
				f.FailNode(m.Node(4, 4))
			}
			for _, phase := range []string{"fault-free", "after the fault event"} {
				if phase != "fault-free" {
					r.native.UpdateFaults(f)
					r.wrapper.UpdateFaults(f)
				}
				verdicts, disabled := compareAnswers(t, phase, r.g, r.native, r.wrapper)
				if phase == "fault-free" {
					continue
				}
				// The event must exercise what the native has: maze certifies
				// the cut-off pairs, NAFTA deactivates nodes.
				if r.native.Name() == "maze" && verdicts == 0 {
					t.Fatalf("%s: no pair certified unreachable, the verdict went untested", phase)
				}
				if r.native.Name() == "nafta" && disabled == 0 {
					t.Fatalf("%s: no node deactivated, the block view went untested", phase)
				}
			}
		})
	}
}

// compareAnswers fails t at the first answer of wrapper that differs
// from native's, and returns how many pairs the native certified
// unreachable and how many nodes its block view disables.
func compareAnswers(t *testing.T, phase string, g topology.Graph, native, wrapper routing.Algorithm) (verdicts, disabled int) {
	t.Helper()
	if a, b := native.DeadlockRegime(), wrapper.DeadlockRegime(); a != b {
		t.Fatalf("%s: DeadlockRegime %q, native %q", phase, b, a)
	}
	if a, b := native.AllocNeedsCredit(), wrapper.AllocNeedsCredit(); a != b {
		t.Fatalf("%s: AllocNeedsCredit %v, native %v", phase, b, a)
	}
	for mode := routing.MazeModeNormal; mode <= routing.MazeModeEscape; mode++ {
		h := routing.Header{MazeMode: mode, Marked: mode != routing.MazeModeNormal}
		if a, b := native.FlushOnFault(&h), wrapper.FlushOnFault(&h); a != b {
			t.Fatalf("%s: FlushOnFault(maze mode %d) %v, native %v", phase, mode, b, a)
		}
	}
	nb, wb := native.Blocks(), wrapper.Blocks()
	if (nb == nil) != (wb == nil) {
		t.Fatalf("%s: Blocks nil %v, native nil %v", phase, wb == nil, nb == nil)
	}
	for n := 0; n < g.Nodes(); n++ {
		node := topology.NodeID(n)
		if nb != nil {
			if a, b := nb.DisabledNode(node), wb.DisabledNode(node); a != b {
				t.Fatalf("%s: node %d disabled %v, native %v", phase, n, b, a)
			} else if a {
				disabled++
			}
		}
		for d := 0; d < g.Nodes(); d++ {
			hdr := routing.Header{Src: node, Dst: topology.NodeID(d), Length: 4}
			req := routing.Request{Node: node, InPort: routing.InjectionPort, Hdr: &hdr}
			a, b := native.UnreachableVerdict(req), wrapper.UnreachableVerdict(req)
			if a != b {
				t.Fatalf("%s: UnreachableVerdict %d->%d %v, native %v", phase, n, d, b, a)
			}
			if a {
				verdicts++
			}
		}
	}
	return verdicts, disabled
}
