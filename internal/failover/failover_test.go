package failover

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/topology"
)

// --- fault classes ---

func TestEnumerateMeshCounts(t *testing.T) {
	m := topology.NewMesh(6, 6)
	classes, err := Enumerate(m, Kinds)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := range classes {
		counts[classes[i].Kind]++
	}
	// 2*6*5 links, 36 nodes, (H-1)*(W-1) Figure-2 chains.
	if counts[KindLink] != 60 || counts[KindNode] != 36 || counts[KindChain] != 25 {
		t.Fatalf("class counts: %v", counts)
	}
}

func TestEnumerateDeterministic(t *testing.T) {
	m := topology.NewMesh(5, 4)
	a, err := Enumerate(m, Kinds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Enumerate(m, Kinds)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("enumeration size unstable: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatalf("class %d unstable: %s vs %s", i, a[i].Key(), b[i].Key())
		}
	}
}

func TestEnumerateHypercubeGuardrails(t *testing.T) {
	h := topology.NewHypercube(4)
	classes, err := Enumerate(h, []string{KindNode})
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 16 {
		t.Fatalf("16 node classes expected on a 4-cube, got %d", len(classes))
	}
	if _, err := Enumerate(h, []string{KindLink}); err == nil {
		t.Fatal("link classes on a hypercube must be refused")
	}
	if _, err := Enumerate(h, []string{KindChain}); err == nil {
		t.Fatal("chain classes on a hypercube must be refused")
	}
}

func TestEnumerateUnknownKindListsChoices(t *testing.T) {
	_, err := Enumerate(topology.NewMesh(4, 4), []string{"bogus"})
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	for _, k := range Kinds {
		if !strings.Contains(err.Error(), k) {
			t.Fatalf("error %q does not list valid kind %q", err, k)
		}
	}
}

func TestKeyOfCanonical(t *testing.T) {
	f := fault.NewSet()
	f.FailNode(7)
	f.FailNode(3)
	f.FailLink(8, 7)
	f.FailLink(2, 3)
	if got, want := KeyOf(f), "n3,n7|l2-3,l7-8"; got != want {
		t.Fatalf("KeyOf = %q, want %q", got, want)
	}
	// Insertion order must not matter.
	g := fault.NewSet()
	g.FailLink(2, 3)
	g.FailNode(3)
	g.FailLink(7, 8)
	g.FailNode(7)
	if KeyOf(f) != KeyOf(g) {
		t.Fatalf("key depends on insertion order: %q vs %q", KeyOf(f), KeyOf(g))
	}
}

// --- plane construction ---

// buildArt compiles the builtin program of algo for topology g.
func buildArt(t *testing.T, algo string, g topology.Graph) *reconfig.Artifact {
	t.Helper()
	opts := reconfig.BuildOptions{Epoch: 3}
	if h, ok := g.(*topology.Hypercube); ok {
		opts.CubeDim = h.Dim
	}
	if algo == "maze" {
		opts.Ports = g.Ports()
	}
	art, err := reconfig.Build(algo, opts)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// enumerate is Enumerate that fails the test on error.
func enumerate(t *testing.T, g topology.Graph, kinds []string) []Class {
	t.Helper()
	classes, err := Enumerate(g, kinds)
	if err != nil {
		t.Fatal(err)
	}
	return classes
}

// newSwapperPlane builds a plane for art on g over a fresh one-lane
// swapper.
func newSwapperPlane(t *testing.T, art *reconfig.Artifact, g topology.Graph, classes []Class) (*Plane, *reconfig.Swapper) {
	t.Helper()
	eng, err := reconfig.NewEngine(art, g)
	if err != nil {
		t.Fatal(err)
	}
	sw := reconfig.NewSwapper(eng)
	plane, err := NewPlane(art, g, classes, sw)
	if err != nil {
		t.Fatal(err)
	}
	return plane, sw
}

func TestPlaneDeduplicatesOverlappingKinds(t *testing.T) {
	m := topology.NewMesh(6, 6)
	plane, _ := newSwapperPlane(t, buildArt(t, "nafta", m), m, enumerate(t, m, Kinds))
	// 60 links + 36 nodes + 25 chains, minus the 5 length-1 chains that
	// coincide with single west-border vertical links.
	if got := plane.CoveredClasses(); got != 116 {
		t.Fatalf("116 deduped classes expected, got %d", got)
	}
	seen := map[string]bool{}
	for _, c := range plane.Classes() {
		if key := c.Key(); seen[key] {
			t.Fatalf("duplicate class key %s survived dedup", key)
		} else {
			seen[key] = true
		}
	}
}

// --- the plane: flip-vs-recompute decision equivalence ---

// sampleRequests compares two engines' decisions over every node as
// injection source toward a spread of destinations, plus transit
// requests from every mesh/cube port. Candidate slices must match
// exactly: same fault state, same tables, same program — any
// divergence means the precompiled backup is NOT equivalent to a live
// recompute.
func requireSameDecisions(t *testing.T, label string, g topology.Graph, a, bEng routing.Algorithm) {
	t.Helper()
	nodes := g.Nodes()
	dsts := []int{0, nodes - 1, nodes / 2, nodes / 3}
	var bufA, bufB []routing.Candidate
	for n := 0; n < nodes; n++ {
		for _, d := range dsts {
			if n == d {
				continue
			}
			for inPort := -1; inPort < g.Ports(); inPort++ {
				hdrA := routing.Header{Src: topology.NodeID(n), Dst: topology.NodeID(d), Length: 4}
				hdrB := hdrA
				reqA := routing.Request{Node: topology.NodeID(n), InPort: inPort, InVC: 0, Hdr: &hdrA}
				reqB := reqA
				reqB.Hdr = &hdrB
				bufA = a.RouteAppend(reqA, bufA[:0])
				bufB = bEng.RouteAppend(reqB, bufB[:0])
				if len(bufA) != len(bufB) {
					t.Fatalf("%s: node %d dst %d in %d: flip gives %v, recompute gives %v",
						label, n, d, inPort, bufA, bufB)
				}
				for i := range bufA {
					if bufA[i] != bufB[i] {
						t.Fatalf("%s: node %d dst %d in %d: candidate %d diverges: flip %v, recompute %v",
							label, n, d, inPort, i, bufA[i], bufB[i])
					}
				}
			}
		}
	}
}

// TestFailoverFlipMatchesRecompute is the per-class equivalence sweep
// the CI gate runs: for EVERY enumerated class, flipping the
// precompiled backup engine in through the epoch swapper must yield
// decisions identical to a from-scratch live recompute of the same
// fault set.
func TestFailoverFlipMatchesRecompute(t *testing.T) {
	m := topology.NewMesh(5, 4)
	h := topology.NewHypercube(4)
	fams := []struct {
		name  string
		algo  string
		g     topology.Graph
		kinds []string
	}{
		{"nafta/mesh5x4", "nafta", m, Kinds},
		{"routec/cube4", "routec", h, []string{KindNode}},
		{"maze/mesh5x4", "maze", m, []string{KindNode}},
	}
	for _, fam := range fams {
		t.Run(fam.name, func(t *testing.T) {
			art := buildArt(t, fam.algo, fam.g)
			classes := enumerate(t, fam.g, fam.kinds)
			// One builder amortises program analysis for the per-class
			// reference engines and the swapper's initial engine.
			eb, err := reconfig.NewEngineBuilder(art, fam.g)
			if err != nil {
				t.Fatal(err)
			}
			initial, err := eb.Build()
			if err != nil {
				t.Fatal(err)
			}
			// One swapper takes every class's flip in turn: each flip
			// retires the previous class's engine (tables invalidated),
			// which is never consulted again.
			sw := reconfig.NewSwapper(initial)
			plane, err := NewPlane(art, fam.g, classes, sw)
			if err != nil {
				t.Fatal(err)
			}
			classes = plane.Classes() // deduplicated
			if len(classes) == 0 {
				t.Fatal("plane covers nothing")
			}
			for _, c := range classes {
				set := c.Set()
				if !plane.Covered(set) {
					t.Fatalf("class %s not covered by its own plane", c.String())
				}
				if !plane.OnFault(set) {
					t.Fatalf("class %s did not flip", c.String())
				}
				ref, err := eb.Build()
				if err != nil {
					t.Fatal(err)
				}
				ref.UpdateFaults(set)
				requireSameDecisions(t, fam.name+"/"+c.String(), fam.g, sw.Current(), ref)
			}
			if got := plane.Flips(); got != int64(len(classes)) {
				t.Fatalf("%d flips for %d classes", got, len(classes))
			}
			if got := plane.Recomputes(); got != 0 {
				t.Fatalf("%d unexpected recomputes", got)
			}
			pm := plane.Metrics()
			if pm.ConsumedClasses != len(classes) || pm.CoveredClasses != len(classes) {
				t.Fatalf("metrics: %+v", pm)
			}
		})
	}
}

func TestPlaneFallbackPaths(t *testing.T) {
	m := topology.NewMesh(4, 4)
	// A plane covering node 5 only.
	plane, _ := newSwapperPlane(t, buildArt(t, "nafta", m), m,
		[]Class{{Kind: KindNode, Nodes: []topology.NodeID{5}}})
	if plane.CoveredClasses() != 1 {
		t.Fatalf("plane covers %d classes", plane.CoveredClasses())
	}

	// Empty set: recompute path, uncounted.
	if plane.OnFault(fault.NewSet()) {
		t.Fatal("empty fault set flipped")
	}
	if plane.Flips() != 0 || plane.Recomputes() != 0 {
		t.Fatalf("empty set counted: flips=%d recomputes=%d", plane.Flips(), plane.Recomputes())
	}

	// Uncovered class: measured recompute.
	un := fault.NewSet()
	un.FailNode(1)
	un.FailNode(2)
	if plane.OnFault(un) {
		t.Fatal("uncovered class flipped")
	}
	if plane.Recomputes() != 1 {
		t.Fatalf("recomputes = %d", plane.Recomputes())
	}

	// Covered class: flip once...
	cov := fault.NewSet()
	cov.FailNode(5)
	if !plane.OnFault(cov) {
		t.Fatal("covered class did not flip")
	}
	// ...then the consumed backup is never re-installed (its engine
	// instance is stateful); a second occurrence recomputes.
	if plane.OnFault(cov) {
		t.Fatal("consumed backup flipped twice")
	}
	if plane.Flips() != 1 || plane.Recomputes() != 2 {
		t.Fatalf("flips=%d recomputes=%d", plane.Flips(), plane.Recomputes())
	}
	pm := plane.Metrics()
	if pm.Flips != 1 || pm.Recomputes != 2 || pm.ConsumedClasses != 1 {
		t.Fatalf("metrics: %+v", pm)
	}
}

func TestPlaneWithServiceInstaller(t *testing.T) {
	m := topology.NewMesh(4, 4)
	art := buildArt(t, "nafta", m)
	svc, err := reconfig.NewService(art, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	plane, err := NewPlane(art, m, enumerate(t, m, []string{KindNode})[:4], svc)
	if err != nil {
		t.Fatal(err)
	}

	before := svc.Epoch()
	f := fault.NewSet()
	f.FailNode(2)
	if !plane.OnFault(f) {
		t.Fatal("covered class did not flip into the service")
	}
	if svc.Epoch() != before+1 {
		t.Fatalf("epoch %d after flip, want %d", svc.Epoch(), before+1)
	}
	// Decisions at the failed node's neighbours must avoid node 2 now.
	var buf []routing.Candidate
	req := reconfig.DecisionRequest{Node: 1, InPort: routing.InjectionPort, InVC: 0, Src: 1, Dst: 3, Length: 4}
	cands, _, err := svc.Decide(&req, buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if m.Neighbor(1, c.Port) == 2 {
			t.Fatalf("decision still routes into failed node 2: %v", cands)
		}
	}
	// Uncovered fall-back recomputes on the service's live engines.
	un := fault.NewSet()
	un.FailNode(2)
	un.FailNode(9)
	if plane.OnFault(un) {
		t.Fatal("uncovered class flipped")
	}
	if plane.Recomputes() != 1 {
		t.Fatalf("recomputes = %d", plane.Recomputes())
	}
}
