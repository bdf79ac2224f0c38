package failover

import (
	"bytes"
	"fmt"
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

// --- bundles ---

func buildNAFTABundle(t *testing.T, m *topology.Mesh, kinds []string) (*reconfig.Artifact, *Bundle) {
	t.Helper()
	art, err := reconfig.Build("nafta", reconfig.BuildOptions{Epoch: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildBundle(art, m, kinds)
	if err != nil {
		t.Fatal(err)
	}
	return art, b
}

func buildRouteCBundle(t *testing.T, h *topology.Hypercube) (*reconfig.Artifact, *Bundle) {
	t.Helper()
	art, err := reconfig.Build("routec", reconfig.BuildOptions{CubeDim: h.Dim})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildBundle(art, h, []string{KindNode})
	if err != nil {
		t.Fatal(err)
	}
	return art, b
}

func TestBundleDeduplicatesOverlappingKinds(t *testing.T) {
	m := topology.NewMesh(6, 6)
	_, b := buildNAFTABundle(t, m, Kinds)
	// 60 links + 36 nodes + 25 chains, minus the 5 length-1 chains that
	// coincide with single west-border vertical links.
	if len(b.Backups) != 116 {
		t.Fatalf("116 deduped backups expected, got %d", len(b.Backups))
	}
	seen := map[string]bool{}
	for i := range b.Backups {
		c := b.Backups[i].Class()
		if key := c.Key(); seen[key] {
			t.Fatalf("duplicate class key %s survived dedup", key)
		} else {
			seen[key] = true
		}
	}
}

func TestBundleRoundTrip(t *testing.T) {
	m := topology.NewMesh(4, 4)
	_, b := buildNAFTABundle(t, m, []string{KindNode, KindChain})
	var buf bytes.Buffer
	if err := b.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.MeshW != 4 || got.MeshH != 4 || len(got.Backups) != len(b.Backups) {
		t.Fatalf("round-trip mismatch: %dx%d mesh, %d backups", got.MeshW, got.MeshH, len(got.Backups))
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	sumA, err := b.Checksum()
	if err != nil {
		t.Fatal(err)
	}
	sumB, err := got.Checksum()
	if err != nil {
		t.Fatal(err)
	}
	if sumA != sumB {
		t.Fatalf("checksum changed across round-trip: %s vs %s", sumA, sumB)
	}
	if s, err := got.Summary(); err != nil || !strings.Contains(s, "backup classes") {
		t.Fatalf("summary: %v\n%s", err, s)
	}
}

func TestBundleCorruptionDetected(t *testing.T) {
	m := topology.NewMesh(4, 4)
	_, b := buildNAFTABundle(t, m, []string{KindNode})
	var buf bytes.Buffer
	if err := b.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0x40
	if _, err := DecodeBundle(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupted bundle decoded cleanly")
	}
	if _, err := DecodeBundle(bytes.NewReader(data[:16])); err == nil {
		t.Fatal("truncated bundle decoded cleanly")
	}
}

func TestDecodeAnySniffsBothFormats(t *testing.T) {
	m := topology.NewMesh(4, 4)
	art, b := buildNAFTABundle(t, m, []string{KindNode})

	var bundleBuf bytes.Buffer
	if err := b.Encode(&bundleBuf); err != nil {
		t.Fatal(err)
	}
	gotArt, gotBundle, err := DecodeAny(bundleBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if gotBundle == nil || gotArt == nil || gotArt.Algorithm != "nafta" {
		t.Fatalf("bundle sniff failed: art=%v bundle=%v", gotArt, gotBundle)
	}

	var artBuf bytes.Buffer
	if err := art.Encode(&artBuf); err != nil {
		t.Fatal(err)
	}
	gotArt, gotBundle, err = DecodeAny(artBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if gotBundle != nil || gotArt == nil || gotArt.Algorithm != "nafta" {
		t.Fatalf("artifact sniff failed: art=%v bundle=%v", gotArt, gotBundle)
	}

	if _, _, err := DecodeAny([]byte("garbage that is neither")); err == nil {
		t.Fatal("garbage decoded cleanly")
	}
}

func TestBundleTopologyMismatchRefused(t *testing.T) {
	art, err := reconfig.Build("nafta", reconfig.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildBundle(art, topology.NewHypercube(4), []string{KindNode}); err == nil {
		t.Fatal("nafta artifact bundled against a hypercube")
	}
	cube, err := reconfig.Build("routec", reconfig.BuildOptions{CubeDim: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildBundle(cube, topology.NewHypercube(5), []string{KindNode}); err == nil {
		t.Fatal("4-cube artifact bundled against a 5-cube")
	}
	// A plane refuses a bundle enumerated on a different topology size.
	m := topology.NewMesh(4, 4)
	b, err := BuildBundle(art, m, []string{KindNode})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := reconfig.NewEngine(art, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlane(b, topology.NewMesh(6, 6), reconfig.NewSwapper(eng), PlaneOptions{}); err == nil {
		t.Fatal("4x4 bundle accepted on a 6x6 plane")
	}
	// Two irregular graphs of the same size and extra-link count share
	// a name; a bundle with a backup for link 0-1 of seed 1 must not
	// load onto seed 3, where that link does not exist.
	irr1, err := topology.RandomIrregular(16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	irr3, err := topology.RandomIrregular(16, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := irr1.PortTo(0, 1); !ok {
		t.Fatal("seed 1 lost link 0-1: pick another link")
	}
	if _, ok := irr3.PortTo(0, 1); ok || irr1.Name() != irr3.Name() {
		t.Fatalf("seeds 1 and 3 no longer differ only in wiring (%s, %s)", irr1.Name(), irr3.Name())
	}
	maze, err := reconfig.Build("maze", reconfig.BuildOptions{Ports: irr1.Ports()})
	if err != nil {
		t.Fatal(err)
	}
	mb := &Bundle{FormatVersion: BundleFormatVersion, Primary: *maze,
		IrrNodes: 16, IrrExtra: 4, IrrSeed: 1,
		Backups: []Backup{{Kind: KindLink, Links: [][2]int{{0, 1}}}}}
	for _, c := range []struct {
		seed   int
		g      *topology.Irregular
		accept bool
	}{{1, irr1, true}, {3, irr3, false}} {
		meng, err := reconfig.NewEngine(maze, c.g)
		if err != nil {
			t.Fatal(err)
		}
		_, err = NewPlane(mb, c.g, reconfig.NewSwapper(meng), PlaneOptions{})
		if (err == nil) != c.accept {
			t.Fatalf("maze bundle of seed 1 on seed %d: err %v", c.seed, err)
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
// the CI gate runs: for EVERY covered class, flipping the precompiled
// backup engine in through the epoch swapper must yield decisions
// identical to a from-scratch live recompute of the same fault set.
func TestFailoverFlipMatchesRecompute(t *testing.T) {
	type family struct {
		name  string
		g     topology.Graph
		art   *reconfig.Artifact
		b     *Bundle
		kinds []string
	}
	var fams []family

	m := topology.NewMesh(5, 4)
	artM, bM := buildNAFTABundle(t, m, Kinds)
	fams = append(fams, family{"nafta/mesh5x4", m, artM, bM, Kinds})

	h := topology.NewHypercube(4)
	artC, bC := buildRouteCBundle(t, h)
	fams = append(fams, family{"routec/cube4", h, artC, bC, []string{KindNode}})

	for _, fam := range fams {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			// One builder amortises program analysis for the per-class
			// reference engines and the swapper's initial engine.
			eb, err := reconfig.NewEngineBuilder(fam.art, fam.g)
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
			plane, err := NewPlane(fam.b, fam.g, sw, PlaneOptions{})
			if err != nil {
				t.Fatal(err)
			}
			classes := plane.Classes()
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
	art, b := buildNAFTABundle(t, m, []string{KindNode})
	eng, err := reconfig.NewEngine(art, m)
	if err != nil {
		t.Fatal(err)
	}
	sw := reconfig.NewSwapper(eng)
	// Filter the plane down to node 5 only.
	plane, err := NewPlane(b, m, sw, PlaneOptions{Filter: func(c Class) bool {
		return len(c.Nodes) == 1 && c.Nodes[0] == 5
	}})
	if err != nil {
		t.Fatal(err)
	}
	if plane.CoveredClasses() != 1 {
		t.Fatalf("filter kept %d classes", plane.CoveredClasses())
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
	art, b := buildNAFTABundle(t, m, []string{KindNode})
	svc, err := reconfig.NewService(art, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	plane, err := NewPlane(b, m, svc, PlaneOptions{
		Filter: func(c Class) bool { return len(c.Nodes) == 1 && c.Nodes[0] <= 3 },
	})
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

func TestBackupClassRoundTrip(t *testing.T) {
	c := Class{Kind: KindChain, Links: []topology.Link{
		topology.MakeLink(1, 5), topology.MakeLink(2, 6),
	}}
	bk := Backup{Kind: c.Kind, Links: [][2]int{{1, 5}, {2, 6}}}
	if got := bk.Class(); got.Key() != c.Key() {
		t.Fatalf("backup class key %s, want %s", got.Key(), c.Key())
	}
	if want := fmt.Sprintf("%s:%s", KindChain, c.Key()); c.String() != want {
		t.Fatalf("String = %q, want %q", c.String(), want)
	}
}
