package routing

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/topology"
)

// walk drives a single message from src to dst through alg, applying
// RouteAppend and ApplyHop exactly like the simulator does (but without
// contention). It returns whether the message arrived, the hop count,
// and the final header.
func walk(t *testing.T, g topology.Graph, alg Algorithm, src, dst topology.NodeID, maxHops int) (bool, int, *Header) {
	t.Helper()
	hdr := &Header{Src: src, Dst: dst, Length: 4}
	req := Request{Node: src, InPort: InjectionPort, InVC: 0, Hdr: hdr}
	hops := 0
	for req.Node != dst {
		cands := alg.RouteAppend(req, nil)
		if len(cands) == 0 {
			return false, hops, hdr
		}
		chosen := cands[0]
		ApplyHop(req.Hdr, req.Node, chosen)
		next := g.Neighbor(req.Node, chosen.Port)
		if next == topology.Invalid {
			t.Fatalf("%s routed into a border at node %d port %d", alg.Name(), req.Node, chosen.Port)
		}
		back, _ := g.PortTo(next, req.Node)
		req = Request{Node: next, InPort: back, InVC: chosen.VC, Hdr: hdr}
		hops++
		if hops > maxHops {
			t.Fatalf("%s: message %d->%d exceeded %d hops", alg.Name(), src, dst, maxHops)
		}
	}
	return true, hops, hdr
}

func TestXYAllPairsMinimal(t *testing.T) {
	m := topology.NewMesh(5, 4)
	alg := NewXY(m)
	for s := 0; s < m.Nodes(); s++ {
		for d := 0; d < m.Nodes(); d++ {
			if s == d {
				continue
			}
			ok, hops, _ := walk(t, m, alg, topology.NodeID(s), topology.NodeID(d), 100)
			if !ok {
				t.Fatalf("xy failed %d->%d", s, d)
			}
			if want := m.Dist(topology.NodeID(s), topology.NodeID(d)); hops != want {
				t.Fatalf("xy %d->%d took %d hops, want %d", s, d, hops, want)
			}
		}
	}
}

func TestXYDropsOnFault(t *testing.T) {
	m := topology.NewMesh(4, 4)
	alg := NewXY(m)
	f := fault.NewSet()
	f.FailLink(m.Node(1, 0), m.Node(2, 0)) // on the X-first path (0,0)->(3,0)
	alg.UpdateFaults(f)
	ok, _, _ := walk(t, m, alg, m.Node(0, 0), m.Node(3, 0), 100)
	if ok {
		t.Fatal("xy should be unable to route around a fault on its fixed path")
	}
	// Other pairs unaffected.
	ok, _, _ = walk(t, m, alg, m.Node(0, 1), m.Node(3, 1), 100)
	if !ok {
		t.Fatal("xy should deliver on an intact row")
	}
}

func TestECubeAllPairsMinimal(t *testing.T) {
	h := topology.NewHypercube(4)
	alg := NewECube(h)
	for s := 0; s < h.Nodes(); s++ {
		for d := 0; d < h.Nodes(); d++ {
			if s == d {
				continue
			}
			ok, hops, _ := walk(t, h, alg, topology.NodeID(s), topology.NodeID(d), 40)
			if !ok || hops != h.Dist(topology.NodeID(s), topology.NodeID(d)) {
				t.Fatalf("ecube %d->%d: ok=%v hops=%d", s, d, ok, hops)
			}
		}
	}
}

func TestTreeDeliversUnderFaults(t *testing.T) {
	m := topology.NewMesh(6, 6)
	alg := NewTree(m)
	f, err := fault.Random(m, fault.RandomOptions{Nodes: 6, Links: 4, Seed: 3, KeepConnected: true})
	if err != nil {
		t.Fatal(err)
	}
	alg.UpdateFaults(f)
	filter := f.Filter()
	pairs := 0
	for s := 0; s < m.Nodes(); s++ {
		for d := 0; d < m.Nodes(); d++ {
			if s == d || f.NodeFaulty(topology.NodeID(s)) || f.NodeFaulty(topology.NodeID(d)) {
				continue
			}
			if !topology.Reachable(m, topology.NodeID(s), topology.NodeID(d), filter) {
				continue
			}
			ok, _, _ := walk(t, m, alg, topology.NodeID(s), topology.NodeID(d), 4*m.Nodes())
			if !ok {
				t.Fatalf("tree failed reachable pair %d->%d", s, d)
			}
			pairs++
		}
	}
	if pairs == 0 {
		t.Fatal("no pairs tested")
	}
	if alg.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d, want 1", alg.Rebuilds)
	}
}

func TestTreePathsAreLongerThanMinimal(t *testing.T) {
	m := topology.NewMesh(8, 8)
	alg := NewTree(m)
	longer := 0
	total := 0
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		s := topology.NodeID(rng.Intn(m.Nodes()))
		d := topology.NodeID(rng.Intn(m.Nodes()))
		if s == d {
			continue
		}
		ok, hops, _ := walk(t, m, alg, s, d, 4*m.Nodes())
		if !ok {
			t.Fatalf("tree failed %d->%d in fault-free mesh", s, d)
		}
		total++
		if hops > m.Dist(s, d) {
			longer++
		}
	}
	// The paper's point: tree routing almost never uses minimal paths.
	if longer*2 < total {
		t.Fatalf("expected most tree paths non-minimal, got %d/%d", longer, total)
	}
}

func TestNARAFullyAdaptiveMinimal(t *testing.T) {
	m := topology.NewMesh(6, 6)
	alg := NewNARA(m)
	// Condition 1: at every intermediate node all minimal ports are
	// offered.
	hdr := &Header{Src: m.Node(0, 0), Dst: m.Node(4, 3), Length: 4}
	req := Request{Node: m.Node(1, 1), InPort: topology.West, InVC: VNSouthLast, Hdr: hdr}
	hdr.VNet = VNSouthLast
	cands := alg.RouteAppend(req, nil)
	if len(cands) != 2 {
		t.Fatalf("NARA should offer both minimal ports, got %v", cands)
	}
	for _, c := range cands {
		if c.VC != VNSouthLast {
			t.Fatalf("north-bound message must stay in south-last network, got %v", c)
		}
		if c.Port != topology.North && c.Port != topology.East {
			t.Fatalf("unexpected port %d", c.Port)
		}
	}
}

func TestNARAVNetAssignment(t *testing.T) {
	m := topology.NewMesh(4, 4)
	alg := NewNARA(m)
	// North-bound message gets south-last; south-bound north-last.
	hdrN := &Header{Src: m.Node(0, 0), Dst: m.Node(0, 3), Length: 4}
	cands := alg.RouteAppend(Request{Node: hdrN.Src, InPort: InjectionPort, Hdr: hdrN}, nil)
	if len(cands) != 1 || cands[0].VC != VNSouthLast {
		t.Fatalf("north-bound injection: %v", cands)
	}
	hdrN.VNet = VNNorthLast
	ApplyHop(hdrN, hdrN.Src, cands[0])
	if hdrN.VNet != VNSouthLast {
		t.Fatal("the first hop should latch the VNet")
	}
	hdrS := &Header{Src: m.Node(0, 3), Dst: m.Node(0, 0), Length: 4}
	cands = alg.RouteAppend(Request{Node: hdrS.Src, InPort: InjectionPort, Hdr: hdrS}, nil)
	if len(cands) != 1 || cands[0].VC != VNNorthLast {
		t.Fatalf("south-bound injection: %v", cands)
	}
}

func TestNARAAllPairsWalk(t *testing.T) {
	m := topology.NewMesh(5, 5)
	alg := NewNARA(m)
	for s := 0; s < m.Nodes(); s++ {
		for d := 0; d < m.Nodes(); d++ {
			if s == d {
				continue
			}
			ok, hops, _ := walk(t, m, alg, topology.NodeID(s), topology.NodeID(d), 100)
			if !ok || hops != m.Dist(topology.NodeID(s), topology.NodeID(d)) {
				t.Fatalf("nara %d->%d: ok=%v hops=%d", s, d, ok, hops)
			}
		}
	}
}

func TestNAFTAEqualsNARAWithoutFaults(t *testing.T) {
	m := topology.NewMesh(6, 5)
	nafta := NewNAFTA(m)
	nara := NewNARA(m)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		s := topology.NodeID(rng.Intn(m.Nodes()))
		d := topology.NodeID(rng.Intn(m.Nodes()))
		if s == d {
			continue
		}
		hdr := &Header{Src: s, Dst: d, Length: 4}
		req := Request{Node: s, InPort: InjectionPort, Hdr: hdr}
		a := nafta.RouteAppend(req, nil)
		b := nara.RouteAppend(req, nil)
		if len(a) != len(b) {
			t.Fatalf("fault-free NAFTA and NARA disagree for %d->%d: %v vs %v", s, d, a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("candidate %d differs: %v vs %v", j, a[j], b[j])
			}
		}
		if nafta.Steps(req) != 1 {
			t.Fatal("fault-free NAFTA must take one interpretation step")
		}
	}
}

func TestNAFTAWalksAroundBlock(t *testing.T) {
	m := topology.NewMesh(8, 8)
	alg := NewNAFTA(m)
	// A 2x2 fault block in the middle.
	f := fault.NewSet()
	f.FailNode(m.Node(3, 3))
	f.FailNode(m.Node(4, 3))
	f.FailNode(m.Node(3, 4))
	f.FailNode(m.Node(4, 4))
	alg.UpdateFaults(f)
	// Straight-through pair: (3,0) -> (3,7) must detour around the
	// block.
	ok, hops, hdr := walk(t, m, alg, m.Node(3, 0), m.Node(3, 7), 100)
	if !ok {
		t.Fatal("NAFTA failed to route around the block")
	}
	if hops <= m.Dist(m.Node(3, 0), m.Node(3, 7)) {
		t.Fatalf("detour should be non-minimal, got %d hops", hops)
	}
	if !hdr.Marked || hdr.Misroutes == 0 {
		t.Fatalf("detoured message must be marked: %+v", hdr)
	}
}

func TestNAFTADeliveryUnderRandomFaults(t *testing.T) {
	m := topology.NewMesh(8, 8)
	for seed := int64(0); seed < 8; seed++ {
		f, err := fault.Random(m, fault.RandomOptions{Nodes: 4, Seed: seed, KeepConnected: true})
		if err != nil {
			t.Fatal(err)
		}
		alg := NewNAFTA(m)
		alg.UpdateFaults(f)
		blocks := alg.Blocks()
		delivered, eligible := 0, 0
		for s := 0; s < m.Nodes(); s++ {
			for d := 0; d < m.Nodes(); d++ {
				if s == d || blocks.DisabledNode(topology.NodeID(s)) || blocks.DisabledNode(topology.NodeID(d)) {
					continue
				}
				eligible++
				ok, _, _ := walk(t, m, alg, topology.NodeID(s), topology.NodeID(d), 200)
				if ok {
					delivered++
				}
			}
		}
		if eligible == 0 {
			t.Fatal("no eligible pairs")
		}
		// The convex-completion approximation may sacrifice a few
		// awkward pairs, but the vast majority must be delivered.
		if float64(delivered) < 0.99*float64(eligible) {
			t.Fatalf("seed %d: delivered %d of %d eligible pairs", seed, delivered, eligible)
		}
	}
}

func TestNAFTAStepsUnderFaults(t *testing.T) {
	m := topology.NewMesh(6, 6)
	alg := NewNAFTA(m)
	f := fault.NewSet()
	f.FailNode(m.Node(3, 3))
	alg.UpdateFaults(f)
	// A message whose minimal set survives: two steps.
	hdr := &Header{Src: m.Node(0, 0), Dst: m.Node(5, 5), Length: 4}
	req := Request{Node: m.Node(0, 0), InPort: InjectionPort, Hdr: hdr}
	if got := alg.Steps(req); got != 2 {
		t.Fatalf("Steps with surviving minimal set = %d, want 2", got)
	}
	// A message forced onto the exception path: three steps.
	hdr2 := &Header{Src: m.Node(3, 2), Dst: m.Node(3, 4), Length: 4, VNet: VNSouthLast}
	req2 := Request{Node: m.Node(3, 2), InPort: InjectionPort, Hdr: hdr2}
	if got := alg.Steps(req2); got != 3 {
		t.Fatalf("Steps on exception path = %d, want 3", got)
	}
}

func TestNAFTAMisrouteBudget(t *testing.T) {
	m := topology.NewMesh(6, 6)
	alg := NewNAFTA(m)
	alg.MaxMisroutes = 1
	f := fault.NewSet()
	// Wall of node faults across most of the mesh at y=3.
	for x := 0; x < 5; x++ {
		f.FailNode(m.Node(x, 3))
	}
	alg.UpdateFaults(f)
	hdr := &Header{Src: m.Node(0, 0), Dst: m.Node(0, 5), Length: 4, Misroutes: 1}
	req := Request{Node: m.Node(0, 2), InPort: topology.South, InVC: VNSouthLast, Hdr: hdr}
	hdr.VNet = VNSouthLast
	// Budget exhausted and minimal set blocked: unroutable.
	if cands := alg.RouteAppend(req, nil); len(cands) != 0 {
		t.Fatalf("expected unroutable with exhausted budget, got %v", cands)
	}
}

func TestRouteCStates(t *testing.T) {
	h := topology.NewHypercube(4)
	alg := NewRouteC(h)
	for _, s := range alg.States() {
		if s != StateSafe {
			t.Fatal("fault-free network must be all safe")
		}
	}
	// Node 0 with two faulty neighbours becomes strongly unsafe.
	f := fault.NewSet()
	f.FailNode(h.Neighbor(0, 0))
	f.FailNode(h.Neighbor(0, 1))
	alg.UpdateFaults(f)
	if got := alg.States()[0]; got != StateSUnsafe {
		t.Fatalf("state(0) = %v, want sunsafe", got)
	}
	// A node with two faulty incident links likewise.
	f2 := fault.NewSet()
	f2.FailLink(5, h.Neighbor(5, 0))
	f2.FailLink(5, h.Neighbor(5, 1))
	alg.UpdateFaults(f2)
	if got := alg.States()[5]; got != StateSUnsafe {
		t.Fatalf("state(5) = %v, want sunsafe", got)
	}
}

func TestRouteCUnsafePropagation(t *testing.T) {
	h := topology.NewHypercube(3)
	alg := NewRouteC(h)
	// Make nodes 1 and 2 faulty: node 0 (neighbours 1,2,4) is
	// strongly unsafe; node 3 (neighbours 1,2,7) likewise.
	f := fault.NewSet()
	f.FailNode(1)
	f.FailNode(2)
	alg.UpdateFaults(f)
	st := alg.States()
	if st[0] != StateSUnsafe || st[3] != StateSUnsafe {
		t.Fatalf("states = %v", st)
	}
	// Node 4 has neighbours 5, 6, 0: one not-safe (0); stays safe.
	if st[4] != StateSafe {
		t.Fatalf("state(4) = %v, want safe", st[4])
	}
	// Node 7 has neighbours 6, 5, 3: one not-safe (3); stays safe.
	if st[7] != StateSafe {
		t.Fatalf("state(7) = %v, want safe", st[7])
	}
	if alg.TotallyUnsafe() {
		t.Fatal("network is not totally unsafe")
	}
}

func TestRouteCOrdinaryUnsafeSecondWave(t *testing.T) {
	h := topology.NewHypercube(3)
	alg := NewRouteC(h)
	// Faults at 1, 2, 4: all three neighbours of 0.
	f := fault.NewSet()
	f.FailNode(1)
	f.FailNode(2)
	f.FailNode(4)
	alg.UpdateFaults(f)
	st := alg.States()
	if st[0] != StateSUnsafe {
		t.Fatalf("state(0) = %v, want sunsafe", st[0])
	}
	// 3 (nbrs 1,2,7), 5 (nbrs 1,4,7), 6 (nbrs 2,4,7): each has two
	// faulty neighbours -> sunsafe. 7 (nbrs 3,5,6): two+ not-safe
	// neighbours -> ounsafe by propagation.
	for _, n := range []topology.NodeID{3, 5, 6} {
		if st[n] != StateSUnsafe {
			t.Fatalf("state(%d) = %v, want sunsafe", n, st[n])
		}
	}
	if st[7] != StateOUnsafe {
		t.Fatalf("state(7) = %v, want ounsafe", st[7])
	}
	if !alg.TotallyUnsafe() {
		t.Fatal("every surviving node is unsafe -> totally unsafe")
	}
}

func TestRouteCAllPairsFaultFree(t *testing.T) {
	h := topology.NewHypercube(4)
	alg := NewRouteC(h)
	for s := 0; s < h.Nodes(); s++ {
		for d := 0; d < h.Nodes(); d++ {
			if s == d {
				continue
			}
			ok, hops, hdr := walk(t, h, alg, topology.NodeID(s), topology.NodeID(d), 50)
			if !ok || hops != h.Dist(topology.NodeID(s), topology.NodeID(d)) {
				t.Fatalf("routec %d->%d: ok=%v hops=%d", s, d, ok, hops)
			}
			if hdr.Marked {
				t.Fatal("fault-free message must not be marked")
			}
		}
	}
}

func TestRouteCEqualsNFTFaultFree(t *testing.T) {
	h := topology.NewHypercube(5)
	ft := NewRouteC(h)
	nft := NewRouteCNFT(h)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 300; i++ {
		s := topology.NodeID(rng.Intn(h.Nodes()))
		d := topology.NodeID(rng.Intn(h.Nodes()))
		if s == d {
			continue
		}
		hdr1 := &Header{Src: s, Dst: d, Length: 4}
		hdr2 := &Header{Src: s, Dst: d, Length: 4}
		a := ft.RouteAppend(Request{Node: s, InPort: InjectionPort, Hdr: hdr1}, nil)
		b := nft.RouteAppend(Request{Node: s, InPort: InjectionPort, Hdr: hdr2}, nil)
		if len(a) != len(b) {
			t.Fatalf("ROUTE_C and stripped variant disagree fault-free: %v vs %v", a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("candidate %d: %v vs %v", j, a[j], b[j])
			}
		}
	}
}

// Within the original algorithm's guarantee regime (up to n-1 node
// faults in an n-cube, no link faults) every surviving pair must be
// delivered.
func TestRouteCDeliveryNodeFaultGuarantee(t *testing.T) {
	h := topology.NewHypercube(5)
	for seed := int64(0); seed < 8; seed++ {
		f, err := fault.Random(h, fault.RandomOptions{Nodes: 4, Seed: seed, KeepConnected: true})
		if err != nil {
			t.Fatal(err)
		}
		alg := NewRouteC(h)
		alg.UpdateFaults(f)
		for s := 0; s < h.Nodes(); s++ {
			for d := 0; d < h.Nodes(); d++ {
				if s == d || f.NodeFaulty(topology.NodeID(s)) || f.NodeFaulty(topology.NodeID(d)) {
					continue
				}
				ok, _, _ := walk(t, h, alg, topology.NodeID(s), topology.NodeID(d), 200)
				if !ok {
					t.Fatalf("seed %d: ROUTE_C failed %d->%d within the n-1 node-fault guarantee", seed, s, d)
				}
			}
		}
	}
}

// Beyond the guarantee (mixed node and link faults, five faults total
// on a 5-cube) the bounded detour budget may sacrifice a small
// fraction of pairs; the bulk must still be delivered.
func TestRouteCDeliveryBeyondGuarantee(t *testing.T) {
	h := topology.NewHypercube(5)
	for seed := int64(0); seed < 8; seed++ {
		f, err := fault.Random(h, fault.RandomOptions{Nodes: 3, Links: 2, Seed: seed, KeepConnected: true})
		if err != nil {
			t.Fatal(err)
		}
		alg := NewRouteC(h)
		alg.UpdateFaults(f)
		delivered, eligible := 0, 0
		for s := 0; s < h.Nodes(); s++ {
			for d := 0; d < h.Nodes(); d++ {
				if s == d || f.NodeFaulty(topology.NodeID(s)) || f.NodeFaulty(topology.NodeID(d)) {
					continue
				}
				eligible++
				ok, _, _ := walk(t, h, alg, topology.NodeID(s), topology.NodeID(d), 200)
				if ok {
					delivered++
				}
			}
		}
		if float64(delivered) < 0.95*float64(eligible) {
			t.Fatalf("seed %d: delivered %d of %d", seed, delivered, eligible)
		}
	}
}

func TestRouteCNFTDropsOnFault(t *testing.T) {
	h := topology.NewHypercube(3)
	alg := NewRouteCNFT(h)
	f := fault.NewSet()
	f.FailNode(1)
	f.FailNode(2)
	f.FailNode(4)
	alg.UpdateFaults(f)
	// All of node 0's neighbours are gone: unroutable anywhere.
	ok, _, _ := walk(t, h, alg, 0, 7, 20)
	if ok {
		t.Fatal("stripped variant should fail when minimal ports are faulty")
	}
}

func TestRouteCVCDiscipline(t *testing.T) {
	h := topology.NewHypercube(4)
	alg := NewRouteC(h)
	// Ascending message: src 0 -> dst 15 uses only up moves on VC0.
	hdr := &Header{Src: 0, Dst: 15, Length: 4}
	cands := alg.RouteAppend(Request{Node: 0, InPort: InjectionPort, Hdr: hdr}, nil)
	for _, c := range cands {
		if c.VC != routecVCUp {
			t.Fatalf("ascending hop must use VC0, got %v", c)
		}
	}
	// Descending message: src 15 -> dst 0 uses VC1.
	hdr2 := &Header{Src: 15, Dst: 0, Length: 4}
	cands = alg.RouteAppend(Request{Node: 15, InPort: InjectionPort, Hdr: hdr2}, nil)
	for _, c := range cands {
		if c.VC != routecVCDown {
			t.Fatalf("descending hop must use VC1, got %v", c)
		}
	}
}

// A minimal descending hop travels on the down channel, so it ends the
// level's ascent: a phase-0 message whose up ports are all unusable
// falls through to the down ports and must then be in phase 1. Left in
// phase 0 it would next ascend on VC 0 while its worm holds VC 1, the
// wait cycle a saturated faulty 4-cube closes.
func TestRouteCDescendingHopEndsAscent(t *testing.T) {
	h := topology.NewHypercube(4)
	f := fault.NewSet()
	f.FailLink(0b0101, 0b0111) // node 5's only up port towards 2
	alg := NewRouteC(h)
	alg.UpdateFaults(f)
	req := Request{Node: 0b0101, InPort: InjectionPort, Hdr: &Header{Src: 0b0101, Dst: 0b0010, Length: 4}}
	cands := alg.RouteAppend(req, nil)
	if len(cands) != 2 {
		t.Fatalf("want the two down ports, got %v", cands)
	}
	for _, c := range cands {
		if c.VC != routecVCDown {
			t.Fatalf("minimal descending hop %v must claim the down channel", c)
		}
		hdr := *req.Hdr
		ApplyHop(&hdr, req.Node, c)
		if hdr.Phase != 1 || hdr.DetourLevel != 0 || hdr.Misroutes != 0 {
			t.Errorf("after the descending hop through %v: %+v, want phase 1, level 0, no misroute", c, hdr)
		}
	}
}

func TestSelectors(t *testing.T) {
	view := fakeView{
		credits: map[[3]int]int{{1, 0, 0}: 1, {1, 1, 0}: 3},
		queued:  map[[3]int]int{{1, 0, 0}: 9, {1, 1, 0}: 2},
	}
	cands := []Candidate{{Port: 0, VC: 0}, {Port: 1, VC: 0}}
	if got := (FirstFit{}).Select(view, 1, cands, nil); got != cands[0] {
		t.Fatalf("FirstFit = %v", got)
	}
	if got := (MaxCredit{}).Select(view, 1, cands, nil); got.Port != 1 {
		t.Fatalf("MaxCredit = %v, want port 1", got)
	}
	if got := (MinQueue{}).Select(view, 1, cands, nil); got.Port != 1 {
		t.Fatalf("MinQueue = %v, want port 1", got)
	}
	rr := NewRoundRobin()
	a := rr.Select(view, 1, cands, nil)
	b := rr.Select(view, 1, cands, nil)
	if a == b {
		t.Fatal("RoundRobin should alternate")
	}
}

type fakeView struct {
	credits map[[3]int]int
	queued  map[[3]int]int
}

func (f fakeView) Credits(n topology.NodeID, p, vc int) int {
	return f.credits[[3]int{int(n), p, vc}]
}
func (f fakeView) QueuedFlits(n topology.NodeID, p, vc int) int {
	return f.queued[[3]int{int(n), p, vc}]
}
