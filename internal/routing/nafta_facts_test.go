package routing

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/topology"
)

// The reference decision: NAFTA's candidate sets as they were computed
// before the per-node fact records existed, port by port from
// PortFacts and the mesh coordinates. The tests below hold FactWords
// and RouteAppend to it.

func refLastDir(inPort int) int {
	if inPort == InjectionPort {
		return -1
	}
	return topology.OppositeMeshPort(inPort)
}

func refVNAllowed(vnet, last, p int) bool {
	if vnet == VNSouthLast && last == topology.South {
		return p == topology.South
	}
	if vnet == VNNorthLast && last == topology.North {
		return p == topology.North
	}
	return true
}

func refLastDirEntryOK(m *topology.Mesh, vnet int, cur topology.NodeID, p int, dst topology.NodeID) bool {
	cx, cy := m.XY(cur)
	dx, dy := m.XY(dst)
	if vnet == VNSouthLast && p == topology.South {
		return cx == dx && dy < cy
	}
	if vnet == VNNorthLast && p == topology.North {
		return cx == dx && dy > cy
	}
	return true
}

func refMinimal(n *NAFTA, req Request, out []Candidate) []Candidate {
	facts := n.PortFacts(req)
	vnet := n.VNetOf(req)
	last := refLastDir(req.InPort)
	for _, p := range [2]int{
		n.neededHorizontal(req.Node, req.Hdr.Dst),
		n.neededVertical(req.Node, req.Hdr.Dst),
	} {
		if p < 0 || !refVNAllowed(vnet, last, p) {
			continue
		}
		if last >= 0 && p == topology.OppositeMeshPort(last) {
			continue
		}
		if !refLastDirEntryOK(n.mesh, vnet, req.Node, p, req.Hdr.Dst) {
			continue
		}
		if f := facts[p]; !f.Usable || !f.Sideways || !f.EntryMinimal {
			continue
		}
		out = append(out, Candidate{Port: p, VC: vnet})
	}
	return out
}

func refMisroute(n *NAFTA, req Request, out []Candidate) []Candidate {
	facts := n.PortFacts(req)
	vnet := n.VNetOf(req)
	last := refLastDir(req.InPort)
	for p := 0; p < topology.MeshPorts; p++ {
		if facts[p].Minimal {
			continue
		}
		if last >= 0 && p == topology.OppositeMeshPort(last) {
			continue
		}
		if !refVNAllowed(vnet, last, p) {
			continue
		}
		if (vnet == VNSouthLast && p == topology.South) || (vnet == VNNorthLast && p == topology.North) {
			continue
		}
		if f := facts[p]; !f.Usable || !f.Sideways || !f.EntryMisroute {
			continue
		}
		out = append(out, Candidate{Port: p, VC: vnet})
	}
	return out
}

// refRoute is the reference decision, each candidate with the header
// update of its hop: a non-minimal hop is a misroute, and the first hop
// latches the virtual network.
func refRoute(n *NAFTA, req Request) []Candidate {
	out := refMinimal(n, req, nil)
	if len(out) == 0 && req.Hdr.Misroutes < n.DetourBudget() {
		out = refMisroute(n, req, nil)
	}
	for i := range out {
		if !n.isMinimalPort(req.Node, req.Hdr.Dst, out[i].Port) {
			out[i].Hop.Ops |= HopMisroute
		}
		if req.InPort == InjectionPort {
			out[i].Hop.Ops |= HopLatchVNet
		}
	}
	return out
}

func portsOf(cands []Candidate) (m uint8) {
	for _, c := range cands {
		m |= 1 << uint(c.Port)
	}
	return m
}

// TestNAFTAFactWordsExhaustive compares, over every (node, destination,
// in-port, virtual network) of an 8x8 and a 5x7 mesh under random node
// and link fault sets, with and without the convex completion: the
// word-level facts with PortFacts; the minimal and the misroute
// candidate sets, RouteAppend (within and past the detour budget),
// Steps and the header after each hop with the reference decision. Exhaustive destinations
// cover the ones adjacent to a disabled node and both border rows, where
// the entry guard lives.
func TestNAFTAFactWordsExhaustive(t *testing.T) {
	for _, wh := range [][2]int{{8, 8}, {5, 7}} {
		m := topology.NewMesh(wh[0], wh[1])
		links := topology.Links(m)
		for seed := int64(0); seed < 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			f := fault.NewSet()
			for i, k := 0, rng.Intn(5); i < k; i++ {
				f.FailNode(topology.NodeID(rng.Intn(m.Nodes())))
			}
			for i, k := 0, rng.Intn(5); i < k; i++ {
				l := links[rng.Intn(len(links))]
				f.FailLink(l.A, l.B)
			}
			if seed == 0 { // a concave pattern on the border rows: completion deactivates healthy nodes
				f.FailNode(m.Node(1, m.H-1))
				f.FailNode(m.Node(2, m.H-2))
				f.FailNode(m.Node(3, 0))
				f.FailNode(m.Node(2, 1))
			}
			for _, disableBlocks := range []bool{false, true} {
				n := NewNAFTA(m)
				n.DisableBlocks = disableBlocks
				n.UpdateFaults(f)
				if err := n.CheckFacts(); err != nil {
					t.Fatalf("mesh %v seed %d blocks off=%v: %v", wh, seed, disableBlocks, err)
				}
				if !disableBlocks && seed == 0 && n.Blocks().Deactivated == 0 {
					t.Fatal("the concave pattern deactivated nothing")
				}
				checkNAFTAExhaustive(t, n, f)
			}
		}
	}
}

func checkNAFTAExhaustive(t *testing.T, n *NAFTA, f *fault.Set) {
	t.Helper()
	m := n.mesh
	var buf []Candidate
	for cur := 0; cur < m.Nodes(); cur++ {
		for dst := 0; dst < m.Nodes(); dst++ {
			if dst == cur {
				continue
			}
			for inPort := InjectionPort; inPort < topology.MeshPorts; inPort++ {
				for vnet := 0; vnet < 2; vnet++ {
					hdr := Header{Dst: topology.NodeID(dst), VNet: vnet, Length: 4}
					req := Request{Node: topology.NodeID(cur), InPort: inPort, Hdr: &hdr}
					w := n.FactWords(req)
					want := factNibbles(n.PortFacts(req))
					cx, cy := m.XY(req.Node)
					dx, dy := m.XY(hdr.Dst)
					want.SX, want.SY, want.VNet = sign(dx-cx), sign(dy-cy), n.VNetOf(req)
					if w != want {
						t.Fatalf("%v: %d->%d in %d vnet %d: FactWords %+v, PortFacts give %+v", f, cur, dst, inPort, vnet, w, want)
					}
					if got, ref := w.minimalPorts(inPort), portsOf(refMinimal(n, req, nil)); got != ref {
						t.Fatalf("%v: %d->%d in %d vnet %d: minimal ports %04b, reference %04b", f, cur, dst, inPort, vnet, got, ref)
					}
					if got, ref := w.misroutePorts(inPort), portsOf(refMisroute(n, req, nil)); got != ref {
						t.Fatalf("%v: %d->%d in %d vnet %d: misroute ports %04b, reference %04b", f, cur, dst, inPort, vnet, got, ref)
					}
					for _, misroutes := range []int{n.DetourBudget(), 0} {
						hdr.Misroutes = misroutes
						buf = n.RouteAppend(req, buf[:0])
						ref := refRoute(n, req)
						if len(buf) != len(ref) || len(ref) > 0 && !reflect.DeepEqual(buf, ref) {
							t.Fatalf("%v: %d->%d in %d vnet %d misroutes %d: RouteAppend %v, reference %v",
								f, cur, dst, inPort, vnet, misroutes, buf, ref)
						}
					}
					wantSteps := 3
					if f.Empty() {
						wantSteps = 1
					} else if len(refMinimal(n, req, nil)) > 0 {
						wantSteps = 2
					}
					if got := n.Steps(req); got != wantSteps {
						t.Fatalf("%v: %d->%d in %d vnet %d: Steps %d, reference %d", f, cur, dst, inPort, vnet, got, wantSteps)
					}
					for _, c := range buf { // the decision at misroutes 0
						h := Header{Dst: hdr.Dst, VNet: vnet}
						ApplyHop(&h, req.Node, c)
						if marked := !n.isMinimalPort(req.Node, hdr.Dst, c.Port); h.Marked != marked || (h.Misroutes == 1) != marked {
							t.Fatalf("%d->%d port %d: hop marked=%v misroutes=%d, reference marked=%v", cur, dst, c.Port, h.Marked, h.Misroutes, marked)
						}
						if wantVNet := map[bool]int{true: n.VNetOf(req), false: vnet}[inPort == InjectionPort]; h.VNet != wantVNet {
							t.Fatalf("hop vnet %d, want %d", h.VNet, wantVNet)
						}
					}
				}
			}
		}
	}
}

// A native instance with MaxMisroutes set stops misrouting at exactly
// that count, and DetourBudget reports it.
func TestNAFTADetourBudget(t *testing.T) {
	m := topology.NewMesh(6, 6)
	n := NewNAFTA(m)
	if got := n.DetourBudget(); got != 4*(6+6) {
		t.Fatalf("default budget %d", got)
	}
	n.MaxMisroutes = 3
	if got := n.DetourBudget(); got != 3 {
		t.Fatalf("budget %d, want 3", got)
	}
}
