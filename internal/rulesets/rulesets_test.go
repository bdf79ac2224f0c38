package rulesets

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/rules"
	"repro/internal/topology"
)

func TestLoadPrograms(t *testing.T) {
	if _, err := LoadNAFTA(); err != nil {
		t.Fatalf("NAFTA: %v", err)
	}
	if _, err := LoadNARA(); err != nil {
		t.Fatalf("NARA: %v", err)
	}
	if _, err := LoadRouteC(6, 2); err != nil {
		t.Fatalf("ROUTE_C: %v", err)
	}
	if _, err := LoadRouteCNFT(6, 2); err != nil {
		t.Fatalf("ROUTE_C-nft: %v", err)
	}
}

func TestNAFTACostTable(t *testing.T) {
	p, err := LoadNAFTA()
	if err != nil {
		t.Fatal(err)
	}
	tb, pc, err := p.CostTable(core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 11 {
		t.Fatalf("Table 1 must have 11 rule bases, got %d", tb.Rows())
	}
	nft := 0
	for _, m := range NAFTAMeta {
		if m.NFT {
			nft++
		}
	}
	if nft != 5 {
		t.Fatalf("Table 1 has 5 nft-marked bases, got %d", nft)
	}
	// The decision base dominates the table budget, like the paper's
	// incoming_message row.
	var inMsg, total int64
	for _, b := range pc.Bases {
		total += b.MemoryBits
		if b.Name == "incoming_message" || b.Name == "in_message_ft" {
			inMsg += b.MemoryBits
		}
	}
	if inMsg*2 < total {
		t.Fatalf("decision bases should dominate: %d of %d bits", inMsg, total)
	}
}

func TestRouteCCostTable(t *testing.T) {
	p, err := LoadRouteC(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	tb, pc, err := p.CostTable(core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 4 {
		t.Fatalf("Table 2 must have 4 rule bases, got %d", tb.Rows())
	}
	// "The total size of 2960 bits of rule table memory for a 64-node
	// hypercube and a=2 is really small": ours must be the same order
	// of magnitude.
	if pc.TotalTableBits < 300 || pc.TotalTableBits > 30000 {
		t.Fatalf("total ROUTE_C table bits = %d, expected a few kilobits", pc.TotalTableBits)
	}
}

func TestNAFTARegisterSplit(t *testing.T) {
	p, err := LoadNAFTA()
	if err != nil {
		t.Fatal(err)
	}
	total, ftOnly, err := p.FTOnlyRegisterBits()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 159 bits total, 47 for fault tolerance (~30%). The shape
	// requirement: a substantial minority of the register bits exist
	// only for fault tolerance.
	if ftOnly <= 0 || ftOnly >= total {
		t.Fatalf("register split total=%d ftOnly=%d", total, ftOnly)
	}
	frac := float64(ftOnly) / float64(total)
	if frac < 0.1 || frac > 0.6 {
		t.Fatalf("FT register fraction %.2f outside the plausible band", frac)
	}
}

func TestRouteCRegisterGrowth(t *testing.T) {
	// Paper: ROUTE_C needs 15d + 2 log d + 3 register bits — linear
	// growth in the dimension.
	var bits []int64
	for _, d := range []int{3, 4, 5, 6, 7, 8} {
		p, err := LoadRouteC(d, 2)
		if err != nil {
			t.Fatal(err)
		}
		rc := core.RegisterUsage(p.Checked)
		bits = append(bits, rc.Bits)
	}
	for i := 1; i < len(bits); i++ {
		if bits[i] <= bits[i-1] {
			t.Fatalf("register bits must grow with d: %v", bits)
		}
	}
	// Roughly linear: doubling d from 4 to 8 should less than triple
	// the bits.
	if bits[5] > 3*bits[1] {
		t.Fatalf("register growth super-linear: %v", bits)
	}
}

func TestMergedTableBlowup(t *testing.T) {
	for _, d := range []int{4, 6, 8} {
		split, err := LoadRouteC(d, 2)
		if err != nil {
			t.Fatal(err)
		}
		var splitDirVC int64
		pc, err := core.AnalyzeCost(split.Checked, core.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range pc.Bases {
			if b.Name == "decide_dir" || b.Name == "decide_vc" {
				splitDirVC += b.MemoryBits
			}
		}
		mergedProg, err := rules.Parse(MergedDecideSource(d, 2))
		if err != nil {
			t.Fatal(err)
		}
		mc, err := rules.Analyze(mergedProg)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := core.CompileBase(mc, "decide_merged", core.CompileOptions{SizeOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if cb.MemoryBits() < 16*splitDirVC {
			t.Fatalf("d=%d: merged table %d bits should dwarf split %d bits",
				d, cb.MemoryBits(), splitDirVC)
		}
	}
	// And the blowup is exponential in d.
	sizes := map[int]int64{}
	for _, d := range []int{4, 6, 8} {
		mc, err := rules.Analyze(mustParse(t, MergedDecideSource(d, 2)))
		if err != nil {
			t.Fatal(err)
		}
		cb, err := core.CompileBase(mc, "decide_merged", core.CompileOptions{SizeOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		sizes[d] = cb.Entries
	}
	if sizes[6] < 4*sizes[4] || sizes[8] < 4*sizes[6] {
		t.Fatalf("merged entries should grow exponentially: %v", sizes)
	}
}

func mustParse(t *testing.T, src string) *rules.Program {
	t.Helper()
	p, err := rules.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// ---------------------------------------------------------------------
// Equivalence: mesh decision rule bases vs the native implementation.

// meshInputs derives the rule-program inputs from a native NAFTA
// decision state.
type meshInputs struct {
	vals map[string]rules.Value
}

func signVal(c *rules.Checked, v int) rules.Value {
	signs := c.SymbolSets["signs"]
	switch {
	case v < 0:
		return rules.SymVal(signs, 0) // neg
	case v == 0:
		return rules.SymVal(signs, 1) // zero
	default:
		return rules.SymVal(signs, 2) // pos
	}
}

func bitVal(b bool) rules.Value {
	if b {
		return rules.Value{T: rules.IntType(0, 1), I: 1}
	}
	return rules.Value{T: rules.IntType(0, 1), I: 0}
}

func (mi *meshInputs) provider(name string, idx []int64) (rules.Value, error) {
	k := name
	for _, i := range idx {
		k += fmt.Sprintf("/%d", i)
	}
	v, ok := mi.vals[k]
	if !ok {
		return rules.Value{}, fmt.Errorf("unset input %s", k)
	}
	return v, nil
}

// fakeLoads is a LoadView with per-port queued data and uniform
// credits.
type fakeLoads struct{ q [4]int }

func (f fakeLoads) Credits(topology.NodeID, int, int) int       { return 4 }
func (f fakeLoads) QueuedFlits(_ topology.NodeID, p, _ int) int { return f.q[p] }

func buildMeshScenario(t *testing.T, c *rules.Checked, m *topology.Mesh, alg *routing.NAFTA,
	req routing.Request, loads fakeLoads) *meshInputs {
	t.Helper()
	facts := alg.PortFacts(req)
	cx, cy := m.XY(req.Node)
	dx, dy := m.XY(req.Hdr.Dst)
	vnet := alg.VNetOf(req)
	lastdir := 4
	if req.InPort != routing.InjectionPort {
		lastdir = topology.OppositeMeshPort(req.InPort)
	}
	mi := &meshInputs{vals: map[string]rules.Value{
		"dxsign":  signVal(c, dx-cx),
		"dysign":  signVal(c, dy-cy),
		"invnet":  rules.Value{T: rules.IntType(0, 1), I: int64(vnet)},
		"lastdir": rules.Value{T: rules.IntType(0, 4), I: int64(lastdir)},
		"msglen":  rules.Value{T: rules.IntType(0, 31), I: int64(req.Hdr.Length)},
		"budget":  bitVal(req.Hdr.Misroutes < 4*(m.W+m.H)),
	}}
	for p := 0; p < 4; p++ {
		mi.vals[fmt.Sprintf("avail/%d", p)] = bitVal(facts[p].Usable)
		mi.vals[fmt.Sprintf("avfault/%d", p)] = bitVal(facts[p].Usable && facts[p].Sideways && facts[p].EntryMinimal)
		mi.vals[fmt.Sprintf("misok/%d", p)] = bitVal(facts[p].Usable && facts[p].Sideways && facts[p].EntryMisroute)
	}
	// vlight: vertical minimal output strictly lighter than the
	// horizontal minimal output.
	vPort, hPort := -1, -1
	if dy > cy {
		vPort = topology.North
	} else if dy < cy {
		vPort = topology.South
	}
	if dx > cx {
		hPort = topology.East
	} else if dx < cx {
		hPort = topology.West
	}
	vlight := false
	if vPort >= 0 && hPort >= 0 {
		vlight = loads.q[vPort] < loads.q[hPort]
	}
	mi.vals["vlight"] = bitVal(vlight)
	return mi
}

func TestIncomingMessageMatchesNARA(t *testing.T) {
	p, err := LoadNARA()
	if err != nil {
		t.Fatal(err)
	}
	m := topology.NewMesh(16, 16)
	native := routing.NewNARA(m)
	nafta := routing.NewNAFTA(m) // fault-free: supplies the PortFacts
	sel := routing.MinQueue{}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 1500; trial++ {
		src := topology.NodeID(rng.Intn(m.Nodes()))
		dst := topology.NodeID(rng.Intn(m.Nodes()))
		if src == dst {
			continue
		}
		hdr := &routing.Header{Src: src, Dst: dst, Length: 8}
		req := routing.Request{Node: src, InPort: routing.InjectionPort, Hdr: hdr}
		loads := fakeLoads{}
		for i := range loads.q {
			loads.q[i] = rng.Intn(16)
		}
		cands := native.RouteAppend(req, nil)
		var want int = -1
		if len(cands) > 0 {
			want = sel.Select(loads, src, cands, hdr).Port
		}
		mi := buildMeshScenario(t, p.Checked, m, nafta, req, loads)
		mach := core.NewMachine(p.Checked, mi.provider)
		idx, ret, err := mach.InvokeNow("incoming_message", rules.IntVal(0))
		if err != nil {
			t.Fatal(err)
		}
		if want == -1 {
			if idx != -1 {
				t.Fatalf("trial %d: rules picked %v, native has no candidate", trial, ret)
			}
			continue
		}
		if idx == -1 || ret == nil {
			t.Fatalf("trial %d (%d->%d): rules found nothing, native picked %d", trial, src, dst, want)
		}
		if ret.I != int64(want) {
			t.Fatalf("trial %d (%d->%d): rules %d, native %d (loads %v)", trial, src, dst, ret.I, want, loads.q)
		}
	}
}

func TestFTDecisionMatchesNAFTA(t *testing.T) {
	p, err := LoadNAFTA()
	if err != nil {
		t.Fatal(err)
	}
	m := topology.NewMesh(12, 12)
	sel := routing.MinQueue{}
	rng := rand.New(rand.NewSource(93))
	for scenario := 0; scenario < 12; scenario++ {
		f, err := fault.Random(m, fault.RandomOptions{Nodes: 3, Links: 1, Seed: int64(scenario), KeepConnected: true})
		if err != nil {
			t.Fatal(err)
		}
		native := routing.NewNAFTA(m)
		native.UpdateFaults(f)
		blocks := native.Blocks()
		for trial := 0; trial < 400; trial++ {
			src := topology.NodeID(rng.Intn(m.Nodes()))
			dst := topology.NodeID(rng.Intn(m.Nodes()))
			if src == dst || blocks.DisabledNode(src) || blocks.DisabledNode(dst) {
				continue
			}
			hdr := &routing.Header{Src: src, Dst: dst, Length: 8,
				VNet: rng.Intn(2), Misroutes: rng.Intn(3)}
			inPort := routing.InjectionPort
			if rng.Intn(3) > 0 {
				// A plausible in-flight arrival port.
				pp := rng.Intn(4)
				if m.Neighbor(src, pp) != topology.Invalid {
					inPort = pp
				}
			}
			req := routing.Request{Node: src, InPort: inPort, InVC: hdr.VNet, Hdr: hdr}
			loads := fakeLoads{}
			for i := range loads.q {
				loads.q[i] = rng.Intn(16)
			}
			cands := native.RouteAppend(req, nil)
			mi := buildMeshScenario(t, p.Checked, m, native, req, loads)
			mach := core.NewMachine(p.Checked, mi.provider)
			idx, ret, err := mach.InvokeNow("in_message_ft", rules.IntVal(0))
			if err != nil {
				t.Fatal(err)
			}
			if idx == -1 {
				// Exception path: second interpretation.
				idx, ret, err = mach.InvokeNow("test_exception", rules.IntVal(0))
				if err != nil {
					t.Fatal(err)
				}
			}
			if len(cands) == 0 {
				if idx != -1 {
					t.Fatalf("scenario %d trial %d (%d->%d): rules picked %v, native unroutable",
						scenario, trial, src, dst, ret)
				}
				continue
			}
			// Native selection: MinQueue on the minimal path, first
			// candidate on the exception path (the candidates arrive
			// in port priority order).
			var want int
			if facts := native.PortFacts(req); facts[cands[0].Port].Minimal {
				want = sel.Select(loads, src, cands, hdr).Port
			} else {
				want = cands[0].Port
			}
			if idx == -1 || ret == nil {
				t.Fatalf("scenario %d trial %d (%d->%d, in %d, vnet %d): rules found nothing, native %d (cands %v)",
					scenario, trial, src, dst, inPort, hdr.VNet, want, cands)
			}
			if ret.I != int64(want) {
				t.Fatalf("scenario %d trial %d (%d->%d, in %d, vnet %d): rules %d, native %d (cands %v loads %v)",
					scenario, trial, src, dst, inPort, hdr.VNet, ret.I, want, cands, loads.q)
			}
		}
	}
}
