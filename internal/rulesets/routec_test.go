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

// cubeInputs derives the decide_dir/decide_vc rule inputs from a
// native ROUTE_C decision state.
func cubeInputs(c *rules.Checked, h *topology.Hypercube, alg *routing.RouteC,
	f *fault.Set, req routing.Request) map[string]rules.Value {
	vals := map[string]rules.Value{
		"phase": {T: rules.IntType(0, 1), I: int64(req.Hdr.Phase)},
		"level": {T: rules.IntType(0, 3), I: int64(req.Hdr.DetourLevel)},
	}
	states := alg.States()
	for i := 0; i < h.Dim; i++ {
		nb := h.Neighbor(req.Node, i)
		diff := req.Node&(1<<i) != req.Hdr.Dst&(1<<i)
		up := req.Node&(1<<i) == 0
		ok := f.PortUsable(h, req.Node, i)
		safe := nb == req.Hdr.Dst || states[nb] == routing.StateSafe
		vals[fmt.Sprintf("diffb/%d", i)] = bitVal(diff)
		vals[fmt.Sprintf("upb/%d", i)] = bitVal(up)
		vals[fmt.Sprintf("okl/%d", i)] = bitVal(ok)
		vals[fmt.Sprintf("nbsafe/%d", i)] = bitVal(safe)
		vals[fmt.Sprintf("notback/%d", i)] = bitVal(i != req.InPort)
	}
	return vals
}

func mapProvider(vals map[string]rules.Value) core.InputProvider {
	return func(name string, idx []int64) (rules.Value, error) {
		k := name
		for _, i := range idx {
			k += fmt.Sprintf("/%d", i)
		}
		v, ok := vals[k]
		if !ok {
			return rules.Value{}, fmt.Errorf("unset input %s", k)
		}
		return v, nil
	}
}

// nativeMode classifies a native decideDir outcome (reconstructed from
// RouteAppend's candidates) into the rule program's mode vocabulary.
func nativeMode(h *topology.Hypercube, alg *routing.RouteC, req routing.Request,
	cands []routing.Candidate) string {
	if len(cands) == 0 {
		return "blocked"
	}
	states := alg.States()
	minimal := h.MinimalPorts(req.Node, req.Hdr.Dst)
	isMin := func(p int) bool {
		for _, q := range minimal {
			if q == p {
				return true
			}
		}
		return false
	}
	allSafe := true
	anyUp := false
	detour := false
	for _, cd := range cands {
		nb := h.Neighbor(req.Node, cd.Port)
		if nb != req.Hdr.Dst && states[nb] != routing.StateSafe {
			allSafe = false
		}
		if !isMin(cd.Port) {
			detour = true
		}
		if req.Node&(1<<cd.Port) == 0 {
			anyUp = true
		}
	}
	bump := anyUp && req.Hdr.Phase == 1 && !detour
	switch {
	case detour && allSafe:
		return "detour_safe"
	case detour:
		return "detour_any"
	case bump && allSafe:
		return "bump_safe"
	case bump:
		return "bump_any"
	case anyUp && allSafe:
		return "up_safe"
	case anyUp:
		return "up_any"
	case allSafe:
		return "down_safe"
	default:
		return "down_any"
	}
}

func TestDecideDirMatchesRouteC(t *testing.T) {
	d := 5
	p, err := LoadRouteC(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := topology.NewHypercube(d)
	modes := p.Checked.SymbolSets["modes"]
	rng := rand.New(rand.NewSource(17))
	for scenario := 0; scenario < 10; scenario++ {
		f, err := fault.Random(h, fault.RandomOptions{Nodes: 3, Links: 1, Seed: int64(scenario), KeepConnected: true})
		if err != nil {
			t.Fatal(err)
		}
		alg := routing.NewRouteC(h)
		alg.UpdateFaults(f)
		for trial := 0; trial < 500; trial++ {
			src := topology.NodeID(rng.Intn(h.Nodes()))
			dst := topology.NodeID(rng.Intn(h.Nodes()))
			if src == dst || f.NodeFaulty(src) || f.NodeFaulty(dst) {
				continue
			}
			hdr := &routing.Header{Src: src, Dst: dst, Length: 6,
				Phase: rng.Intn(2), DetourLevel: rng.Intn(4)}
			inPort := routing.InjectionPort
			if rng.Intn(3) > 0 {
				inPort = rng.Intn(d)
			}
			req := routing.Request{Node: src, InPort: inPort, Hdr: hdr}
			cands := alg.RouteAppend(req, nil)
			want := nativeMode(h, alg, req, cands)

			vals := cubeInputs(p.Checked, h, alg, f, req)
			vals["taking_detour"] = bitVal(false)
			for i := 0; i < d; i++ {
				vals[fmt.Sprintf("new_state/%d", i)] = p.Checked.Symbols["safe"]
				vals[fmt.Sprintf("adapt_load/%d", i)] = rules.Value{T: rules.IntType(0, 3)}
			}
			mach := core.NewMachine(p.Checked, mapProvider(vals))
			_, ret, err := mach.InvokeNow("decide_dir")
			if err != nil {
				t.Fatal(err)
			}
			if ret == nil {
				t.Fatalf("decide_dir returned nothing")
			}
			got := modes.Symbols[ret.I]
			if got != want {
				t.Fatalf("scenario %d trial %d (%05b->%05b phase=%d lvl=%d in=%d): rules %s, native %s (cands %v)",
					scenario, trial, src, dst, hdr.Phase, hdr.DetourLevel, inPort, got, want, cands)
			}
		}
	}
}

func TestDecideVCMatchesRouteC(t *testing.T) {
	d := 4
	p, err := LoadRouteC(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := topology.NewHypercube(d)
	alg := routing.NewRouteC(h)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 800; trial++ {
		src := topology.NodeID(rng.Intn(h.Nodes()))
		dst := topology.NodeID(rng.Intn(h.Nodes()))
		if src == dst {
			continue
		}
		hdr := &routing.Header{Src: src, Dst: dst, Length: 6,
			Phase: rng.Intn(2), DetourLevel: rng.Intn(4)}
		req := routing.Request{Node: src, InPort: routing.InjectionPort, Hdr: hdr}
		cands := alg.RouteAppend(req, nil)
		if len(cands) == 0 {
			continue
		}
		minimal := h.MinimalPorts(src, dst)
		for _, cd := range cands {
			isMin := false
			for _, q := range minimal {
				if q == cd.Port {
					isMin = true
				}
			}
			// The phase class of the chosen output; a minimal
			// ascending hop taken while descending is a level bump
			// and claims the next level's channel like a detour.
			up := src&(1<<cd.Port) == 0
			bump := isMin && up && hdr.Phase == 1
			outPhase := int64(1)
			if up && isMin {
				outPhase = 0
			}
			vals := map[string]rules.Value{
				"phase":         {T: rules.IntType(0, 1), I: outPhase},
				"level":         {T: rules.IntType(0, 3), I: int64(hdr.DetourLevel)},
				"taking_detour": bitVal(!isMin || bump),
			}
			mach := core.NewMachine(p.Checked, mapProvider(vals))
			_, ret, err := mach.InvokeNow("decide_vc", p.Checked.Symbols["up_any"])
			if err != nil {
				t.Fatal(err)
			}
			if ret == nil || ret.I != int64(cd.VC) {
				t.Fatalf("trial %d cand %v (min=%v lvl=%d): rules VC %v, native %d",
					trial, cd, isMin, hdr.DetourLevel, ret, cd.VC)
			}
		}
	}
}

// TestUpdateStatePropagationMatchesNative runs the event-driven,
// per-node rule machines of update_state until quiescence and checks
// the distributed fixpoint against the native global computation —
// DESIGN.md's "incremental propagation converges to the same fixpoint"
// requirement.
func TestUpdateStatePropagationMatchesNative(t *testing.T) {
	d := 4
	h := topology.NewHypercube(d)
	for seed := int64(0); seed < 10; seed++ {
		f, err := fault.Random(h, fault.RandomOptions{Nodes: 2, Links: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		native := routing.NewRouteC(h)
		native.UpdateFaults(f)

		p, err := LoadRouteC(d, 2)
		if err != nil {
			t.Fatal(err)
		}
		// One machine and one pending-input store per healthy node.
		machines := make([]*core.Machine, h.Nodes())
		pending := make([]map[string]rules.Value, h.Nodes())
		for n := 0; n < h.Nodes(); n++ {
			if f.NodeFaulty(topology.NodeID(n)) {
				continue
			}
			pending[n] = map[string]rules.Value{}
			machines[n] = core.NewMachine(p.Checked, mapProvider(pending[n]))
		}
		type msg struct {
			node  topology.NodeID
			dir   int
			state rules.Value
		}
		var queue []msg
		// Seed the diagnosis wave: direct observations of failed
		// neighbours and links.
		for n := 0; n < h.Nodes(); n++ {
			if machines[n] == nil {
				continue
			}
			for i := 0; i < d; i++ {
				nb := h.Neighbor(topology.NodeID(n), i)
				if f.NodeFaulty(nb) {
					queue = append(queue, msg{topology.NodeID(n), i, p.Checked.Symbols["faulty"]})
				} else if f.LinkFaulty(topology.NodeID(n), nb) {
					queue = append(queue, msg{topology.NodeID(n), i, p.Checked.Symbols["lfault"]})
				}
			}
		}
		steps := 0
		for len(queue) > 0 {
			if steps++; steps > 10000 {
				t.Fatal("propagation did not settle")
			}
			mg := queue[0]
			queue = queue[1:]
			m := machines[mg.node]
			pending[mg.node][fmt.Sprintf("new_state/%d", mg.dir)] = mg.state
			if _, _, err := m.InvokeNow("update_state", rules.IntVal(int64(mg.dir))); err != nil {
				t.Fatal(err)
			}
			for _, ev := range m.TakeExternal() {
				if ev.Name != "send_newmessage" {
					continue
				}
				dim := int(ev.Args[0].I)
				nb := h.Neighbor(mg.node, dim)
				// State messages travel only over intact links to
				// live neighbours.
				if machines[nb] == nil || f.LinkFaulty(mg.node, nb) {
					continue
				}
				queue = append(queue, msg{nb, dim, ev.Args[1]})
			}
		}
		// Compare the distributed fixpoint with the native one.
		for n := 0; n < h.Nodes(); n++ {
			if machines[n] == nil {
				continue
			}
			v, err := machines[n].Get("state")
			if err != nil {
				t.Fatal(err)
			}
			var want string
			switch native.States()[n] {
			case routing.StateSafe:
				want = "safe"
			case routing.StateOUnsafe:
				want = "ounsafe"
			case routing.StateSUnsafe:
				want = "sunsafe"
			default:
				want = "faulty"
			}
			got := v.T.Symbols[v.I]
			if got != want {
				t.Fatalf("seed %d node %04b: distributed state %s, native %s (%s)",
					seed, n, got, want, f)
			}
		}
	}
}
