package rulesets

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

// The rule-driven router must actually work as the control unit of the
// wormhole network: same scenario as the native NAFTA, full delivery,
// no deadlock.
func TestRuleNAFTADrivesNetwork(t *testing.T) {
	m := topology.NewMesh(8, 8)
	alg, err := NewRuleNAFTA(m)
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(network.Config{Graph: m, Algorithm: alg})
	alg.AttachLoads(net)

	f := fault.NewSet()
	f.FailNode(m.Node(3, 3))
	f.FailNode(m.Node(4, 3))
	net.ApplyFaults(f)

	rng := rand.New(rand.NewSource(8))
	want := 0
	for i := 0; i < 250; i++ {
		src := topology.NodeID(rng.Intn(m.Nodes()))
		dst := topology.NodeID(rng.Intn(m.Nodes()))
		if src == dst || f.NodeFaulty(src) || f.NodeFaulty(dst) {
			continue
		}
		net.Inject(src, dst, 6)
		want++
	}
	if !net.Drain(100000) {
		t.Fatalf("network did not drain (inflight %d)", net.InFlight())
	}
	st := net.Stats()
	if st.DeadlockSuspected {
		t.Fatal("deadlock suspected")
	}
	if float64(st.Delivered) < 0.98*float64(want) {
		t.Fatalf("rule-driven NAFTA delivered %d of %d", st.Delivered, want)
	}
	if alg.Lookups == 0 {
		t.Fatal("decisions must go through the rule tables")
	}
	if st.MisroutesSum == 0 {
		t.Fatal("expected misroutes around the fault block")
	}
}

// Fault-free, the rule-driven router must match the native NAFTA
// network statistics exactly on an identical deterministic workload
// with the FirstFit selector (the adapter returns single candidates,
// so selector influence must be removed from the native run for a
// strict comparison... the adaptivity inputs still come from the live
// load view, which both runs share deterministically).
func TestRuleNAFTAMatchesNativeFaultFree(t *testing.T) {
	m := topology.NewMesh(6, 6)
	run := func(mk func() (routing.Algorithm, func(routing.LoadView))) network.Stats {
		alg, attach := mk()
		net := network.New(network.Config{Graph: m, Algorithm: alg, Selector: routing.FirstFit{}})
		if attach != nil {
			attach(net)
		}
		rng := rand.New(rand.NewSource(77))
		for i := 0; i < 200; i++ {
			src := topology.NodeID(rng.Intn(m.Nodes()))
			dst := topology.NodeID(rng.Intn(m.Nodes()))
			if src == dst {
				continue
			}
			net.Inject(src, dst, 4)
		}
		if !net.Drain(100000) {
			t.Fatal("drain failed")
		}
		return net.Stats()
	}
	native := run(func() (routing.Algorithm, func(routing.LoadView)) {
		return routing.NewNAFTA(m), nil
	})
	ruled := run(func() (routing.Algorithm, func(routing.LoadView)) {
		alg, err := NewRuleNAFTA(m)
		if err != nil {
			t.Fatal(err)
		}
		return alg, alg.AttachLoads
	})
	if native.Delivered != ruled.Delivered || native.Dropped != ruled.Dropped {
		t.Fatalf("delivery mismatch: native %+v vs ruled %+v", native, ruled)
	}
	// The rule path picks a single candidate per decision (the
	// adaptivity choice is folded into the rules), the native run
	// offers candidate sets to FirstFit; both must deliver everything
	// with similar path lengths.
	if ruled.HopsSum > native.HopsSum*3/2 {
		t.Fatalf("rule-driven paths much longer: %d vs %d hops", ruled.HopsSum, native.HopsSum)
	}
}

// The ROUTE_C rule tables must drive a faulty hypercube network with
// full delivery in the guarantee regime.
func TestRuleRouteCDrivesNetwork(t *testing.T) {
	h := topology.NewHypercube(5)
	alg, err := NewRuleRouteC(h)
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(network.Config{Graph: h, Algorithm: alg})
	f, err := fault.Random(h, fault.RandomOptions{Nodes: 4, Seed: 2, KeepConnected: true})
	if err != nil {
		t.Fatal(err)
	}
	net.ApplyFaults(f)
	rng := rand.New(rand.NewSource(12))
	want := 0
	for i := 0; i < 300; i++ {
		src := topology.NodeID(rng.Intn(h.Nodes()))
		dst := topology.NodeID(rng.Intn(h.Nodes()))
		if src == dst || f.NodeFaulty(src) || f.NodeFaulty(dst) {
			continue
		}
		net.Inject(src, dst, 6)
		want++
	}
	if !net.Drain(100000) {
		t.Fatalf("network did not drain (inflight %d)", net.InFlight())
	}
	st := net.Stats()
	if st.DeadlockSuspected {
		t.Fatal("deadlock suspected")
	}
	if st.Delivered != int64(want) {
		t.Fatalf("rule-driven ROUTE_C delivered %d of %d in the guarantee regime", st.Delivered, want)
	}
	// Exactly two lookups per routing decision.
	if alg.Lookups == 0 {
		t.Fatal("decisions must go through the rule tables")
	}
}

// Candidate-level equivalence: the rule-driven RouteAppend must produce the
// same candidate set as the native algorithm on random states.
func TestRuleRouteCMatchesNativeCandidates(t *testing.T) {
	h := topology.NewHypercube(5)
	ruled, err := NewRuleRouteC(h)
	if err != nil {
		t.Fatal(err)
	}
	native := routing.NewRouteC(h)
	for seed := int64(0); seed < 4; seed++ {
		f, err := fault.Random(h, fault.RandomOptions{Nodes: 3, Links: 1, Seed: seed, KeepConnected: true})
		if err != nil {
			t.Fatal(err)
		}
		ruled.UpdateFaults(f)
		native.UpdateFaults(f)
		rng := rand.New(rand.NewSource(seed + 50))
		for trial := 0; trial < 300; trial++ {
			src := topology.NodeID(rng.Intn(h.Nodes()))
			dst := topology.NodeID(rng.Intn(h.Nodes()))
			if src == dst || f.NodeFaulty(src) || f.NodeFaulty(dst) {
				continue
			}
			hdr := &routing.Header{Src: src, Dst: dst, Length: 6,
				Phase: rng.Intn(2), DetourLevel: rng.Intn(4)}
			inPort := routing.InjectionPort
			if rng.Intn(3) > 0 {
				inPort = rng.Intn(h.Dim)
			}
			req := routing.Request{Node: src, InPort: inPort, Hdr: hdr}
			hdr2 := *hdr
			req2 := req
			req2.Hdr = &hdr2
			a := native.RouteAppend(req, nil)
			b := ruled.RouteAppend(req2, nil)
			if len(a) != len(b) {
				t.Fatalf("seed %d trial %d (%05b->%05b): native %v vs ruled %v",
					seed, trial, src, dst, a, b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed %d trial %d: candidate %d differs: %v vs %v",
						seed, trial, i, a[i], b[i])
				}
			}
		}
	}
}

// The whole rule decision — line fill, both table lookups, port
// expansion — must not allocate, with faults present and on each kind
// of conclusion (minimal, bump, detour, blocked).
func TestRuleRouteCRouteAppendNoAllocs(t *testing.T) {
	h := topology.NewHypercube(8)
	r, err := NewRuleRouteC(h)
	if err != nil {
		t.Fatal(err)
	}
	if !r.FastPathActive() {
		t.Fatal("fast path must be active")
	}
	f := fault.NewSet()
	f.FailNode(3)
	f.FailLink(0, 1)
	r.UpdateFaults(f)
	buf := make([]routing.Candidate, 0, h.Dim)
	for _, tc := range []struct {
		name       string
		node, dst  topology.NodeID
		phase, lvl int
		candidates bool
	}{
		{"minimal", 4, 255, 0, 0, true},
		{"bump", 4, 255, 1, 1, true},
		{"detour", 0, 1, 0, 0, true},
		{"blocked", 4, 255, 1, 3, false},
	} {
		hdr := &routing.Header{Src: tc.node, Dst: tc.dst, Length: 4, Phase: tc.phase, DetourLevel: tc.lvl}
		req := routing.Request{Node: tc.node, InPort: 1, Hdr: hdr}
		allocs := testing.AllocsPerRun(200, func() { buf = r.RouteAppend(req, buf[:0]) })
		if allocs != 0 {
			t.Errorf("%s: RouteAppend allocates %.1f/op, want 0", tc.name, allocs)
		}
		if (len(buf) != 0) != tc.candidates {
			t.Errorf("%s: candidates %v", tc.name, buf)
		}
	}
}

// CheckLines is the oracle of the UpdateFaults precompute: it must
// accept a fresh adapter and name the node whose lines a fault-set
// mutation without UpdateFaults left stale — on the ok line (a dead
// link) as on the state classes (a dead neighbour).
func TestRuleRouteCCheckLinesDetectsStaleness(t *testing.T) {
	h := topology.NewHypercube(4)
	r, err := NewRuleRouteC(h)
	if err != nil {
		t.Fatal(err)
	}
	f := fault.NewSet()
	f.FailNode(5)
	r.UpdateFaults(f)
	if err := r.CheckLines(); err != nil {
		t.Fatalf("fresh lines rejected: %v", err)
	}
	f.FailLink(8, 9)
	if err := r.CheckLines(); err == nil {
		t.Fatal("link failed behind the adapter's back went unnoticed")
	}
	r.UpdateFaults(f)
	if err := r.CheckLines(); err != nil {
		t.Fatalf("lines stale after UpdateFaults: %v", err)
	}
	f.FailNode(6)
	r.native.UpdateFaults(f) // states move, the adapter's lines do not
	if err := r.CheckLines(); err == nil {
		t.Fatal("node state change behind the adapter's back went unnoticed")
	}
}

// CheckFacts is the oracle of NAFTA's UpdateFaults precompute (the twin
// of CheckLines): it must accept a fresh adapter and notice a fault set
// mutated without UpdateFaults — a dead link (the open ports), a dead
// node that makes the completion deactivate healthy neighbours (the
// free ports, the sideways flags and the clear runs move with it).
func TestRuleNAFTACheckFactsDetectsStaleness(t *testing.T) {
	m := topology.NewMesh(6, 6)
	r, err := NewRuleNAFTA(m)
	if err != nil {
		t.Fatal(err)
	}
	f := fault.NewSet()
	f.FailNode(m.Node(2, 2))
	r.UpdateFaults(f)
	if err := r.CheckFacts(); err != nil {
		t.Fatalf("fresh facts rejected: %v", err)
	}
	f.FailLink(m.Node(4, 5), m.Node(5, 5))
	if err := r.CheckFacts(); err == nil {
		t.Fatal("link failed behind the adapter's back went unnoticed")
	}
	r.UpdateFaults(f)
	if err := r.CheckFacts(); err != nil {
		t.Fatalf("facts stale after UpdateFaults: %v", err)
	}
	f.FailNode(m.Node(3, 3))
	if err := r.CheckFacts(); err == nil {
		t.Fatal("node failed behind the adapter's back went unnoticed")
	}
	r.UpdateFaults(f)
	if err := r.CheckFacts(); err != nil {
		t.Fatalf("facts stale after UpdateFaults: %v", err)
	}
	f.RepairNode(m.Node(3, 3))
	if err := r.CheckFacts(); err == nil {
		t.Fatal("repair behind the adapter's back went unnoticed")
	}
}

// walkUntilDropped forwards one message hop by hop on the first
// candidate of every decision and returns the nodes visited; dropped
// reports that a decision came back empty before the destination.
func walkUntilDropped(alg routing.Algorithm, m *topology.Mesh, src, dst topology.NodeID) (path []topology.NodeID, dropped bool) {
	hdr := &routing.Header{Src: src, Dst: dst, Length: 4}
	cur, inPort := src, routing.InjectionPort
	for len(path) < 4*m.Nodes() && cur != dst {
		path = append(path, cur)
		req := routing.Request{Node: cur, InPort: inPort, Hdr: hdr}
		cands := alg.RouteAppend(req, nil)
		if len(cands) == 0 {
			return path, true
		}
		routing.ApplyHop(hdr, cur, cands[0])
		cur, inPort = m.Neighbor(cur, cands[0].Port), topology.OppositeMeshPort(cands[0].Port)
	}
	return path, false
}

// The detour budget is one number read from one place: a rule adapter
// and a native instance built with the same MaxMisroutes drop a message
// at the same hop (the adapter used to re-derive the default 4*(W+H)
// and ignore MaxMisroutes). A fault chain forces five misroutes.
func TestRuleNAFTAHonoursMaxMisroutes(t *testing.T) {
	m := topology.NewMesh(8, 8)
	f, err := fault.Chain(m, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := m.Node(0, 4), m.Node(0, 3)
	for _, c := range []struct {
		budget  int
		dropped bool
	}{{0, false}, {5, false}, {4, true}, {2, true}, {1, true}} {
		native := routing.NewNAFTA(m)
		native.MaxMisroutes = c.budget
		native.UpdateFaults(f)
		rule, err := NewRuleNAFTA(m)
		if err != nil {
			t.Fatal(err)
		}
		rule.native.MaxMisroutes = c.budget
		rule.UpdateFaults(f)
		np, nd := walkUntilDropped(native, m, src, dst)
		rp, rd := walkUntilDropped(rule, m, src, dst)
		if nd != c.dropped || rd != c.dropped {
			t.Fatalf("budget %d: native dropped=%v, rule dropped=%v, want %v (paths %v / %v)", c.budget, nd, rd, c.dropped, np, rp)
		}
		if len(np) != len(rp) {
			t.Fatalf("budget %d: native gave up after %d hops (%v), the rule adapter after %d (%v)", c.budget, len(np), np, len(rp), rp)
		}
		for i := range np {
			if np[i] != rp[i] {
				t.Fatalf("budget %d: paths diverge at hop %d: %v vs %v", c.budget, i, np, rp)
			}
		}
		if c.dropped && len(np) != c.budget+1 {
			t.Fatalf("budget %d: dropped after %d hops, want %d", c.budget, len(np)-1, c.budget)
		}
	}
}

// A program generated for another cube dimension or port count must not
// bind: with one element fewer the adapter would store lines the tables
// never read, with one more the tables would read lines it never stores.
func TestFromProgramRefusesOtherElementCount(t *testing.T) {
	cube, mesh := topology.NewHypercube(4), topology.NewMesh(4, 4)
	for _, delta := range []int{-1, 0, 1} {
		pc, err := LoadRouteC(cube.Dim+delta, 2)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := LoadMaze(mesh.Ports() + delta)
		if err != nil {
			t.Fatal(err)
		}
		_, errC := NewRuleRouteCFromProgram(cube, pc, nil)
		_, errM := NewRuleMazeFromProgram(mesh, pm, nil)
		for _, tc := range []struct {
			what string
			err  error
		}{
			{"ROUTE_C program of dimension", errC},
			{"maze program of port count", errM},
		} {
			if (tc.err == nil) != (delta == 0) {
				t.Errorf("%s %+d from the topology's: bind error %v", tc.what, delta, tc.err)
			}
		}
	}
}
