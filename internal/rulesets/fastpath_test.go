package rulesets

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

// What the shared Engine promises, over all three families at once.
// The perf claims of the dense fast path rest on it actually engaging:
// every decision base must compile to a DenseTable and a fast-path
// RouteAppend must not allocate. Retiring the adapter must retire every
// one of its bases — the next fast-path lookup panics on each — while
// the interpreted reference path keeps routing as before.
func TestRuleAdaptersFastPathActive(t *testing.T) {
	mesh, cube := topology.NewMesh(8, 8), topology.NewHypercube(5)
	nafta, err := NewRuleNAFTA(mesh)
	if err != nil {
		t.Fatal(err)
	}
	routec, err := NewRuleRouteC(cube)
	if err != nil {
		t.Fatal(err)
	}
	maze, err := NewRuleMaze(mesh)
	if err != nil {
		t.Fatal(err)
	}
	meshFaults := fault.NewSet()
	meshFaults.FailNode(mesh.Node(4, 4))
	cubeFaults := fault.NewSet()
	cubeFaults.FailNode(3)
	meshReq := routing.Request{Node: mesh.Node(3, 3), InPort: topology.West,
		Hdr: &routing.Header{Src: mesh.Node(0, 0), Dst: mesh.Node(7, 7), Length: 4}}
	cubeReq := routing.Request{Node: 4, InPort: 1, Hdr: &routing.Header{Src: 4, Dst: 31, Length: 4}}
	for _, tc := range []struct {
		alg    Adapter
		faults *fault.Set
		req    routing.Request
	}{
		{nafta, meshFaults, meshReq},
		{routec, cubeFaults, cubeReq},
		{maze, meshFaults, meshReq},
	} {
		name, e := tc.alg.Name(), tc.alg.RuleEngine()
		if !e.FastPathActive() {
			t.Fatalf("%s: decision bases did not compile to the dense fast path", name)
		}
		tc.alg.UpdateFaults(tc.faults)
		buf := make([]routing.Candidate, 0, 8)
		allocs := testing.AllocsPerRun(200, func() { buf = tc.alg.RouteAppend(tc.req, buf[:0]) })
		if allocs != 0 {
			t.Errorf("%s: RouteAppend allocates %.1f/op, want 0", name, allocs)
		}
		if len(buf) == 0 {
			t.Fatalf("%s: expected candidates", name)
		}
		want := append([]routing.Candidate(nil), buf...)

		e.InvalidateTables()
		for b := range e.bases {
			if !panics(func() { e.decide(tc.req.Node, b, nil, nil) }) {
				t.Errorf("%s: base %s still answers fast-path lookups after InvalidateTables", name, e.bases[b].cb.Base)
			}
		}
		if !panics(func() { tc.alg.RouteAppend(tc.req, nil) }) {
			t.Errorf("%s: RouteAppend routed on retired tables", name)
		}
		e.DisableFast = true
		if got := tc.alg.RouteAppend(tc.req, nil); !sameCands(got, want) {
			t.Errorf("%s: interpreted path after InvalidateTables gives %v, want %v", name, got, want)
		}
	}
}

func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// firing is one observed OnRuleFired invocation.
type firing struct {
	node topology.NodeID
	base string
	rule int
}

func recordFirings(dst *[]firing) func(topology.NodeID, string, int) {
	return func(n topology.NodeID, b string, r int) {
		*dst = append(*dst, firing{n, b, r})
	}
}

func sameFirings(a, b []firing) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameCands(a, b []routing.Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Differential test: for random fault sets and requests, the dense
// fast path must produce the identical candidates, fire the identical
// rules in the identical order, and count the identical number of
// lookups as the interpreted reference path.
func TestRuleNAFTAFastMatchesInterpreted(t *testing.T) {
	m := topology.NewMesh(8, 8)
	fast, err := NewRuleNAFTA(m)
	if err != nil {
		t.Fatal(err)
	}
	interp, err := NewRuleNAFTA(m)
	if err != nil {
		t.Fatal(err)
	}
	interp.DisableFast = true
	var fastFired, interpFired []firing
	fast.OnRuleFired = recordFirings(&fastFired)
	interp.OnRuleFired = recordFirings(&interpFired)

	for seed := int64(0); seed < 4; seed++ {
		f := fault.NewSet()
		if seed > 0 { // seed 0 stays fault-free (the incoming_message base)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < int(seed); i++ {
				f.FailNode(topology.NodeID(rng.Intn(m.Nodes())))
			}
			f.FailLink(m.Node(1, 1), m.Node(1, 2))
		}
		fast.UpdateFaults(f)
		interp.UpdateFaults(f)
		rng := rand.New(rand.NewSource(seed + 100))
		for trial := 0; trial < 500; trial++ {
			src := topology.NodeID(rng.Intn(m.Nodes()))
			dst := topology.NodeID(rng.Intn(m.Nodes()))
			if src == dst || f.NodeFaulty(src) || f.NodeFaulty(dst) {
				continue
			}
			hdr := routing.Header{Src: src, Dst: dst, Length: 2 + rng.Intn(12),
				Misroutes: rng.Intn(70), Marked: rng.Intn(2) == 1, VNet: rng.Intn(2)}
			inPort := routing.InjectionPort
			if rng.Intn(3) > 0 {
				inPort = rng.Intn(topology.MeshPorts)
			}
			hdr2 := hdr
			reqF := routing.Request{Node: src, InPort: inPort, InVC: rng.Intn(2), Hdr: &hdr}
			reqI := reqF
			reqI.Hdr = &hdr2
			fastFired, interpFired = fastFired[:0], interpFired[:0]
			a := fast.RouteAppend(reqF, nil)
			b := interp.RouteAppend(reqI, nil)
			if !sameCands(a, b) {
				t.Fatalf("seed %d trial %d: fast %v vs interpreted %v", seed, trial, a, b)
			}
			if !sameFirings(fastFired, interpFired) {
				t.Fatalf("seed %d trial %d: fired %v vs %v", seed, trial, fastFired, interpFired)
			}
			if fast.Lookups != interp.Lookups {
				t.Fatalf("seed %d trial %d: lookups %d vs %d", seed, trial, fast.Lookups, interp.Lookups)
			}
		}
	}
	if fast.Lookups == 0 {
		t.Fatal("no decisions exercised")
	}
}

// Same differential for the hypercube adapter.
func TestRuleRouteCFastMatchesInterpreted(t *testing.T) {
	h := topology.NewHypercube(5)
	fast, err := NewRuleRouteC(h)
	if err != nil {
		t.Fatal(err)
	}
	interp, err := NewRuleRouteC(h)
	if err != nil {
		t.Fatal(err)
	}
	interp.DisableFast = true
	var fastFired, interpFired []firing
	fast.OnRuleFired = recordFirings(&fastFired)
	interp.OnRuleFired = recordFirings(&interpFired)

	for seed := int64(0); seed < 4; seed++ {
		f, err := fault.Random(h, fault.RandomOptions{Nodes: int(seed), Links: 1, Seed: seed, KeepConnected: true})
		if err != nil {
			t.Fatal(err)
		}
		fast.UpdateFaults(f)
		interp.UpdateFaults(f)
		rng := rand.New(rand.NewSource(seed + 30))
		for trial := 0; trial < 500; trial++ {
			src := topology.NodeID(rng.Intn(h.Nodes()))
			dst := topology.NodeID(rng.Intn(h.Nodes()))
			if src == dst || f.NodeFaulty(src) || f.NodeFaulty(dst) {
				continue
			}
			hdr := routing.Header{Src: src, Dst: dst, Length: 6,
				Phase: rng.Intn(2), DetourLevel: rng.Intn(4)}
			inPort := routing.InjectionPort
			if rng.Intn(3) > 0 {
				inPort = rng.Intn(h.Dim)
			}
			hdr2 := hdr
			reqF := routing.Request{Node: src, InPort: inPort, Hdr: &hdr}
			reqI := reqF
			reqI.Hdr = &hdr2
			fastFired, interpFired = fastFired[:0], interpFired[:0]
			a := fast.RouteAppend(reqF, nil)
			b := interp.RouteAppend(reqI, nil)
			if !sameCands(a, b) {
				t.Fatalf("seed %d trial %d: fast %v vs interpreted %v", seed, trial, a, b)
			}
			if !sameFirings(fastFired, interpFired) {
				t.Fatalf("seed %d trial %d: fired %v vs %v", seed, trial, fastFired, interpFired)
			}
			if fast.Lookups != interp.Lookups {
				t.Fatalf("seed %d trial %d: lookups %d vs %d", seed, trial, fast.Lookups, interp.Lookups)
			}
		}
	}
}

// driveRuleNAFTA runs a deterministic faulty workload and returns the
// whole-network statistics plus the KRuleFired events the flight
// recorder observed.
func driveRuleNAFTA(t *testing.T, disableFast bool) (network.Stats, []trace.Event) {
	t.Helper()
	m := topology.NewMesh(8, 8)
	alg, err := NewRuleNAFTA(m)
	if err != nil {
		t.Fatal(err)
	}
	alg.DisableFast = disableFast
	rec := trace.New(m.Nodes(), 4096)
	hook, _ := TraceRules(rec)
	alg.OnRuleFired = hook
	net := network.New(network.Config{Graph: m, Algorithm: alg, Recorder: rec})
	alg.AttachLoads(net)
	f := fault.NewSet()
	f.FailNode(m.Node(3, 3))
	f.FailNode(m.Node(4, 3))
	net.ApplyFaults(f)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 250; i++ {
		src := topology.NodeID(rng.Intn(m.Nodes()))
		dst := topology.NodeID(rng.Intn(m.Nodes()))
		if src == dst || f.NodeFaulty(src) || f.NodeFaulty(dst) {
			continue
		}
		net.Inject(src, dst, 6)
	}
	if !net.Drain(100000) {
		t.Fatalf("network did not drain (inflight %d)", net.InFlight())
	}
	return net.Stats(), rec.Events()
}

// Whole-network statistics of a traced fast-path run must be
// bit-identical to the interpreted reference run, and the flight
// recorder must observe the identical rule firings (counter/tracing
// exactness of the fast path at system level).
func TestRuleNAFTAFastStatsBitIdentical(t *testing.T) {
	fastStats, fastEvents := driveRuleNAFTA(t, false)
	interpStats, interpEvents := driveRuleNAFTA(t, true)
	if fastStats != interpStats {
		t.Fatalf("stats diverged:\nfast        %+v\ninterpreted %+v", fastStats, interpStats)
	}
	fastFired := filterRuleFired(fastEvents)
	interpFired := filterRuleFired(interpEvents)
	if len(fastFired) == 0 {
		t.Fatal("recorder saw no rule firings")
	}
	if len(fastFired) != len(interpFired) {
		t.Fatalf("rule firing count diverged: %d vs %d", len(fastFired), len(interpFired))
	}
	for i := range fastFired {
		if fastFired[i] != interpFired[i] {
			t.Fatalf("rule firing %d diverged: %+v vs %+v", i, fastFired[i], interpFired[i])
		}
	}
}

func filterRuleFired(evs []trace.Event) []trace.Event {
	var out []trace.Event
	for _, e := range evs {
		if e.Kind == trace.KRuleFired {
			out = append(out, e)
		}
	}
	return out
}
