package campaign

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/rulesets"
	"repro/internal/sim"
	"repro/internal/topology"
)

// NAFTA (native and rule adapter) reads its fault knowledge off
// per-node fact records that only UpdateFaults rewrites, so every path
// that changes the fault state or installs an engine must end in an
// UpdateFaults on every engine that still decides. The scenario below
// does it in every way the simulator can — the initial set, timed node
// and link events through network.ApplyFaults (whose schedule mutates
// the fault set in place), and hot-swaps that replay the state onto a
// fresh engine — and holds the records to the per-call derivation
// (CheckFacts): on the first decision of every engine the scenario
// builds, on the first decision after every scheduled event, on every
// 64th decision in between, and on the serving engine right after
// every swap. The decision service's recompute and reloads are held to
// the same oracle in internal/reconfig, where the shard engines can be
// reached.
func TestRuleNAFTAFactsFreshAcrossFaultEvents(t *testing.T) {
	m := topology.NewMesh(6, 6)
	s := Scenario{
		ID: 0, Algo: AlgoNAFTA, MeshW: m.W, MeshH: m.H,
		Seed: 23, Rate: 0.12, Length: 8,
		Warmup: 200, Measure: 800, Drain: 20000, LivelockAge: 20000,
		FaultNodes: []int{int(m.Node(2, 2))},
		Events: []TimedFault{
			{Time: 350, Kind: "node", Node: int(m.Node(3, 3))},                    // concave with (2,2): the completion deactivates two nodes
			{Time: 550, Kind: "link", A: int(m.Node(4, 5)), B: int(m.Node(5, 5))}, // on the top border row
			{Time: 750, Kind: "node", Node: int(m.Node(1, 0))},
		},
		Swaps: []int64{300, 450, 650},
	}
	if b := fault.BuildBlocks(m, s.FaultStateAt(s.Events[len(s.Events)-1].Time)); b.Deactivated == 0 {
		t.Fatal("the fault story deactivates no healthy node")
	}
	var net *network.Network
	now := func() int64 { // the initial fault set is applied before the run hands its network out
		if net == nil {
			return 0
		}
		return net.Now()
	}
	ref, err := rulesets.NewRuleNAFTA(m)
	if err != nil {
		t.Fatal(err)
	}
	checks := 0
	check := func(alg *rulesets.RuleNAFTA, when string) {
		checks++
		if err := alg.CheckFacts(); err != nil {
			t.Fatalf("%s (cycle %d): %v", when, now(), err)
		}
		// CheckFacts holds an engine to the fault set it was given; that
		// it was given the network's current one is a second question
		// (a swap that forgot the replay installs a consistent,
		// fault-free engine). The interpretation steps of every
		// decision — 1 fault-free, 2 minimal, 3 misroute — are a
		// fingerprint of the fault state a from-scratch engine shares.
		ref.UpdateFaults(s.FaultStateAt(now()))
		for cur := 0; cur < m.Nodes(); cur++ {
			for dst := 0; dst < m.Nodes(); dst++ {
				req := routing.Request{Node: topology.NodeID(cur), InPort: routing.InjectionPort,
					Hdr: &routing.Header{Dst: topology.NodeID(dst), Length: 4}}
				if got, want := alg.Steps(req), ref.Steps(req); got != want {
					t.Fatalf("%s (cycle %d): %d->%d decides in %d steps, a from-scratch engine in %d",
						when, now(), cur, dst, got, want)
				}
			}
		}
	}
	eventsDue := func() (due int) {
		for _, e := range s.Events {
			if e.Time <= now() {
				due++
			}
		}
		return due
	}
	lastDue := 0
	factory := func(s *Scenario, oracle bool) (routing.Algorithm, error) {
		alg, err := rulesets.NewRuleNAFTA(m)
		if err != nil {
			return nil, err
		}
		decisions := 0
		alg.OnRuleFired = func(topology.NodeID, string, int) {
			due := eventsDue()
			if decisions%64 == 0 || due != lastDue {
				check(alg, "at a decision")
			}
			decisions++
			lastDue = due
		}
		return alg, nil
	}
	cfg, err := buildConfig(&s, false, factory, &net)
	if err != nil {
		t.Fatal(err)
	}
	swaps := 0
	sw := cfg.Algorithm.(*reconfig.Swapper)
	sw.OnSwap(func(_, _ uint64) {
		swaps++
		check(sw.Current().(*rulesets.RuleNAFTA), "after a swap")
	})
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vio := checkRun(&s, &res, net); len(vio) != 0 {
		t.Fatalf("scenario violated the oracles: %v", vio)
	}
	if sw.Swaps() < int64(len(s.Swaps)) || swaps != int(sw.Swaps()) {
		t.Fatalf("%d of %d swaps fired, %d checked", sw.Swaps(), len(s.Swaps), swaps)
	}
	if checks < 20 || res.Stats.Killed == 0 || lastDue != len(s.Events) {
		t.Fatalf("%d checks, %d killed worms, %d events seen — the scenario exercised nothing",
			checks, res.Stats.Killed, lastDue)
	}
}
