package campaign

import (
	"testing"

	"repro/internal/network"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/rulesets"
	"repro/internal/sim"
	"repro/internal/topology"
)

// RuleRouteC precomputes its fault-dependent input lines in
// UpdateFaults, so every path that changes the fault state must end in
// an UpdateFaults on every engine that still decides. The scenario
// below changes it in every way the simulator can — the initial set,
// timed node and link events through network.ApplyFaults (whose
// schedule mutates the fault set in place), and hot-swaps that replay
// the state onto a fresh engine — and compares the precomputed lines
// with a recompute from the fault set and the node states at every
// routing decision of the engines the scenario builds.
func TestRuleRouteCLinesFreshAcrossFaultEvents(t *testing.T) {
	s := Scenario{
		ID: 0, Algo: AlgoRouteC, CubeDim: 4,
		Seed: 19, Rate: 0.2, Length: 8,
		Warmup: 200, Measure: 800, Drain: 20000, LivelockAge: 20000,
		FaultNodes: []int{5},
		Events: []TimedFault{
			{Time: 350, Kind: "node", Node: 10},
			{Time: 550, Kind: "link", A: 3, B: 7},
			{Time: 750, Kind: "node", Node: 12},
		},
		Swaps: []int64{300, 450, 650},
	}
	decisions := 0
	factory := func(s *Scenario, oracle bool) (routing.Algorithm, error) {
		alg, err := rulesets.NewRuleRouteC(topology.NewHypercube(s.CubeDim))
		if err != nil {
			return nil, err
		}
		alg.OnRuleFired = func(node topology.NodeID, base string, _ int) {
			if base != rulesets.RouteCDecisionBases[0] {
				return
			}
			decisions++
			if err := alg.CheckLines(); err != nil {
				t.Fatalf("decision at node %d: %v", node, err)
			}
		}
		return alg, nil
	}
	var net *network.Network
	cfg, err := buildConfig(&s, false, factory, &net)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vio := checkRun(&s, &res, net); len(vio) != 0 {
		t.Fatalf("scenario violated the oracles: %v", vio)
	}
	if sw := cfg.Algorithm.(*reconfig.Swapper); sw.Swaps() < int64(len(s.Swaps)) {
		t.Fatalf("%d of %d swaps fired", sw.Swaps(), len(s.Swaps))
	}
	if decisions == 0 || res.Stats.Killed == 0 {
		t.Fatalf("%d checked decisions, %d killed worms — the scenario exercised nothing",
			decisions, res.Stats.Killed)
	}
}
