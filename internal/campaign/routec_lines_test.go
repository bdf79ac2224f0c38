package campaign

import (
	"testing"

	"repro/internal/failover"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/rulesets"
	"repro/internal/sim"
	"repro/internal/topology"
)

// checkedHandler runs a check right after the wrapped fault handler
// resolved an event (flip or live recompute).
type checkedHandler struct {
	inner network.FaultHandler
	after func(flipped bool)
}

func (h checkedHandler) OnFault(f *fault.Set) bool {
	flipped := h.inner.OnFault(f)
	h.after(flipped)
	return flipped
}

// RuleRouteC precomputes its fault-dependent input lines in
// UpdateFaults, so every path that changes the fault state must end in
// an UpdateFaults on every engine that still decides. The scenario
// below changes it in every way the simulator can — the initial set,
// timed node and link events through network.ApplyFaults (whose
// schedule mutates the fault set in place), hot-swaps that replay the
// state onto a fresh engine, and failover flips to precompiled engines
// — and compares the precomputed lines with a recompute from the fault
// set and the node states at every routing decision of the engines the
// scenario builds, and on the serving engine right after every fault
// event (which also reaches the plane's precompiled engines).
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
	for _, withFailover := range []bool{false, true} {
		decisions = 0
		events, flips := 0, 0
		var net *network.Network
		var cfg sim.Config
		var err error
		if withFailover {
			var plane *failover.Plane
			if cfg, err = buildFailoverConfig(&s, factory, &net, &plane); err != nil {
				t.Fatal(err)
			}
			sw := cfg.Algorithm.(*reconfig.Swapper)
			cfg.Failover = checkedHandler{inner: plane, after: func(flipped bool) {
				events++
				if flipped {
					flips++
				}
				if err := sw.Current().(*rulesets.RuleRouteC).CheckLines(); err != nil {
					t.Fatalf("after fault event %d (flipped=%v): %v", events, flipped, err)
				}
			}}
		} else if cfg, err = buildConfig(&s, false, factory, &net); err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if vio := checkRun(&s, &res, net); len(vio) != 0 {
			t.Fatalf("failover=%v: scenario violated the oracles: %v", withFailover, vio)
		}
		if sw := cfg.Algorithm.(*reconfig.Swapper); sw.Swaps() < int64(len(s.Swaps)) {
			t.Fatalf("failover=%v: %d of %d swaps fired", withFailover, sw.Swaps(), len(s.Swaps))
		}
		if decisions == 0 || res.Stats.Killed == 0 {
			t.Fatalf("failover=%v: %d checked decisions, %d killed worms — the scenario exercised nothing",
				withFailover, decisions, res.Stats.Killed)
		}
		if withFailover && (events != 1+len(s.Events) || flips != events) {
			t.Fatalf("%d fault events with %d flips, want %d flips", events, flips, 1+len(s.Events))
		}
	}
}
