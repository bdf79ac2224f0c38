package campaign

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/failover"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/reconfig"
	"repro/internal/sim"
)

// artifactCache memoizes the compiled rule-table artifact per
// algorithm/topology parameterisation — compiling the builtin program
// once per campaign, not once per scenario.
var artifactCache sync.Map // string -> *reconfig.Artifact

func artifactFor(s *Scenario) (*reconfig.Artifact, error) {
	ports := 0
	if s.Algo == AlgoMaze {
		g, err := s.Graph()
		if err != nil {
			return nil, err
		}
		ports = g.Ports()
	}
	key := fmt.Sprintf("%s/%d/%d", s.Algo, s.CubeDim, ports)
	if v, ok := artifactCache.Load(key); ok {
		return v.(*reconfig.Artifact), nil
	}
	art, err := reconfig.Build(s.Algo, reconfig.BuildOptions{CubeDim: s.CubeDim, Ports: ports})
	if err != nil {
		return nil, err
	}
	v, _ := artifactCache.LoadOrStore(key, art)
	return v.(*reconfig.Artifact), nil
}

// faultStates reconstructs the sequence of cumulative fault states the
// scenario's network observes, in ApplyFaults order: the initial set
// (when non-empty), then one state per distinct event time that fires
// inside the stepped window (warm-up plus measurement; the drain phase
// never applies schedule events).
func faultStates(s *Scenario) []*fault.Set {
	var states []*fault.Set
	if init := s.FaultSet(); !init.Empty() {
		states = append(states, init)
	}
	lastCycle := s.Warmup + s.Measure - 1
	var times []int64
	seen := map[int64]bool{}
	for _, e := range s.Events {
		if e.Time <= lastCycle && !seen[e.Time] {
			seen[e.Time] = true
			times = append(times, e.Time)
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	for _, t := range times {
		states = append(states, s.FaultStateAt(t))
	}
	return states
}

// scenarioClasses turns the scenario's own cumulative fault states
// into the plane's anticipated classes — the campaign plays the
// operator who precompiles backups for exactly the faults they expect.
// States that coincide with enumerated single-fault or Figure-2 chain
// classes (the Chain scenario family, single-event scenarios) exercise
// the same backups `routerd -backups` precompiles.
func scenarioClasses(s *Scenario) []failover.Class {
	var classes []failover.Class
	for _, st := range faultStates(s) {
		c := failover.Class{Kind: failover.KindNode, Nodes: st.FaultyNodes(), Links: st.FaultyLinks()}
		if st.NodeCount() == 0 {
			c.Kind = failover.KindLink
		}
		classes = append(classes, c)
	}
	return classes
}

// expectedFlips walks the scenario's fault-state sequence against the
// plane's coverage exactly as the plane itself will: the first
// occurrence of a covered key flips, every repetition (an event that
// re-fails an already-failed component leaves the cumulative key
// unchanged) and every uncovered state recomputes. Empty states are
// never counted.
func expectedFlips(s *Scenario, plane *failover.Plane) (flips, recomputes int64) {
	covered := map[string]bool{}
	for _, c := range plane.Classes() {
		covered[c.Key()] = true
	}
	consumed := map[string]bool{}
	for _, st := range faultStates(s) {
		key := failover.KeyOf(st)
		if covered[key] && !consumed[key] {
			consumed[key] = true
			flips++
		} else {
			recomputes++
		}
	}
	return flips, recomputes
}

// buildFailoverConfig assembles the scenario's failover run: the
// factory engine wrapped in an epoch swapper, a plane precompiled for
// the scenario's fault states that flips into it, and the plane forwarded as
// the network's fault handler. planeSlot receives the plane for the
// post-run counter checks.
func buildFailoverConfig(s *Scenario, factory AlgFactory,
	netSlot **network.Network, planeSlot **failover.Plane) (sim.Config, error) {
	cfg, err := buildConfig(s, false, factory, netSlot)
	if err != nil {
		return sim.Config{}, err
	}
	sw, ok := cfg.Algorithm.(*reconfig.Swapper)
	if !ok {
		sw = reconfig.NewSwapper(cfg.Algorithm)
		cfg.Algorithm = sw
	}
	art, err := artifactFor(s)
	if err != nil {
		return sim.Config{}, err
	}
	plane, err := failover.NewPlane(art, cfg.Graph, scenarioClasses(s), sw)
	if err != nil {
		return sim.Config{}, err
	}
	cfg.Failover = plane
	if planeSlot != nil {
		*planeSlot = plane
	}
	return cfg, nil
}

// checkFailoverRun applies the failover oracles to a completed
// failover-variant run: measurement statistics bit-identical to the
// plain fast run (a precompiled flip must be behaviourally equivalent
// to the live recompute it replaces), flip/recompute counters exactly
// as the fault story predicts, and the standard post-run battery on
// the failover network itself.
func checkFailoverRun(s *Scenario, fast *sim.Result, res *sim.Result,
	net *network.Network, plane *failover.Plane) []Violation {
	var vio []Violation
	if res.Stats != fast.Stats {
		vio = append(vio, Violation{Kind: "failover-differential",
			Detail: fmt.Sprintf("measurement stats diverge: plain %+v vs failover %+v", fast.Stats, res.Stats)})
	}
	wantFlips, wantRecomputes := expectedFlips(s, plane)
	if plane.Flips() != wantFlips || plane.Recomputes() != wantRecomputes {
		vio = append(vio, Violation{Kind: "failover-coverage",
			Detail: fmt.Sprintf("plane flipped %d / recomputed %d, fault story predicts %d / %d",
				plane.Flips(), plane.Recomputes(), wantFlips, wantRecomputes)})
	}
	vio = append(vio, checkRun(s, res, net)...)
	return vio
}

// checkFailover runs the scenario's failover variant sequentially (the
// Evaluate / shrinker path; the parallel driver schedules the variant
// as its own job instead).
func checkFailover(s *Scenario, fast *sim.Result, factory AlgFactory) []Violation {
	var net *network.Network
	var plane *failover.Plane
	cfg, err := buildFailoverConfig(s, factory, &net, &plane)
	if err != nil {
		return []Violation{{Kind: "internal", Detail: err.Error()}}
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return []Violation{{Kind: "sim-error", Detail: "failover run: " + err.Error()}}
	}
	return checkFailoverRun(s, fast, &res, net, plane)
}
