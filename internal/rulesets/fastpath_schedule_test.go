package rulesets

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Differential check under mid-run fault injection: a full simulation
// driven by the dense fast path must be statistically bit-identical to
// the interpreted reference path even while a fault schedule mutates
// the rule inputs mid-run (fault-free base -> in_message_ft switch,
// block recomputation, safety downgrades). The static-fault variant
// lives in the fastpath fuzz tests; this one exercises the transitions
// themselves.
func TestFastPathMatchesInterpreterUnderFaultSchedule(t *testing.T) {
	t.Run("nafta", func(t *testing.T) {
		m := topology.NewMesh(8, 8)
		sched := fault.NewSchedule(nil)
		sched.AddNodeFault(500, m.Node(3, 4))
		sched.AddLinkFault(700, m.Node(5, 2), m.Node(6, 2))
		sched.AddNodeFault(1100, m.Node(6, 6))
		runWith := func(disableFast bool) (sim.Result, int64) {
			alg, err := NewRuleNAFTA(m)
			if err != nil {
				t.Fatal(err)
			}
			alg.DisableFast = disableFast
			res, err := sim.Run(sim.Config{
				Graph:         m,
				Algorithm:     alg,
				Rate:          0.08,
				Length:        6,
				Seed:          34,
				FaultSchedule: sched,
				WarmupCycles:  300,
				MeasureCycles: 1500,
				OnNetwork:     func(n *network.Network) { alg.AttachLoads(n) },
			})
			if err != nil {
				t.Fatal(err)
			}
			return res, alg.Lookups
		}
		fast, fastLookups := runWith(false)
		interp, interpLookups := runWith(true)
		if fast.Stats != interp.Stats {
			t.Fatalf("stats diverge under fault schedule:\n fast   %+v\n interp %+v", fast.Stats, interp.Stats)
		}
		if fastLookups != interpLookups {
			t.Fatalf("lookup counts diverge: fast %d interp %d", fastLookups, interpLookups)
		}
		if fast.Stats.Killed == 0 {
			t.Fatal("schedule should kill some crossing worms (otherwise the transition is untested)")
		}
		if !fast.Drained || fast.Stats.DeadlockSuspected {
			t.Fatalf("unhealthy run: drained=%v deadlock=%v", fast.Drained, fast.Stats.DeadlockSuspected)
		}
	})
	t.Run("routec", func(t *testing.T) {
		h := topology.NewHypercube(5)
		sched := fault.NewSchedule(nil)
		sched.AddNodeFault(400, 7)
		sched.AddNodeFault(900, 21)
		runWith := func(disableFast bool) (sim.Result, int64) {
			alg, err := NewRuleRouteC(h)
			if err != nil {
				t.Fatal(err)
			}
			alg.DisableFast = disableFast
			res, err := sim.Run(sim.Config{
				Graph:         h,
				Algorithm:     alg,
				Rate:          0.12,
				Length:        8,
				Seed:          39,
				FaultSchedule: sched,
				WarmupCycles:  300,
				MeasureCycles: 1500,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res, alg.Lookups
		}
		fast, fastLookups := runWith(false)
		interp, interpLookups := runWith(true)
		if fast.Stats != interp.Stats {
			t.Fatalf("stats diverge under fault schedule:\n fast   %+v\n interp %+v", fast.Stats, interp.Stats)
		}
		if fastLookups != interpLookups {
			t.Fatalf("lookup counts diverge: fast %d interp %d", fastLookups, interpLookups)
		}
		if fast.Stats.Killed == 0 {
			t.Fatal("schedule should kill some crossing worms")
		}
		if !fast.Drained || fast.Stats.DeadlockSuspected {
			t.Fatalf("unhealthy run: drained=%v deadlock=%v", fast.Drained, fast.Stats.DeadlockSuspected)
		}
	})
}
