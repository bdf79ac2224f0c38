package sim_test

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/rulesets"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Run hands the generator a live "skip this node" predicate: faulty, or
// disabled in the block view of the algorithm the run was configured
// with. These tests hold it to a predicate derived independently, cycle
// by cycle, across fault events and engine swaps.

// excludeEvents is a mesh with two diagonal faults up front (NAFTA
// deactivates the healthy corners of their block), two more and a link
// fault landing mid-run, and two engine swaps.
func excludeEvents(m *topology.Mesh, swapTo func() routing.Algorithm, at [5]int64) (*fault.Set, *fault.Schedule, []sim.Reconfig) {
	initial := fault.NewSet()
	initial.FailNode(m.Node(2, 2))
	initial.FailNode(m.Node(3, 3))
	sched := fault.NewSchedule(nil)
	sched.AddNodeFault(at[0], m.Node(5, 5))
	sched.AddNodeFault(at[1], m.Node(6, 4))
	sched.AddLinkFault(at[2], m.Node(0, 6), m.Node(1, 6))
	rcs := []sim.Reconfig{
		{At: at[3], Force: true, Make: func() (routing.Algorithm, error) { return swapTo(), nil }},
		{At: at[4], Force: true, Make: func() (routing.Algorithm, error) { return routing.NewNAFTA(m), nil }},
	}
	return initial, sched, rcs
}

// firingPattern records which sources the generator let through and
// sends every message to its own source, which the generator discards:
// at an offered load of one message per node per cycle the recorded set
// of a cycle is exactly the set of nodes Run did not exclude.
type firingPattern struct {
	t     *testing.T
	now   func() int64
	ref   func(topology.NodeID) bool // the test's own predicate
	nodes int

	cycle  int64
	want   []bool // ref for every node, taken at the cycle's first call
	fired  []bool
	cycles int
	flips  int // per-node answers that changed from one cycle to the next
}

func (p *firingPattern) Name() string { return "firing" }

func (p *firingPattern) Dest(src topology.NodeID, _ *rand.Rand) topology.NodeID {
	if now := p.now(); p.want == nil || now != p.cycle {
		p.check()
		p.cycle = now
		prev := p.want
		p.want, p.fired = make([]bool, p.nodes), make([]bool, p.nodes)
		for i := range p.want {
			p.want[i] = p.ref(topology.NodeID(i))
			if prev != nil && prev[i] != p.want[i] {
				p.flips++
			}
		}
	}
	p.fired[src] = true
	return src
}

// check compares the finished cycle's fired set with the predicate.
func (p *firingPattern) check() {
	if p.want == nil {
		return
	}
	p.cycles++
	for i := range p.want {
		if p.fired[i] == p.want[i] {
			p.t.Fatalf("cycle %d node %d: generator fired %v, the predicate excludes %v",
				p.cycle, i, p.fired[i], p.want[i])
		}
	}
}

// The rows: native NAFTA in a swapper, and the rule-table NAFTA bare
// and in a swapper, whose block view is the native instance's. The
// swapper rows check against the swapper's current view (NARA keeps
// none: after the first swap only faulty nodes are excluded, after the
// second NAFTA's deactivated ones are again); the rule rows against the
// blocks built from the replayed fault set, which NAFTA's block view
// must match whichever engine generation is current.
func TestExcludePredicateFollowsEvents(t *testing.T) {
	m := topology.NewMesh(8, 8)
	ruleNAFTA := func() routing.Algorithm {
		r, err := rulesets.NewRuleNAFTA(m)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	built := func(f *fault.Set) *fault.BlockInfo { return fault.BuildBlocks(m, f) }
	native := reconfig.NewSwapper(routing.NewNAFTA(m))
	for _, row := range []struct {
		name   string
		alg    routing.Algorithm
		swapTo func() routing.Algorithm // nil runs without swaps
		blocks func(*fault.Set) *fault.BlockInfo
		flips  int // at least this many per-node changes of the excluded set
	}{
		// Five events, each changing the excluded set (the link fault only
		// when it deactivates a node, so at least four).
		{"nafta-swapper", native, func() routing.Algorithm { return routing.NewNARA(m) },
			func(*fault.Set) *fault.BlockInfo { return native.Blocks() }, 4},
		{"rule-nafta", ruleNAFTA(), nil, built, 2},
		{"rule-nafta-swapper", reconfig.NewSwapper(ruleNAFTA()), ruleNAFTA, built, 2},
	} {
		t.Run(row.name, func(t *testing.T) {
			initial, sched, rcs := excludeEvents(m, row.swapTo, [5]int64{40, 70, 90, 110, 140})
			if row.swapTo == nil {
				rcs = nil
			}
			var net *network.Network
			replay, faults := sched.Clone(), initial.Clone()
			pat := &firingPattern{t: t, nodes: m.Nodes(), now: func() int64 { return net.Now() }}
			last, deactivated := int64(-1), 0
			var blocks *fault.BlockInfo
			pat.ref = func(n topology.NodeID) bool {
				if now := net.Now(); now != last {
					last = now
					replay.ApplyUpTo(now, faults)
					blocks = row.blocks(faults)
				}
				if faults.NodeFaulty(n) {
					return true
				}
				if blocks != nil && blocks.DisabledNode(n) {
					deactivated++
					return true
				}
				return false
			}
			_, err := sim.Run(sim.Config{
				Graph: m, Algorithm: row.alg, Pattern: pat,
				Rate: 4, Length: 4, Seed: 5,
				Faults: initial, FaultSchedule: sched, Reconfigs: rcs,
				WarmupCycles: 60, MeasureCycles: 120, DrainCycles: 100,
				OnNetwork: func(n *network.Network) { net = n },
			})
			if err != nil {
				t.Fatal(err)
			}
			pat.check()
			if sw, ok := row.alg.(*reconfig.Swapper); ok && sw.Swaps() != int64(len(rcs)) {
				t.Fatalf("%d of %d swaps fired", sw.Swaps(), len(rcs))
			}
			if pat.cycles != 180 || pat.flips < row.flips || deactivated == 0 {
				t.Fatalf("%d cycles checked, excluded set changed for %d node-events, %d node-cycles deactivated",
					pat.cycles, pat.flips, deactivated)
			}
		})
	}
}

// TestScheduleAndSwapResultPinned pins the whole Result of a run with a
// mid-run fault schedule and two engine swaps (numbers taken when PR 23
// moved the generator to geometric gaps, the one deliberate change of
// the random stream): the generator must skip the same sources and
// destinations before and after every event, drawing the same stream.
func TestScheduleAndSwapResultPinned(t *testing.T) {
	m := topology.NewMesh(8, 8)
	sw := reconfig.NewSwapper(routing.NewNAFTA(m))
	initial, sched, rcs := excludeEvents(m, func() routing.Algorithm { return routing.NewNAFTA(m) },
		[5]int64{600, 900, 1300, 1000, 1700})
	res, err := sim.Run(sim.Config{
		Graph: m, Algorithm: sw,
		Rate: 0.08, Length: 6, Seed: 21,
		Faults: initial, FaultSchedule: sched, Reconfigs: rcs,
		WarmupCycles: 400, MeasureCycles: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Result{
		Stats: network.Stats{Cycles: 2000, Injected: 1335, Delivered: 1310, Dropped: 8, Killed: 2,
			FlitsDelivered: 7858, HopsSum: 8029, StepsSum: 16478, MisroutesSum: 375, MarkedCount: 225,
			LatencySum: 35950, NetLatencySum: 35060, MaxLatency: 115},
		OfferedRate: 0.08, OfferedMessages: 1335, QueueGrowth: 15, Drained: true, Nodes: 64,
	}
	if res != want {
		t.Fatalf("Result moved:\n got %#v\nwant %#v", res, want)
	}
}

// blindLoads hides the network's load view from the algorithm it wraps.
type blindLoads struct{ routing.Algorithm }

func (blindLoads) AttachLoads(routing.LoadView) {}

// A bare rule-table NAFTA and one inside a swapper are the same engine
// to the network: both get the load view their adaptivity input reads
// and both hand the generator their block view (the two faults
// deactivate nodes), so the whole Result is the same. A run with the
// view hidden must differ, or the comparison would not show it.
func TestRuleNAFTABareMatchesSwapper(t *testing.T) {
	m := topology.NewMesh(8, 8)
	run := func(wrap func(routing.Algorithm) routing.Algorithm) sim.Result {
		alg, err := rulesets.NewRuleNAFTA(m)
		if err != nil {
			t.Fatal(err)
		}
		faults := fault.NewSet()
		faults.FailNode(m.Node(2, 2))
		faults.FailNode(m.Node(3, 3))
		res, err := sim.Run(sim.Config{
			Graph: m, Algorithm: wrap(alg), Faults: faults,
			Rate: 0.08, Length: 6, Seed: 21, WarmupCycles: 400, MeasureCycles: 2000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bare := run(func(a routing.Algorithm) routing.Algorithm { return a })
	wrapped := run(func(a routing.Algorithm) routing.Algorithm { return reconfig.NewSwapper(a) })
	if bare != wrapped {
		t.Fatalf("bare and swapper-wrapped rule-nafta diverge:\n bare    %+v\n wrapped %+v", bare, wrapped)
	}
	if blind := run(func(a routing.Algorithm) routing.Algorithm { return blindLoads{a} }); blind == bare {
		t.Fatalf("hiding the load view changed nothing: %+v", blind)
	}
}
