package sim_test

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/reconfig"
	"repro/internal/routing"
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

func TestExcludePredicateFollowsEvents(t *testing.T) {
	m := topology.NewMesh(8, 8)
	sw := reconfig.NewSwapper(routing.NewNAFTA(m))
	// NARA keeps no block view: after the first swap only faulty nodes
	// are excluded, after the second NAFTA's deactivated ones are again.
	initial, sched, rcs := excludeEvents(m, func() routing.Algorithm { return routing.NewNARA(m) },
		[5]int64{40, 70, 90, 110, 140})
	var net *network.Network
	replay, faults := sched.Clone(), initial.Clone()
	pat := &firingPattern{t: t, nodes: m.Nodes(), now: func() int64 { return net.Now() }}
	pat.ref = func(n topology.NodeID) bool {
		replay.ApplyUpTo(net.Now(), faults)
		if faults.NodeFaulty(n) {
			return true
		}
		blocks := sw.Blocks()
		return blocks != nil && blocks.DisabledNode(n)
	}
	_, err := sim.Run(sim.Config{
		Graph: m, Algorithm: sw, Pattern: pat,
		Rate: 4, Length: 4, Seed: 5,
		Faults: initial, FaultSchedule: sched, Reconfigs: rcs,
		WarmupCycles: 60, MeasureCycles: 120, DrainCycles: 100,
		OnNetwork: func(n *network.Network) { net = n },
	})
	if err != nil {
		t.Fatal(err)
	}
	pat.check()
	if sw.Swaps() != 2 {
		t.Fatalf("%d of 2 swaps fired", sw.Swaps())
	}
	// Five events, each changing the excluded set (the link fault only
	// when it deactivates a node, so at least four).
	if pat.cycles != 180 || pat.flips < 4 {
		t.Fatalf("%d cycles checked, excluded set changed for %d node-events", pat.cycles, pat.flips)
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
