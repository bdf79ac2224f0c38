package network

// Golden regression tests for the fault-surgery and post-mortem
// paths. Each test drives a fully deterministic scenario and compares
// a compact end-state summary against values pinned from the
// pre-arena (per-router pointer graph) engine, so any behavioural
// drift introduced by the flat-arena/active-set port — killed-worm
// release, queue filtering, credit recomputation, channel-wait-cycle
// certification — fails loudly with a field-level diff instead of
// surfacing as a statistics mismatch three layers up.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

// surgeryScenario injects seeded uniform traffic on an 8x8 NAFTA mesh,
// lets worms spread mid-flight, then fails a router and cuts a link —
// exercising every step of ApplyFaults: queued-message kill, crossing-
// worm cut, queue filtering, output release, decision re-route and
// credit recomputation.
func surgeryScenario(t *testing.T) string {
	t.Helper()
	m := topology.NewMesh(8, 8)
	alg := routing.NewNAFTA(m)
	n := New(Config{Graph: m, Algorithm: alg, BufDepth: 2})

	rng := rand.New(rand.NewSource(7))
	for cycle := 0; cycle < 30; cycle++ {
		if cycle < 25 {
			for k := 0; k < 8; k++ {
				src := topology.NodeID(rng.Intn(m.Nodes()))
				dst := topology.NodeID(rng.Intn(m.Nodes()))
				if src != dst {
					n.Inject(src, dst, 8)
				}
			}
		}
		if cycle == 28 {
			// Source-queued messages at the soon-to-fail router: the
			// injection-queue kill path must count them.
			n.Inject(m.Node(3, 3), m.Node(0, 7), 8)
			n.Inject(m.Node(3, 3), m.Node(7, 0), 8)
			n.Inject(m.Node(3, 3), m.Node(6, 6), 8)
		}
		n.Step()
	}

	f := fault.NewSet()
	f.FailNode(m.Node(3, 3))
	f.FailLink(m.Node(4, 4), m.Node(4, 5))
	n.ApplyFaults(f)
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("invariants broken right after surgery: %v", err)
	}
	post := n.Stats()
	postInFlight, postQueued := n.InFlight(), n.Queued()

	// Surviving buffer occupancy right after the surgery — the direct
	// observable of the slice()/truncate() queue filtering: surgery
	// rebuilds every credit count from actual downstream occupancy, so
	// BufDepth-credits summed over all link VCs is exactly the flit
	// population the filtering kept.
	flits := 0
	for node := 0; node < m.Nodes(); node++ {
		for p := 0; p < m.Ports(); p++ {
			if m.Neighbor(topology.NodeID(node), p) == topology.Invalid {
				continue
			}
			for v := 0; v < alg.NumVCs(); v++ {
				flits += 2 - n.Credits(topology.NodeID(node), p, v)
			}
		}
	}

	if !n.Drain(20000) {
		t.Fatalf("post-surgery drain stalled (inflight %d, queued %d)", n.InFlight(), n.Queued())
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("invariants broken after drain: %v", err)
	}
	final := n.Stats()
	final.Cycles = 0 // drain cycle count is load-dependent, not surgery behaviour

	return fmt.Sprintf(
		"postKilled=%d postInFlight=%d postQueued=%d postFlitsBuffered=%d "+
			"injected=%d delivered=%d dropped=%d killed=%d flits=%d hops=%d "+
			"misroutes=%d marked=%d lat=%d netlat=%d maxlat=%d",
		post.Killed, postInFlight, postQueued, flits,
		final.Injected, final.Delivered, final.Dropped, final.Killed,
		final.FlitsDelivered, final.HopsSum, final.MisroutesSum,
		final.MarkedCount, final.LatencySum, final.NetLatencySum, final.MaxLatency)
}

// Pinned from the pre-arena engine.
const surgeryGolden = "postKilled=11 postInFlight=70 postQueued=92 postFlitsBuffered=253 " +
	"injected=200 delivered=189 dropped=0 killed=11 flits=1512 hops=1066 " +
	"misroutes=13 marked=11 lat=16212 netlat=8418 maxlat=217"

func TestFaultSurgeryGoldenSerial(t *testing.T) {
	if got := surgeryScenario(t); got != surgeryGolden {
		t.Fatalf("fault-surgery end state drifted:\n got: %s\nwant: %s", got, surgeryGolden)
	}
}

// TestPostMortemGolden pins the certified channel-wait cycle and the
// blocked-packet table of the deterministic ring deadlock: the exact
// cycle membership, each packet's position (node, input port/VC),
// blocking reason and waits-on edges, and which routers appear in the
// snapshot.
func TestPostMortemGolden(t *testing.T) {
	_, _, reports := forceRingDeadlock(t, 0)
	const golden = "cycle=[3 2 1 0]" +
		" | msg3@n0 p0 v0 out(-1,-1) no-free-vc waits[0]" +
		" | msg0@n2 p3 v0 out(-1,-1) no-free-vc waits[1]" +
		" | msg2@n6 p1 v0 out(-1,-1) no-free-vc waits[3]" +
		" | msg1@n8 p2 v0 out(-1,-1) no-free-vc waits[2]" +
		" | routers[0 1 2 3 5 6 7 8]"
	if got := postMortemTable((*reports)[0]); got != golden {
		t.Fatalf("post-mortem snapshot drifted:\n got: %s\nwant: %s", got, golden)
	}
}

// TestPostMortemGoldenNoCredit pins the same table for a ring stall of
// sixteen two-flit worms, two from each ring router to the router
// three hops on. Each worm fits in one buffer, so a head that won its
// output finds the downstream buffer filled by the worm ahead: the
// table holds "no-credit" entries (allocated heads) beside the
// "no-free-vc" ones of the injection queues.
func TestPostMortemGoldenNoCredit(t *testing.T) {
	_, _, reports := stallRing(t, 0, func(n *Network, m *topology.Mesh) {
		ring := []topology.NodeID{m.Node(0, 0), m.Node(1, 0), m.Node(2, 0), m.Node(2, 1),
			m.Node(2, 2), m.Node(1, 2), m.Node(0, 2), m.Node(0, 1)}
		for round := 0; round < 2; round++ {
			for i, src := range ring {
				n.Inject(src, ring[(i+3)%len(ring)], 2)
			}
		}
	})
	const golden = "cycle=[7 6 5 4 3 2 1 0]" +
		" | msg7@n0 p0 v0 out(1,0) no-credit waits[0]" +
		" | msg8@n0 p4 v0 out(-1,-1) no-free-vc waits[7]" +
		" | msg0@n1 p3 v0 out(1,0) no-credit waits[1]" +
		" | msg9@n1 p4 v0 out(-1,-1) no-free-vc waits[0]" +
		" | msg1@n2 p3 v0 out(0,0) no-credit waits[2]" +
		" | msg10@n2 p4 v0 out(-1,-1) no-free-vc waits[1]" +
		" | msg6@n3 p0 v0 out(2,0) no-credit waits[7]" +
		" | msg15@n3 p4 v0 out(-1,-1) no-free-vc waits[6]" +
		" | msg2@n5 p2 v0 out(0,0) no-credit waits[3]" +
		" | msg11@n5 p4 v0 out(-1,-1) no-free-vc waits[2]" +
		" | msg5@n6 p1 v0 out(2,0) no-credit waits[6]" +
		" | msg14@n6 p4 v0 out(-1,-1) no-free-vc waits[5]" +
		" | msg4@n7 p1 v0 out(3,0) no-credit waits[5]" +
		" | msg13@n7 p4 v0 out(-1,-1) no-free-vc waits[4]" +
		" | msg3@n8 p2 v0 out(3,0) no-credit waits[4]" +
		" | msg12@n8 p4 v0 out(-1,-1) no-free-vc waits[3]" +
		" | routers[0 1 2 3 5 6 7 8]"
	if got := postMortemTable((*reports)[0]); got != golden {
		t.Fatalf("post-mortem snapshot drifted:\n got: %s\nwant: %s", got, golden)
	}
}

// postMortemTable renders a report's wait cycle, blocked packets and
// snapshot router list on one line.
func postMortemTable(rep *trace.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle=%v", rep.WaitCycle)
	for _, bp := range rep.Blocked {
		fmt.Fprintf(&b, " | msg%d@n%d p%d v%d out(%d,%d) %s waits%v",
			bp.Msg, bp.Node, bp.InPort, bp.InVC, bp.OutPort, bp.OutVC, bp.Why, bp.WaitsOn)
	}
	routers := make([]int64, 0, len(rep.Routers))
	for _, rs := range rep.Routers {
		routers = append(routers, rs.Node)
	}
	fmt.Fprintf(&b, " | routers%v", routers)
	return b.String()
}
