package network

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Frozen copy of the switch-allocation walk as it stood before PR 22
// replaced it with rotate-and-mask nomination over the ready set: per
// input port a VC-by-VC round-robin walk with `%`, a live credit test
// per visited member, per-output nominee lists and `rrOut % len`. It is
// the reference TestSwitchMatchesFrozenWalk holds switchNode to; do not
// "modernise" it. It reads the network and writes only its own copies
// of the round-robin pointers and blockedNoted marks.

type oldSend struct{ from, fromPort, fromVC, outPort, outVC int }

type oldNominee struct{ port, vc int }

type oldSwitch struct {
	rrIn, rrOut []int
	noted       []bool // blockedNoted per input slot
	moves       []oldSend
	blocked     []trace.Event
}

func newOldSwitch(n *Network) *oldSwitch {
	o := &oldSwitch{
		rrIn:  rrInTable(n),
		rrOut: rrOutTable(n),
		noted: make([]bool, len(n.ins)),
	}
	for i := range n.ins {
		o.noted[i] = n.ins[i].flags&vcBlockedNoted != 0
	}
	return o
}

// rrInTable reads the routers' rrIn pointers into the flat table the
// frozen walk indexes node*inPorts+port; rrOutTable likewise rrOut
// (node*ports+port).
func rrInTable(n *Network) []int {
	t := make([]int, 0, n.lay.nodes*n.lay.inPorts)
	for node := 0; node < n.lay.nodes; node++ {
		for p := 0; p < n.lay.inPorts; p++ {
			t = append(t, n.rrIn(node, p))
		}
	}
	return t
}

func rrOutTable(n *Network) []int {
	t := make([]int, 0, n.lay.nodes*n.lay.ports)
	for node := 0; node < n.lay.nodes; node++ {
		for p := 0; p < n.lay.ports; p++ {
			t = append(t, n.rrOut(node, p))
		}
	}
	return t
}

func (o *oldSwitch) stage(n *Network) {
	for node := 0; node < n.lay.nodes; node++ {
		if n.saSet.count(node) == 0 || n.faults.NodeFaulty(topology.NodeID(node)) {
			continue
		}
		o.node(n, node)
	}
}

func (o *oldSwitch) node(n *Network, node int) {
	lay := &n.lay
	nomineesByOut := make([][]oldNominee, lay.ports)
	inBase := node * lay.inStride
	outBase := node * lay.outStride
	rrBase := node * lay.inPorts
	rrOutBase := node * lay.ports
	for p := 0; p < lay.inPorts; p++ {
		vcs := lay.vcs
		for off := 0; off < vcs; off++ {
			v := (o.rrIn[rrBase+p] + off) % vcs
			ivc := &n.ins[inBase+p*vcs+v]
			if ivc.outPort < 0 || ivc.len() == 0 {
				continue
			}
			if n.outs[outBase+int(ivc.outPort)*vcs+int(ivc.outVC)].credits <= 0 {
				if n.rec != nil && !o.noted[inBase+p*vcs+v] {
					o.noted[inBase+p*vcs+v] = true
					o.blocked = append(o.blocked, trace.Event{Cycle: n.now, Kind: trace.KFlitBlocked,
						Node: int32(node), Msg: ivc.curMsg.ID,
						Port: int16(ivc.outPort), VC: int16(ivc.outVC)})
				}
				continue
			}
			nomineesByOut[ivc.outPort] = append(nomineesByOut[ivc.outPort], oldNominee{p, v})
			o.rrIn[rrBase+p] = (v + 1) % vcs
			break
		}
	}
	for op, noms := range nomineesByOut {
		if len(noms) == 0 {
			continue
		}
		pick := noms[o.rrOut[rrOutBase+op]%len(noms)]
		if n.cfg.FavorMarked {
			start := o.rrOut[rrOutBase+op] % len(noms)
			for off := 0; off < len(noms); off++ {
				cand := noms[(start+off)%len(noms)]
				if m := n.ins[inBase+cand.port*lay.vcs+cand.vc].curMsg; m != nil && m.Hdr.Marked {
					pick = cand
					break
				}
			}
		}
		o.rrOut[rrOutBase+op]++
		ivc := &n.ins[inBase+pick.port*lay.vcs+pick.vc]
		o.moves = append(o.moves, oldSend{node, pick.port, pick.vc, int(ivc.outPort), int(ivc.outVC)})
	}
}

// eventLog is a trace sink keeping the events in emission order.
type eventLog struct{ evs []trace.Event }

func (l *eventLog) Emit(ev trace.Event) error { l.evs = append(l.evs, ev); return nil }
func (l *eventLog) Close() error              { return nil }

// switchCase is one saturated configuration the switch tests run.
type switchCase struct {
	name   string
	graph  func() (topology.Graph, routing.Algorithm)
	vcs    int
	faults int
}

var switchCases = []switchCase{
	{name: "cube8-routec", graph: func() (topology.Graph, routing.Algorithm) {
		h := topology.NewHypercube(8)
		return h, routing.NewRouteC(h)
	}},
	{name: "mesh16-nafta-faults", faults: 5, graph: func() (topology.Graph, routing.Algorithm) {
		m := topology.NewMesh(16, 16)
		return m, routing.NewNAFTA(m)
	}},
	// 9 VCs per port put port 7's field on bits 63..71 of a node's mask
	// words: the two-word extraction without an 8192-node cube.
	{name: "cube8-routec-9vc", vcs: 9, graph: func() (topology.Graph, routing.Algorithm) {
		h := topology.NewHypercube(8)
		return h, routing.NewRouteC(h)
	}},
}

// build makes the case's network with its faults applied, and a refill
// function that tops the load up to about two messages per node.
func (c switchCase) build(t *testing.T, cfg Config) (*Network, func()) {
	t.Helper()
	g, alg := c.graph()
	cfg.Graph, cfg.Algorithm, cfg.VCs = g, alg, c.vcs
	n := New(cfg)
	f := fault.NewSet()
	if c.faults > 0 {
		var err error
		if f, err = fault.Random(g, fault.RandomOptions{Nodes: c.faults, Seed: 3, KeepConnected: true}); err != nil {
			t.Fatal(err)
		}
		n.ApplyFaults(f)
	}
	rng := rand.New(rand.NewSource(11))
	return n, func() {
		for n.Queued()+n.InFlight() < 2*g.Nodes() {
			src, dst := topology.NodeID(rng.Intn(g.Nodes())), topology.NodeID(rng.Intn(g.Nodes()))
			if src != dst && !f.NodeFaulty(src) && !f.NodeFaulty(dst) {
				n.Inject(src, dst, 6)
			}
		}
	}
}

// TestSwitchMatchesFrozenWalk steps saturated networks stage by stage
// and, at the switch stage of every cycle, perturbs the round-robin
// pointers and blocked-episode marks of the live state at random and
// requires the switch stage to reproduce the frozen walk: the same
// grants in the same order, the same pointers afterwards, and with a
// recorder the same KFlitBlocked events in the same order.
func TestSwitchMatchesFrozenWalk(t *testing.T) {
	const cycles = 80
	states, multi, blocked, marked := 0, 0, 0, 0
	for _, c := range switchCases {
		for _, favor := range []bool{false, true} {
			// With a recorder the walk also visits credit-less
			// members; both forms run under every setting pair.
			for _, recorded := range []bool{true, false} {
				name := fmt.Sprintf("%s/favor=%v/rec=%v", c.name, favor, recorded)
				cfg := Config{BufDepth: 2, FavorMarked: favor}
				log := &eventLog{}
				if recorded {
					g, _ := c.graph()
					cfg.Recorder = trace.New(g.Nodes(), 8)
					cfg.Recorder.SetSink(log)
				}
				n, refill := c.build(t, cfg)
				rng := rand.New(rand.NewSource(int64(len(name))))
				for cyc := 0; cyc < cycles; cyc++ {
					refill()
					n.injectStage()
					n.routeStage()
					n.allocStage()
					for i := 0; i < n.lay.nodes*n.lay.inPorts; i++ {
						if rng.Intn(4) == 0 {
							n.setRRIn(i/n.lay.inPorts, i%n.lay.inPorts, rng.Intn(n.lay.vcs))
						}
					}
					for i := 0; i < n.lay.nodes*n.lay.ports; i++ {
						if rng.Intn(4) == 0 {
							n.setRROut(i/n.lay.ports, i%n.lay.ports, rng.Intn(1<<20))
						}
					}
					for i := range n.ins {
						if recorded && rng.Intn(8) == 0 {
							n.ins[i].flags ^= vcBlockedNoted
						}
					}
					want := newOldSwitch(n)
					want.stage(n)
					log.evs = log.evs[:0]
					moves := n.switchStage()
					got := make([]oldSend, len(moves))
					for i, mv := range moves {
						p, v := n.lay.portVC(int(mv.slot))
						ivc := &n.ins[int(mv.from)*n.lay.inStride+int(mv.slot)]
						got[i] = oldSend{int(mv.from), p, v, int(ivc.outPort), int(ivc.outVC)}
						if ivc.curMsg.Hdr.Marked {
							marked++
						}
					}
					if !slices.Equal(got, want.moves) {
						t.Fatalf("%s cycle %d: grants differ\n got %v\nwant %v", name, cyc, got, want.moves)
					}
					if !slices.Equal(rrInTable(n), want.rrIn) || !slices.Equal(rrOutTable(n), want.rrOut) {
						t.Fatalf("%s cycle %d: round-robin pointers differ after the stage", name, cyc)
					}
					for i := range n.ins {
						if noted := n.ins[i].flags&vcBlockedNoted != 0; noted != want.noted[i] {
							t.Fatalf("%s cycle %d: blockedNoted of input %d is %v, frozen walk says %v",
								name, cyc, i, noted, want.noted[i])
						}
					}
					if !slices.Equal(log.evs, want.blocked) {
						t.Fatalf("%s cycle %d: KFlitBlocked events differ\n got %v\nwant %v", name, cyc, log.evs, want.blocked)
					}
					states += int(n.saSet.size())
					blocked += len(want.blocked)
					multi += multiNominee(n, want)
					n.applyMoves(moves)
					n.drainStage()
					n.now++
					if cyc%16 == 0 {
						if err := n.CheckInvariants(); err != nil {
							t.Fatalf("%s cycle %d: %v", name, cyc, err)
						}
					}
				}
			}
		}
	}
	// The comparison is only worth its name if the runs reached the
	// interesting regimes.
	t.Logf("%d SA slots compared, %d contended grants, %d blocked events, %d marked grants", states, multi, blocked, marked)
	if states < 3000 || multi == 0 || blocked == 0 || marked == 0 {
		t.Fatalf("runs too tame: %d SA slots, %d contended grants, %d blocked events, %d marked grants",
			states, multi, blocked, marked)
	}
}

// multiNominee counts the output ports of this cycle that more than one
// input port could have been granted: two SA members of different input
// ports holding credit-backed VCs of the same output port.
func multiNominee(n *Network, o *oldSwitch) int {
	lay := &n.lay
	contended := 0
	for _, mv := range o.moves {
		ports := map[int]bool{}
		for slot := 0; slot < lay.inStride; slot++ {
			ivc := &n.ins[mv.from*lay.inStride+slot]
			if int(ivc.outPort) == mv.outPort && ivc.len() > 0 &&
				n.outs[lay.outIdx(mv.from, int(ivc.outPort), int(ivc.outVC))].credits > 0 {
				ports[int(lay.slotPort[slot])] = true
			}
		}
		if len(ports) > 1 {
			contended++
		}
	}
	return contended
}

// TestReadySetMatchesPredicate: after every Step of the saturated runs,
// and after a mid-run ApplyFaults, CheckInvariants holds — in
// particular ready == SA && credits > 0 for every slot and the alloc
// side array mirrors every inputVC.
func TestReadySetMatchesPredicate(t *testing.T) {
	const cycles = 60
	for _, c := range switchCases {
		n, refill := c.build(t, Config{BufDepth: 2})
		for cyc := 0; cyc < cycles; cyc++ {
			refill()
			n.Step()
			if cyc == cycles/2 {
				f := n.faults.Clone()
				f.FailNode(topology.NodeID(n.lay.nodes / 3))
				n.ApplyFaults(f)
			}
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("%s cycle %d: %v", c.name, cyc, err)
			}
		}
		if n.Stats().DeadlockSuspected {
			t.Fatalf("%s: watchdog fired", c.name)
		}
	}
}

// TestCheckInvariantsPolicesSwitchState: a stale ready bit, a missing
// one, a credit bit that disagrees with its output's credits, a member
// count that disagrees with its mask words, and a VA sleep bit on a
// slot outside the vaSet or on a head with a free candidate are each
// reported.
func TestCheckInvariantsPolicesSwitchState(t *testing.T) {
	n, refill := switchCases[0].build(t, Config{BufDepth: 2})
	refill()
	for i := 0; i < 40; i++ {
		n.Step()
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var readyNode, readySlot, blockedNode, blockedSlot = -1, -1, -1, -1
	n.saSet.forEach(func(node, slot int) {
		if n.rtr[n.lay.mask(kReady, node, slot)]&(1<<(slot&63)) != 0 {
			readyNode, readySlot = node, slot
		} else {
			blockedNode, blockedSlot = node, slot
		}
	})
	if readyNode < 0 || blockedNode < 0 {
		t.Fatal("need one ready and one credit-blocked SA member")
	}
	corrupt := func(what string, do, undo func()) {
		t.Helper()
		do()
		if err := n.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants accepted it", what)
		}
		undo()
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("%s: not restored: %v", what, err)
		}
	}
	corrupt("ready bit set on a credit-blocked member",
		func() { n.setReady(blockedNode, blockedSlot, true) },
		func() { n.setReady(blockedNode, blockedSlot, false) })
	corrupt("ready bit missing on a member with credit",
		func() { n.setReady(readyNode, readySlot, false) },
		func() { n.setReady(readyNode, readySlot, true) })
	ivc := &n.ins[readyNode*n.lay.inStride+readySlot]
	o := int(ivc.outPort)*n.lay.vcs + int(ivc.outVC)
	corrupt("credit bit clear on an output with credits",
		func() { n.setCredit(readyNode, o, false) },
		func() { n.setCredit(readyNode, o, true) })
	cnt := &n.rtr[readyNode*n.lay.rStride+n.lay.cntOff]
	corrupt("saSet count disagreeing with its mask words",
		func() { *cnt += 1 << n.saSet.cntShift },
		func() { *cnt -= 1 << n.saSet.cntShift })
	// A head is awake with a free candidate only between a release and
	// the next VA stage: step until a cycle ends on one.
	awakeNode, awakeSlot := -1, -1
	for cyc := 0; cyc < 200 && awakeNode < 0; cyc++ {
		refill()
		n.Step()
		n.vaSet.forEach(func(node, slot int) {
			for _, c := range n.candidates(node*n.lay.inStride + slot) {
				if n.outs[n.lay.outIdx(node, c.Port, c.VC)].free() {
					awakeNode, awakeSlot = node, slot
				}
			}
		})
	}
	// An SA member (allocated) is never a VA member.
	saNode, saSlot := -1, -1
	n.saSet.forEach(func(node, slot int) { saNode, saSlot = node, slot })
	if awakeNode < 0 || saNode < 0 {
		t.Fatal("need a VA member with a free candidate and a slot outside the vaSet")
	}
	// Both bits are clear in a consistent state, so one toggle sets and
	// the next restores.
	toggle := func(node, slot int) func() {
		return func() { n.rtr[n.lay.mask(kWait, node, slot)] ^= 1 << (slot & 63) }
	}
	corrupt("VA wait bit on a head with a free candidate", toggle(awakeNode, awakeSlot), toggle(awakeNode, awakeSlot))
	corrupt("VA wait bit outside the vaSet", toggle(saNode, saSlot), toggle(saNode, saSlot))
}
