package network

import (
	"math/bits"
	"slices"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Frozen copy of the VC-allocation walk as it stood before PR 23 put
// blocked heads to sleep (the wait mask): every vaSet member re-filters its
// candidates every cycle. It is the reference TestAllocMatchesFrozenWalk
// holds allocStage to; do not "modernise" it. The only additions are the
// three counters, and the header update: both walks apply the granted
// candidate's Hop, where the algorithm used to be told of the hop.
type oldAlloc struct {
	visits, blocked, creditLess int
}

func (o *oldAlloc) stage(n *Network) {
	needCredit := n.alg.AllocNeedsCredit()
	n.vaSet.forEach(func(node, slot int) {
		if n.faults.NodeFaulty(topology.NodeID(node)) {
			return
		}
		ivc := &n.ins[node*n.lay.inStride+slot]
		if n.now < ivc.decisionReady {
			return
		}
		o.visits++
		outBase := node * n.lay.outStride
		free := n.freeScratch[:0]
		for _, c := range n.candidates(node*n.lay.inStride + slot) {
			oi := outBase + c.Port*n.lay.vcs + c.VC
			if n.outs[oi].free() && (!needCredit || n.outs[oi].credits > 0) {
				free = append(free, c)
			} else if n.outs[oi].free() {
				o.creditLess++
			}
		}
		n.freeScratch = free[:0] // selectors do not retain the slice
		if len(free) == 0 {
			o.blocked++
			return
		}
		p, v := n.lay.portVC(slot)
		m := n.frontMsg(node*n.lay.inStride + slot)
		chosen := n.sel.Select(n, topology.NodeID(node), free, &m.Hdr)
		routing.ApplyHop(&m.Hdr, topology.NodeID(node), chosen)
		ivc.outPort, ivc.outVC = int8(chosen.Port), int8(chosen.VC)
		n.claimOutput(node, p*n.lay.vcs+v, chosen.Port*n.lay.vcs+chosen.VC, m)
		n.noteInput(node, slot)
		if n.rec != nil {
			n.rec.Record(trace.Event{Cycle: n.now, Kind: trace.KVCAllocated,
				Node: int32(node), Msg: m.ID, Port: int16(chosen.Port), VC: int16(chosen.VC)})
		}
	})
}

// waitBits counts the VA sleep bits of every router record.
func waitBits(n *Network) int {
	slept := 0
	for node := 0; node < n.lay.nodes; node++ {
		for k := 0; k < n.lay.wpn; k++ {
			slept += bits.OnesCount64(n.rtr[n.lay.mask(kWait, node, k<<6)])
		}
	}
	return slept
}

// allocCall is one observable act of the VA stage, in call order: the
// selector asked (kind 's', nfree candidates offered) or KVCAllocated
// recorded (kind 'e', with the header after the granted hop).
type allocCall struct {
	kind             byte
	node             int
	msg              int64
	outPort, outVC   int
	nfree, firstFree int
	hdr              routing.Header
}

// allocLog collects the calls; selected is the header the selector was
// last asked about, which the network updates before it records the
// allocation.
type allocLog struct {
	calls    []allocCall
	selected *routing.Header
}

func (l *allocLog) Emit(ev trace.Event) error {
	if ev.Kind == trace.KVCAllocated {
		l.calls = append(l.calls, allocCall{kind: 'e', node: int(ev.Node), msg: ev.Msg,
			outPort: int(ev.Port), outVC: int(ev.VC), hdr: *l.selected})
	}
	return nil
}
func (l *allocLog) Close() error { return nil }

type loggedSelector struct {
	inner routing.Selector
	log   *allocLog
}

func (s loggedSelector) Name() string { return s.inner.Name() }
func (s loggedSelector) Select(lv routing.LoadView, node topology.NodeID, cands []routing.Candidate, h *routing.Header) routing.Candidate {
	chosen := s.inner.Select(lv, node, cands, h)
	s.log.calls = append(s.log.calls, allocCall{kind: 's', node: int(node), outPort: chosen.Port, outVC: chosen.VC,
		nfree: len(cands), firstFree: cands[0].Port*64 + cands[0].VC})
	s.log.selected = h
	return chosen
}

// allocCases are the saturated switch configurations plus a faulted maze
// mesh, the credit-gated regime.
var allocCases = append(slices.Clone(switchCases), switchCase{
	name: "mesh8-maze-faults", faults: 3, graph: func() (topology.Graph, routing.Algorithm) {
		m := topology.NewMesh(8, 8)
		alg, err := routing.NewMaze(m)
		if err != nil {
			panic(err)
		}
		return m, alg
	}})

// TestAllocMatchesFrozenWalk steps twin saturated networks stage by
// stage — one through allocStage, one through the frozen walk — across a
// mid-run fault event, and requires every cycle's selector calls and
// KVCAllocated events, with the header after each granted hop, to agree
// in content and order, and the output ownership to be the same
// afterwards.
func TestAllocMatchesFrozenWalk(t *testing.T) {
	const cycles = 120
	for _, c := range allocCases {
		var nets [2]*Network
		var logs [2]*allocLog
		var refill [2]func()
		for i := range nets {
			logs[i] = &allocLog{}
			g, _ := c.graph()
			rec := trace.New(g.Nodes(), 8)
			rec.SetSink(logs[i])
			nets[i], refill[i] = c.build(t, Config{BufDepth: 2,
				Selector: loggedSelector{routing.MinQueue{}, logs[i]}, Recorder: rec})
		}
		old := &oldAlloc{}
		slept, allocs := 0, 0
		for cyc := 0; cyc < cycles; cyc++ {
			if cyc == cycles/2 {
				for _, n := range nets {
					f := n.faults.Clone()
					f.FailNode(topology.NodeID(n.lay.nodes / 3))
					n.ApplyFaults(f)
				}
			}
			for i, n := range nets {
				refill[i]()
				n.injectStage()
				n.routeStage()
				logs[i].calls = logs[i].calls[:0]
			}
			nets[0].allocStage()
			old.stage(nets[1])
			if !slices.Equal(logs[0].calls, logs[1].calls) {
				t.Fatalf("%s cycle %d: VA acts differ\n got %v\nwant %v", c.name, cyc, logs[0].calls, logs[1].calls)
			}
			allocs += len(logs[0].calls) / 2
			for i := range nets[0].outs {
				a, b := &nets[0].outs[i], &nets[1].outs[i]
				if a.owner != b.owner || a.remaining != b.remaining ||
					(a.ownerMsg == nil) != (b.ownerMsg == nil) || (a.ownerMsg != nil && a.ownerMsg.ID != b.ownerMsg.ID) {
					t.Fatalf("%s cycle %d: output %d owned differently: %+v vs frozen %+v", c.name, cyc, i, *a, *b)
				}
			}
			slept += waitBits(nets[0])
			for _, n := range nets {
				n.applyMoves(n.switchStage())
				n.drainStage()
				n.now++
			}
			if err := nets[0].CheckInvariants(); err != nil {
				t.Fatalf("%s cycle %d: %v", c.name, cyc, err)
			}
		}
		if nets[0].Stats() != nets[1].Stats() {
			t.Fatalf("%s: stats differ: %+v vs frozen %+v", c.name, nets[0].Stats(), nets[1].Stats())
		}
		t.Logf("%s: %d allocations; frozen walk %d visits, %d blocked, %d free-but-credit-less candidates; %d head-cycles asleep",
			c.name, allocs, old.visits, old.blocked, old.creditLess, slept)
		// The comparison is only worth its name where most visits of
		// the old walk were wasted, and the sleepers were really asleep.
		if 2*old.blocked < old.visits || allocs == 0 || slept == 0 {
			t.Fatalf("%s too tame: %d of %d visits blocked, %d allocations, %d head-cycles asleep",
				c.name, old.blocked, old.visits, allocs, slept)
		}
		if nets[0].alg.AllocNeedsCredit() && old.creditLess == 0 {
			t.Fatalf("%s: no free-but-credit-less candidate met, the credit-gated stay-awake rule went untested", c.name)
		}
	}
}
