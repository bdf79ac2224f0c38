package network

import (
	"math/bits"
	"testing"
	"unsafe"

	"repro/internal/routing"
	"repro/internal/topology"
)

// lines returns the 64-byte lines that words [from, to) of a
// line-aligned record span.
func lines(from, to int) int {
	return (to-1)/lineWords - from/lineWords + 1
}

// TestHopRecordsFitLines holds the router-major layout to its line
// budget for the two shipped layouts: a body flit moving X -> Y, its
// credit going back to U, touches X's router record up to rrOut, X's
// slot and output records, Y's slot record, the hop words of Y's router
// record (sa, ready, credit mask, counts), U's output record and the
// same hop words of U's — at most 8 lines (DESIGN.md §7.1).
func TestHopRecordsFitLines(t *testing.T) {
	const budget = 8
	slot, out := int(unsafe.Sizeof(inputVC{})), int(unsafe.Sizeof(outputVC{}))
	if slot != 64 {
		t.Errorf("slot record inputVC is %d bytes, budget one 64-byte line (ringCap %d)", slot, ringCap)
	}
	if out > 64 || 64%out != 0 {
		t.Errorf("output record outputVC is %d bytes, budget a divisor of one 64-byte line", out)
	}
	for _, c := range []struct {
		name       string
		ports, vcs int
	}{{"mesh (4 ports, 2 VCs)", 4, 2}, {"cube8 ROUTE_C (8 ports, 5 VCs)", 8, 5}} {
		l := newLayout(16, c.ports, c.vcs)
		hopWords := l.cntOff + 1 // sa, ready, credit mask, counts
		if l.maskOff[kSA] >= hopWords || l.maskOff[kReady] >= hopWords || l.credOff >= hopWords {
			t.Errorf("%s: router record puts a hop mask behind the counts word", c.name)
		}
		x := lines(0, l.rrOutOff+(c.ports+1)/2) // + rrIn, rrOut
		y := lines(0, hopWords)
		if y != 1 {
			t.Errorf("%s: router record's hop words span %d lines, budget 1", c.name, y)
		}
		if l.rStride%lineWords != 0 || l.rStride > 2*lineWords {
			t.Errorf("%s: router record is %d words, budget two whole lines", c.name, l.rStride)
		}
		hop := x + 1 + 1 + 1 + y + 1 + y // X router, X slot, X out, Y slot, Y router, U out, U router
		t.Logf("%s: router record %d B, slot %d B, output %d B; a body-flit hop touches %d lines", c.name, 8*l.rStride, slot, out, hop)
		if hop > budget {
			t.Errorf("%s: a body-flit hop touches %d lines, budget %d", c.name, hop, budget)
		}
	}
	// The count assumes each arena starts on a line boundary, which the
	// Go allocator gives arrays of more than 32 KB (they are page-aligned).
	m := topology.NewMesh(64, 64)
	n := New(Config{Graph: m, Algorithm: routing.NewNAFTA(m)})
	for name, p := range map[string]unsafe.Pointer{"ins": unsafe.Pointer(&n.ins[0]),
		"outs": unsafe.Pointer(&n.outs[0]), "rtr": unsafe.Pointer(&n.rtr[0])} {
		if uintptr(p)%64 != 0 {
			t.Errorf("mesh64x64 %s arena starts mid-line", name)
		}
	}
}

// TestRouterRecordsMatchPredicates steps the saturated switch cases
// across a mid-run fault event and, after every step, rebuilds every
// router record's masks, member counts and set summaries from the slot
// and output records alone and requires them word for word.
func TestRouterRecordsMatchPredicates(t *testing.T) {
	const cycles = 60
	for _, c := range switchCases {
		n, refill := c.build(t, Config{BufDepth: 2})
		lay := &n.lay
		checked := 0
		for cyc := 0; cyc < cycles; cyc++ {
			refill()
			n.Step()
			if cyc == cycles/2 {
				f := n.faults.Clone()
				f.FailNode(topology.NodeID(lay.nodes / 3))
				n.ApplyFaults(f)
			}
			sets := [...]*vcSet{kRoute: &n.routeSet, kVA: &n.vaSet, kSA: &n.saSet, kDrain: &n.drainSet}
			for node := 0; node < lay.nodes; node++ {
				// The round-robin pointers and the VA sleep bits are history,
				// not predicates (CheckInvariants polices the sleep bits):
				// copied; every other word is rebuilt.
				want := make([]uint64, lay.rStride)
				copy(want[lay.rrInOff:lay.rrOutOff+(lay.ports+1)/2], n.rtr[node*lay.rStride+lay.rrInOff:])
				copy(want[lay.maskOff[kWait]:lay.maskOff[kWait]+lay.wpn], n.rtr[node*lay.rStride+lay.maskOff[kWait]:])
				for slot := 0; slot < lay.inStride; slot++ {
					ivc := &n.ins[node*lay.inStride+slot]
					qlen := ivc.len()
					member := [...]bool{
						kRoute: !ivc.routed() && qlen > 0 && ivc.front().head(),
						kVA:    ivc.routed() && !ivc.eject() && !ivc.unroutable() && ivc.outPort < 0,
						kSA:    ivc.outPort >= 0 && qlen > 0,
						kDrain: ivc.routed() && (ivc.eject() || ivc.unroutable()) && qlen > 0,
					}
					for k, in := range member {
						if in {
							want[lay.maskOff[k]+slot>>6] |= 1 << (slot & 63)
							want[lay.cntOff] += 1 << (16 * k)
						}
					}
					if member[kSA] && n.outs[node*lay.outStride+int(ivc.outPort)*lay.vcs+int(ivc.outVC)].credits > 0 {
						want[lay.maskOff[kReady]+slot>>6] |= 1 << (slot & 63)
					}
				}
				for o := 0; o < lay.outStride; o++ {
					if n.outs[node*lay.outStride+o].credits > 0 {
						want[lay.credOff+o>>6] |= 1 << (o & 63)
					}
					if !n.outs[node*lay.outStride+o].free() {
						want[lay.ownOff+o>>6] |= 1 << (o & 63)
					}
				}
				got := n.rtr[node*lay.rStride : (node+1)*lay.rStride]
				for w := range want {
					if got[w] != want[w] {
						t.Fatalf("%s cycle %d node %d: router record word %d is %#x, the slot and output records say %#x",
							c.name, cyc, node, w, got[w], want[w])
					}
				}
				for k, s := range sets {
					active := s.nodeBits[node>>6]&(1<<(node&63)) != 0
					if members := int(want[lay.cntOff] >> (16 * k) & 0xFFFF); active != (members > 0) {
						t.Fatalf("%s cycle %d node %d: set %d summary bit %v with %d members", c.name, cyc, node, k, active, members)
					}
				}
				owned := 0
				for k := 0; k < lay.wpo; k++ {
					owned += bits.OnesCount64(want[lay.ownOff+k])
				}
				if n.ownNodes.has(node) != (owned > 0) {
					t.Fatalf("%s cycle %d node %d: owned-output summary bit %v with %d owned outputs", c.name, cyc, node, n.ownNodes.has(node), owned)
				}
				checked++
			}
		}
		t.Logf("%s: %d router records rebuilt and compared", c.name, checked)
	}
}

// repeatedCands offers each of its algorithm's candidates four times:
// the same decision, in a list too long for a slot's packed candSet.
type repeatedCands struct{ routing.Algorithm }

func (a repeatedCands) RouteAppend(req routing.Request, buf []routing.Candidate) []routing.Candidate {
	cs := a.Algorithm.RouteAppend(req, nil)
	for _, c := range cs {
		buf = append(buf, c, c, c, c)
	}
	return buf
}

// TestLongCandidateListsSpill: candidate lists longer than a candSet
// holds go to the side map and decide exactly as the short lists do
// (the selector keeps the first of equal candidates).
func TestLongCandidateListsSpill(t *testing.T) {
	run := func(wrap bool) (Stats, int) {
		m := topology.NewMesh(8, 8)
		var alg routing.Algorithm = routing.NewNAFTA(m)
		if wrap {
			alg = repeatedCands{alg}
		}
		n := New(Config{Graph: m, Algorithm: alg, BufDepth: 2})
		for i := 0; i < 300; i++ {
			n.Inject(topology.NodeID(i*7%64), topology.NodeID(i*13%64), 6)
			n.Step()
			if err := n.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
		if !n.Drain(20000) {
			t.Fatal("network did not drain")
		}
		return n.Stats(), len(n.candMore)
	}
	want, _ := run(false)
	got, spilled := run(true)
	if spilled == 0 {
		t.Fatal("no candidate list spilled")
	}
	if got != want {
		t.Fatalf("spilled candidate lists changed the run:\n got %+v\nwant %+v", got, want)
	}
}
