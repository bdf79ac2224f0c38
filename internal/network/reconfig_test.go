package network

import (
	"testing"

	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

// A network built on the epoch swapper survives a mid-flight engine
// swap: pinned worms deliver, the old epoch retires at quiescence, and
// the swap/retire trace events land in the flight recorder.
func TestReconfigureHotSwapMidFlight(t *testing.T) {
	m := topology.NewMesh(4, 4)
	sw := reconfig.NewSwapper(routing.NewNAFTA(m))
	rec := trace.New(m.Nodes(), 64)
	n := New(Config{Graph: m, Algorithm: sw, Recorder: rec, RecordMessages: true})

	for i := 0; i < 6; i++ {
		n.Inject(topology.NodeID(i), topology.NodeID(15-i), 6)
	}
	n.Run(3) // worms are mid-flight now
	if n.InFlight() == 0 {
		t.Fatal("expected in-flight worms before the swap")
	}
	if err := n.Reconfigure(routing.NewNAFTA(m), false); err != nil {
		t.Fatal(err)
	}
	if sw.CurrentEpoch() != 2 {
		t.Fatalf("epoch %d after swap, want 2", sw.CurrentEpoch())
	}
	if !n.Drain(10000) {
		t.Fatal("network failed to drain after the hot swap")
	}
	st := n.Stats()
	if st.Delivered != 6 || st.Dropped != 0 || st.Killed != 0 {
		t.Fatalf("delivered %d, dropped %d, killed %d — worms lost across the swap",
			st.Delivered, st.Dropped, st.Killed)
	}
	if !sw.Quiesced() {
		t.Fatalf("%d epochs live after the drain", sw.LiveEpochs())
	}
	var sawSwap, sawRetire bool
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case trace.KReconfigSwap:
			sawSwap = ev.Arg == 2
		case trace.KEpochRetired:
			sawRetire = ev.Arg == 1
		}
	}
	if !sawSwap || !sawRetire {
		t.Fatalf("trace events missing: swap=%v retire=%v", sawSwap, sawRetire)
	}
}

// A forced swap across incompatible regimes drains the network first;
// without force it is refused and the engine stays.
func TestReconfigureRegimeGateAndForce(t *testing.T) {
	m := topology.NewMesh(4, 4)
	sw := reconfig.NewSwapper(routing.NewNAFTA(m))
	// 5 VCs so the nara engine (which declares no regime) fits too.
	n := New(Config{Graph: m, Algorithm: sw, VCs: 5})
	n.Inject(0, 15, 4)
	n.Run(2)
	other := routing.NewNARA(m) // no DeadlockRegime: incompatible tag
	if err := n.Reconfigure(other, false); err == nil {
		t.Fatal("incompatible regime swapped without force")
	}
	if sw.CurrentEpoch() != 1 {
		t.Fatal("refused swap advanced the epoch")
	}
	if err := n.Reconfigure(other, true); err != nil {
		t.Fatal(err)
	}
	if !n.Idle() {
		t.Fatal("forced swap did not drain the network")
	}
	if sw.CurrentEpoch() != 2 {
		t.Fatalf("epoch %d after forced swap, want 2", sw.CurrentEpoch())
	}
}

// Without a swapper the engine cannot be replaced, busy or idle, and
// an engine needing more VCs than the network carries is always
// refused.
func TestReconfigureColdSwapRules(t *testing.T) {
	m := topology.NewMesh(4, 4)
	n := New(Config{Graph: m, Algorithm: routing.NewNARA(m)})
	n.Inject(0, 15, 4)
	n.Run(1)
	if err := n.Reconfigure(routing.NewNAFTA(m), false); err == nil {
		t.Fatal("swap accepted on a busy network without a swapper")
	}
	if !n.Drain(10000) {
		t.Fatal("drain failed")
	}
	if err := n.Reconfigure(routing.NewNAFTA(m), true); err == nil {
		t.Fatal("forced swap accepted on an idle network without a swapper")
	}
	// ROUTE_C needs 5 VCs and the e-cube network carries 1: refused
	// even behind a swapper.
	h := topology.NewHypercube(4)
	nh := New(Config{Graph: h, Algorithm: reconfig.NewSwapper(routing.NewECube(h))})
	if err := nh.Reconfigure(routing.NewRouteC(h), false); err == nil {
		t.Fatal("engine needing 5 VCs accepted by a 1-VC network")
	}
}
