package reconfig

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/rulesets"
	"repro/internal/topology"
)

// fakeAlg is a minimal engine with an observable lifecycle.
type fakeAlg struct {
	routing.Defaults
	name        string
	regime      string
	invalidated bool
	faults      *fault.Set
	loads       routing.LoadView
	port        int // distinctive RouteAppend answer
}

func (f *fakeAlg) Name() string { return f.name }
func (f *fakeAlg) NumVCs() int  { return 2 }
func (f *fakeAlg) RouteAppend(_ routing.Request, buf []routing.Candidate) []routing.Candidate {
	return append(buf, routing.Candidate{Port: f.port})
}
func (f *fakeAlg) Steps(routing.Request) int      { return 1 }
func (f *fakeAlg) UpdateFaults(fs *fault.Set)     { f.faults = fs }
func (f *fakeAlg) DeadlockRegime() string         { return f.regime }
func (f *fakeAlg) InvalidateTables()              { f.invalidated = true }
func (f *fakeAlg) AttachLoads(v routing.LoadView) { f.loads = v }

// stubLoads is an idle load view.
type stubLoads struct{}

func (stubLoads) Credits(topology.NodeID, int, int) int     { return 4 }
func (stubLoads) QueuedFlits(topology.NodeID, int, int) int { return 0 }

func routeEpoch(s *Swapper, epoch uint64) int {
	hdr := routing.Header{Epoch: epoch}
	return s.RouteAppend(routing.Request{Hdr: &hdr}, nil)[0].Port
}

func TestSwapperEpochPinning(t *testing.T) {
	a := &fakeAlg{name: "a", regime: "r", port: 10}
	b := &fakeAlg{name: "b", regime: "r", port: 20}
	s := NewSwapper(a)
	if got := s.CurrentEpoch(); got != 1 {
		t.Fatalf("initial epoch %d, want 1", got)
	}
	if e := s.AdmitEpoch(); e != 1 {
		t.Fatalf("admitted under epoch %d, want 1", e)
	}
	oldE, newE, err := s.Swap(b, false)
	if err != nil || oldE != 1 || newE != 2 {
		t.Fatalf("swap: %d -> %d, %v", oldE, newE, err)
	}
	// The pinned worm keeps routing on a; new admissions use b.
	if p := routeEpoch(s, 1); p != 10 {
		t.Fatalf("epoch-1 worm routed by port %d, want old engine (10)", p)
	}
	if e := s.AdmitEpoch(); e != 2 {
		t.Fatalf("post-swap admission epoch %d, want 2", e)
	}
	if p := routeEpoch(s, 2); p != 20 {
		t.Fatalf("epoch-2 worm routed by port %d, want new engine (20)", p)
	}
	if s.LiveEpochs() != 2 || a.invalidated {
		t.Fatalf("old epoch retired early (live=%d, invalidated=%v)", s.LiveEpochs(), a.invalidated)
	}
	// Quiescence: the last epoch-1 worm leaves, epoch 1 retires.
	var retired []uint64
	s.OnEpochRetired(func(e uint64) { retired = append(retired, e) })
	s.ReleaseEpoch(1)
	if !a.invalidated {
		t.Fatal("retired engine's tables were not invalidated")
	}
	if s.LiveEpochs() != 1 || !s.Quiesced() {
		t.Fatalf("epoch 1 not retired: %d live", s.LiveEpochs())
	}
	if len(retired) != 1 || retired[0] != 1 {
		t.Fatalf("retire hooks saw %v, want [1]", retired)
	}
	// A late lookup for the dead epoch falls forward to the current
	// engine rather than resurrecting the retired one.
	if p := routeEpoch(s, 1); p != 20 {
		t.Fatalf("dead-epoch route answered by port %d, want current engine (20)", p)
	}
	if s.Swaps() != 1 || s.Retired() != 1 {
		t.Fatalf("counters: %d swaps, %d retired", s.Swaps(), s.Retired())
	}
}

func TestSwapperImmediateRetireWhenUnpinned(t *testing.T) {
	a := &fakeAlg{name: "a", regime: "r"}
	s := NewSwapper(a)
	if _, _, err := s.Swap(&fakeAlg{name: "b", regime: "r"}, false); err != nil {
		t.Fatal(err)
	}
	if !a.invalidated || s.LiveEpochs() != 1 {
		t.Fatalf("unpinned old epoch survived the swap (live=%d)", s.LiveEpochs())
	}
}

func TestSwapperRegimeGate(t *testing.T) {
	a := &fakeAlg{name: "a", regime: "mesh-vnet/2vc"}
	c := &fakeAlg{name: "c", regime: "cube-phase/5vc"}
	s := NewSwapper(a)
	if _, _, err := s.Swap(c, false); !errors.Is(err, ErrRegimeMismatch) {
		t.Fatalf("incompatible regimes swapped: %v", err)
	}
	if s.CurrentEpoch() != 1 || s.Current() != routing.Algorithm(a) {
		t.Fatal("refused swap still changed the engine")
	}
	if _, _, err := s.Swap(c, true); err != nil {
		t.Fatalf("forced swap refused: %v", err)
	}
	if s.CurrentEpoch() != 2 {
		t.Fatalf("forced swap epoch %d, want 2", s.CurrentEpoch())
	}
}

// The fault state and load view are router knowledge, not table
// state: engines swapped in later must receive both.
func TestSwapperReplaysStateOntoNewEngines(t *testing.T) {
	a := &fakeAlg{name: "a", regime: "r"}
	s := NewSwapper(a)
	fs := fault.NewSet()
	fs.FailNode(3)
	s.UpdateFaults(fs)
	s.AttachLoads(stubLoads{})
	if a.faults != fs || a.loads == nil {
		t.Fatal("state not forwarded to the live engine")
	}
	b := &fakeAlg{name: "b", regime: "r"}
	if _, _, err := s.Swap(b, false); err != nil {
		t.Fatal(err)
	}
	if b.faults != fs {
		t.Fatal("fault state not replayed onto the swapped-in engine")
	}
	if b.loads == nil {
		t.Fatal("load view not replayed onto the swapped-in engine")
	}
}

// System-level version of the stale-vector hardening: a reference to
// the retired rule-table adapter must fail loudly on its next decision
// (its dense tables were invalidated at retirement) instead of
// routing on tables of a dead epoch.
func TestSwapperRetiredAdapterFailsLoudly(t *testing.T) {
	m := topology.NewMesh(4, 4)
	old, err := rulesets.NewRuleNAFTA(m)
	if err != nil {
		t.Fatal(err)
	}
	old.AttachLoads(stubLoads{})
	s := NewSwapper(old)
	s.AttachLoads(stubLoads{})
	s.AdmitEpoch() // one in-flight worm pins epoch 1

	next, err := rulesets.NewRuleNAFTA(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Swap(next, false); err != nil {
		t.Fatal(err)
	}
	hdr := routing.Header{Src: 0, Dst: 5, Length: 4, Epoch: 1}
	req := routing.Request{Node: 0, InPort: routing.InjectionPort, Hdr: &hdr}
	if got := s.RouteAppend(req, nil); len(got) == 0 {
		t.Fatal("pinned worm unroutable before retirement")
	}
	s.ReleaseEpoch(1) // quiescence: epoch 1 retires, tables invalidated

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("retired adapter still served a decision")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "invalidated dense table") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	old.RouteAppend(req, nil)
}
