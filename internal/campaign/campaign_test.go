package campaign

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/topology"
)

// A small campaign of each family must come back clean: the rule
// adapters are conformant, so every oracle (invariants, conservation,
// justified drops, differential agreement) holds.
func TestCampaignCleanNAFTA(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs many simulations")
	}
	out, err := Run(Options{Algo: AlgoNAFTA, Scenarios: 8, Seed: 1, Differential: true, Shrink: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed() {
		t.Fatalf("clean campaign reported violations: %+v", out.Reports[0].Violations)
	}
	if out.Scenarios != 8 {
		t.Fatalf("ran %d scenarios", out.Scenarios)
	}
}

func TestCampaignCleanRouteC(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs many simulations")
	}
	out, err := Run(Options{Algo: AlgoRouteC, Scenarios: 8, Seed: 1, Differential: true, Shrink: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed() {
		t.Fatalf("clean campaign reported violations: %+v", out.Reports[0].Violations)
	}
}

// Generation is deterministic in the seed and decorrelated across
// scenario indices.
func TestGenerateDeterministic(t *testing.T) {
	opts := Options{Algo: AlgoNAFTA, Scenarios: 20, Seed: 7}
	a, err := Generate(&opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(&opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must generate identical scenarios")
	}
	opts.Seed = 8
	c, err := Generate(&opts)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should generate different scenarios")
	}
	for i := range a {
		if a[i].Algo != AlgoNAFTA || a[i].Rate <= 0 || a[i].Length < 2 {
			t.Fatalf("scenario %d malformed: %+v", i, a[i])
		}
		if a[i].atoms() == 0 {
			t.Fatalf("scenario %d has no faults", i)
		}
		final := a[i].FaultStateAt(1 << 62)
		g, err := a[i].Graph()
		if err != nil {
			t.Fatal(err)
		}
		if comps := topology.Components(g, final.Filter()); len(comps) != 1 {
			// Static patterns are KeepConnected by construction; only
			// chains/L-shapes could in principle differ, and they never
			// partition the mesh sizes used.
			t.Fatalf("scenario %d final fault state partitions the network: %v", i, final)
		}
	}
}

// brokenAlg wraps a conformant algorithm and refuses to route anything
// once a designated poison node is in the fault set — the model of a
// broken rule table the campaign exists to catch. It embeds the
// algorithm it sabotages, so everything but the decision is the real
// engine's.
type brokenAlg struct {
	routing.Algorithm
	poison topology.NodeID
	bad    bool
}

func (b *brokenAlg) UpdateFaults(f *fault.Set) {
	b.bad = f.NodeFaulty(b.poison)
	b.Algorithm.UpdateFaults(f)
}

func (b *brokenAlg) RouteAppend(r routing.Request, buf []routing.Candidate) []routing.Candidate {
	if b.bad {
		return buf
	}
	return b.Algorithm.RouteAppend(r, buf)
}

// A deliberately broken wrapper must (1) trip the unjustified-drop
// oracle, (2) shrink deterministically to the single poison fault, and
// (3) round-trip through the JSON artifact into a replay that still
// reproduces.
func TestBrokenWrapperShrinksAndReplays(t *testing.T) {
	m := topology.NewMesh(6, 6)
	poison := m.Node(2, 2)
	opts := Options{
		Algo: AlgoNAFTA,
		Seed: 1,
		Factory: func(s *Scenario, oracle bool) (routing.Algorithm, error) {
			return &brokenAlg{Algorithm: routing.NewNAFTA(m), poison: poison}, nil
		},
	}
	s := Scenario{
		ID: 0, Algo: AlgoNAFTA, MeshW: 6, MeshH: 6,
		Seed: 11, Rate: 0.08, Length: 6,
		Warmup: 200, Measure: 800, Drain: 20000, LivelockAge: 20000,
		FaultNodes: []int{int(m.Node(5, 0)), int(poison), int(m.Node(0, 5))},
		FaultLinks: [][2]int{{int(m.Node(4, 4)), int(m.Node(4, 5))}},
		Events:     []TimedFault{{Time: 600, Kind: "link", A: int(m.Node(1, 4)), B: int(m.Node(2, 4))}},
	}
	vio, _, err := Evaluate(&s, &opts)
	if err != nil {
		t.Fatal(err)
	}
	hasDrop := false
	for _, v := range vio {
		if v.Kind == "unjustified-drop" {
			hasDrop = true
		}
	}
	if !hasDrop {
		t.Fatalf("broken wrapper not caught; violations: %v", vio)
	}

	shrunk, svio, ok := Shrink(&s, &opts)
	if !ok {
		t.Fatal("violation did not reproduce under shrinking")
	}
	if len(svio) == 0 {
		t.Fatal("shrunk scenario reports no violations")
	}
	want := Scenario{
		ID: 0, Algo: AlgoNAFTA, MeshW: 6, MeshH: 6,
		Seed: 11, Rate: 0.08, Length: 6,
		Warmup: 200, Measure: 800, Drain: 20000, LivelockAge: 20000,
		FaultNodes: []int{int(poison)},
	}
	if !reflect.DeepEqual(shrunk, want) {
		t.Fatalf("shrink not minimal:\n got %+v\nwant %+v", shrunk, want)
	}
	// Shrinking is deterministic: a second pass lands on the same
	// minimum.
	again, _, ok := Shrink(&s, &opts)
	if !ok || !reflect.DeepEqual(again, shrunk) {
		t.Fatalf("shrink not deterministic:\n got %+v\nwant %+v", again, shrunk)
	}

	// JSON round trip and replay.
	art := NewArtifact(&opts, &Outcome{Scenarios: 1, Reports: []ScenarioReport{{
		Scenario: s, Violations: vio, Shrunk: &shrunk, ShrunkViolations: svio,
	}}})
	var buf bytes.Buffer
	if err := art.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded.Reports[0].Scenario, s) ||
		!reflect.DeepEqual(*decoded.Reports[0].Shrunk, shrunk) {
		t.Fatal("artifact did not round-trip the scenarios")
	}
	reports, err := Replay(decoded, &opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || len(reports[0].Violations) == 0 {
		t.Fatalf("replay of the shrunk scenario must reproduce; got %+v", reports)
	}
}

// A conformant scenario evaluated directly must be violation-free, and
// FaultStateAt must accumulate events monotonically.
func TestEvaluateCleanAndFaultStateAt(t *testing.T) {
	s := Scenario{
		ID: 0, Algo: AlgoNAFTA, MeshW: 6, MeshH: 6,
		Seed: 3, Rate: 0.06, Length: 6,
		Warmup: 200, Measure: 600, Drain: 20000, LivelockAge: 20000,
		FaultNodes: []int{14},
		Events: []TimedFault{
			{Time: 400, Kind: "node", Node: 27},
			{Time: 500, Kind: "link", A: 3, B: 9},
		},
	}
	opts := Options{Algo: AlgoNAFTA, Differential: true}
	vio, _, err := Evaluate(&s, &opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(vio) != 0 {
		t.Fatalf("conformant scenario violated: %v", vio)
	}
	if f := s.FaultStateAt(399); f.NodeCount() != 1 || f.LinkCount() != 0 {
		t.Fatalf("state at 399: %v", f)
	}
	if f := s.FaultStateAt(400); f.NodeCount() != 2 || f.LinkCount() != 0 {
		t.Fatalf("state at 400: %v", f)
	}
	if f := s.FaultStateAt(9999); f.NodeCount() != 2 || f.LinkCount() != 1 {
		t.Fatalf("state at 9999: %v", f)
	}
}

// withAtoms must slice the fault story exactly.
func TestWithAtoms(t *testing.T) {
	s := Scenario{
		FaultNodes: []int{1, 2},
		FaultLinks: [][2]int{{3, 4}},
		Events:     []TimedFault{{Time: 9, Kind: "node", Node: 5}},
	}
	if s.atoms() != 4 {
		t.Fatalf("atoms = %d", s.atoms())
	}
	c := s.withAtoms([]int{0, 2, 3})
	if !reflect.DeepEqual(c.FaultNodes, []int{1}) ||
		!reflect.DeepEqual(c.FaultLinks, [][2]int{{3, 4}}) ||
		len(c.Events) != 1 || c.Events[0].Node != 5 {
		t.Fatalf("withAtoms sliced wrong: %+v", c)
	}
	if got := s.withAtoms(nil); got.atoms() != 0 {
		t.Fatalf("empty keep should strip all atoms: %+v", got)
	}
}
