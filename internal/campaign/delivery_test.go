package campaign

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// evaluateWithStats runs one scenario through the production path and
// returns the violations plus the network's final statistics, so tests
// can assert both oracle silence and that the scenario actually
// exercised the delivery verdicts.
func evaluateWithStats(t *testing.T, s *Scenario, opts *Options) ([]Violation, network.Stats) {
	t.Helper()
	var net *network.Network
	cfg, err := buildConfig(s, false, opts.factory(), &net)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return checkRun(s, &res, net), net.Stats()
}

// A mesh partitioned by a full node column: cross-cut traffic must be
// dropped with a certified verdict, same-side traffic delivered, and
// the delivery oracle must stay silent — reachable implies delivered,
// unreachable implies explicitly flagged, zero sacrifices.
func TestDeliveryOraclePartitionedMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	m := topology.NewMesh(6, 6)
	var cut []int
	for y := 0; y < 6; y++ {
		cut = append(cut, int(m.Node(3, y)))
	}
	s := Scenario{
		ID: 0, Algo: AlgoMaze, MeshW: 6, MeshH: 6,
		Seed: 3, Rate: 0.06, Length: 5,
		Warmup: 200, Measure: 800, Drain: 20000, LivelockAge: 20000,
		FaultNodes: cut,
	}
	vio, st := evaluateWithStats(t, &s, &Options{})
	if len(vio) != 0 {
		t.Fatalf("partitioned mesh must pass the oracle cleanly, got %v", vio)
	}
	if st.Unreachable == 0 {
		t.Fatal("cross-cut traffic produced no unreachability verdicts; the scenario is vacuous")
	}
	if st.Unreachable != st.Dropped {
		t.Fatalf("%d drops but %d verdicts", st.Dropped, st.Unreachable)
	}
	if st.Delivered == 0 {
		t.Fatal("same-side traffic was not delivered")
	}
}

// A torus partitioned by two full link ring cuts (no node faults, so
// every node keeps injecting): the doomed cross-component messages
// must all carry verdicts.
func TestDeliveryOraclePartitionedTorus(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	tor := topology.NewTorus(6, 5)
	node := func(x, y int) int { return int(tor.Node(x, y)) }
	var links [][2]int
	for _, x := range []int{2, 4} {
		for y := 0; y < 5; y++ {
			links = append(links, [2]int{node(x, y), node((x+1)%6, y)})
		}
	}
	s := Scenario{
		ID: 0, Algo: AlgoMaze, TorusW: 6, TorusH: 5,
		Seed: 3, Rate: 0.06, Length: 5,
		Warmup: 200, Measure: 800, Drain: 20000, LivelockAge: 20000,
		FaultLinks: links,
	}
	vio, st := evaluateWithStats(t, &s, &Options{})
	if len(vio) != 0 {
		t.Fatalf("partitioned torus must pass the oracle cleanly, got %v", vio)
	}
	if st.Unreachable == 0 || st.Unreachable != st.Dropped || st.Delivered == 0 {
		t.Fatalf("stats %+v: want verdicts == drops > 0 and deliveries > 0", st)
	}
}

// silentDropAlg models a mutated adapter that starts swallowing
// messages once a designated poison node is in the fault set:
// RouteAppend appends no candidate although the destination is
// reachable, so the real maze engine's verdict it embeds stays false
// and the network records plain drops. Everything else — the credit
// gate and the flush included — is the engine's, so the mutant runs the
// same VA discipline as what it mutates. The delivery oracle must call
// these drops what they are — sacrifices.
type silentDropAlg struct {
	routing.Algorithm
	poison topology.NodeID
	bad    bool
}

func (b *silentDropAlg) UpdateFaults(f *fault.Set) {
	b.bad = f.NodeFaulty(b.poison)
	b.Algorithm.UpdateFaults(f)
}

func (b *silentDropAlg) RouteAppend(r routing.Request, buf []routing.Candidate) []routing.Candidate {
	if b.bad {
		return buf
	}
	return b.Algorithm.RouteAppend(r, buf)
}

// lyingJudgeAlg goes one step further: it swallows messages AND stamps
// them with a fabricated unreachability verdict. The accounting oracle
// is satisfied (every drop carries a verdict), so only the reachability
// re-check can catch it.
type lyingJudgeAlg struct{ silentDropAlg }

func (b *lyingJudgeAlg) UnreachableVerdict(r routing.Request) bool { return b.bad }

func mazeSabotageScenario(m *topology.Mesh, poison topology.NodeID) Scenario {
	return Scenario{
		ID: 0, Algo: AlgoMaze, MeshW: m.W, MeshH: m.H,
		Seed: 11, Rate: 0.08, Length: 6,
		Warmup: 200, Measure: 800, Drain: 20000, LivelockAge: 20000,
		FaultNodes: []int{int(poison)},
	}
}

func TestDeliveryOracleCatchesSilentDrops(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	m := topology.NewMesh(6, 6)
	poison := m.Node(2, 2)
	s := mazeSabotageScenario(m, poison)
	opts := Options{
		Factory: func(s *Scenario, oracle bool) (routing.Algorithm, error) {
			inner, err := routing.NewMaze(m)
			if err != nil {
				return nil, err
			}
			return &silentDropAlg{Algorithm: inner, poison: poison}, nil
		},
	}
	vio, st := evaluateWithStats(t, &s, &opts)
	if st.Dropped == 0 {
		t.Fatal("the sabotaged run dropped nothing; the test is vacuous")
	}
	kinds := map[string]bool{}
	for _, v := range vio {
		kinds[v.Kind] = true
	}
	if !kinds["sacrifice"] {
		t.Fatalf("silent drops not flagged as sacrifices; violations: %v", vio)
	}
	if !kinds["verdict-accounting"] {
		t.Fatalf("verdict accounting did not notice unverdicted drops; violations: %v", vio)
	}
}

func TestDeliveryOracleCatchesFalseVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	m := topology.NewMesh(6, 6)
	poison := m.Node(2, 2)
	s := mazeSabotageScenario(m, poison)
	opts := Options{
		Factory: func(s *Scenario, oracle bool) (routing.Algorithm, error) {
			inner, err := routing.NewMaze(m)
			if err != nil {
				return nil, err
			}
			return &lyingJudgeAlg{silentDropAlg{Algorithm: inner, poison: poison}}, nil
		},
	}
	vio, st := evaluateWithStats(t, &s, &opts)
	if st.Dropped == 0 {
		t.Fatal("the sabotaged run dropped nothing; the test is vacuous")
	}
	// The fabricated verdicts balance the books (Unreachable == Dropped),
	// so accounting alone cannot catch this mutant.
	if st.Unreachable != st.Dropped {
		t.Fatalf("stats %+v: the lying judge should stamp every drop", st)
	}
	hasFalse := false
	for _, v := range vio {
		if v.Kind == "false-verdict" {
			hasFalse = true
		}
	}
	if !hasFalse {
		t.Fatalf("fabricated verdicts not caught; violations: %v", vio)
	}
}
