package campaign

import (
	"testing"

	"repro/internal/failover"
	"repro/internal/sim"
)

// A failover-enabled campaign over both families must be clean: every
// scenario's flip-equipped run is bit-identical to the plain run and
// the flip/recompute counters match the fault story.
func TestCampaignFailoverClean(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scenario campaign in -short mode")
	}
	for _, algo := range Algos {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			out, err := Run(Options{
				Algo:      algo,
				Scenarios: 12,
				Seed:      7,
				Failover:  true,
				Log:       t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			if out.Failed() {
				for _, r := range out.Reports {
					t.Errorf("scenario %d: %v", r.Scenario.ID, r.Violations)
				}
			}
		})
	}
}

// The failover variant must actually exercise the flip path, not
// trivially recompute everything: scenarios with fault stories get
// planes whose first occurrence of every state flips.
func TestCampaignFailoverExercisesFlips(t *testing.T) {
	s := Scenario{
		ID: 1, Algo: AlgoNAFTA, MeshW: 5, MeshH: 5,
		Seed: 11, Rate: 0.05, Length: 4,
		Warmup: 200, Measure: 600, Drain: 30000,
		FaultNodes: []int{12},
		Events:     []TimedFault{{Time: 400, Kind: "link", A: 3, B: 8}},
	}
	fastVio, _, err := Evaluate(&s, &Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fastVio) != 0 {
		t.Fatalf("plain run dirty: %v", fastVio)
	}
	var plane *failover.Plane
	cfg, err := buildFailoverConfig(&s, DefaultFactory, nil, &plane)
	if err != nil {
		t.Fatal(err)
	}
	if plane.CoveredClasses() != 2 {
		t.Fatalf("plane covers %d classes, want 2 (initial state + post-event state)", plane.CoveredClasses())
	}
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if plane.Flips() != 2 || plane.Recomputes() != 0 {
		t.Fatalf("flips=%d recomputes=%d, want 2/0", plane.Flips(), plane.Recomputes())
	}
}

// expectedFlips must track repeated cumulative keys: an event that
// re-fails an already-failed node leaves the key unchanged, so the
// second occurrence recomputes against a consumed backup.
func TestExpectedFlipsRepeatedState(t *testing.T) {
	s := Scenario{
		ID: 2, Algo: AlgoNAFTA, MeshW: 4, MeshH: 4,
		Seed: 3, Rate: 0.04, Length: 4,
		Warmup: 100, Measure: 400, Drain: 20000,
		FaultNodes: []int{5},
		Events:     []TimedFault{{Time: 200, Kind: "node", Node: 5}},
	}
	var plane *failover.Plane
	cfg, err := buildFailoverConfig(&s, DefaultFactory, nil, &plane)
	if err != nil {
		t.Fatal(err)
	}
	wantF, wantR := expectedFlips(&s, plane)
	if wantF != 1 || wantR != 1 {
		t.Fatalf("expectedFlips = %d/%d, want 1/1", wantF, wantR)
	}
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if plane.Flips() != wantF || plane.Recomputes() != wantR {
		t.Fatalf("plane %d/%d, predicted %d/%d", plane.Flips(), plane.Recomputes(), wantF, wantR)
	}
}

// Events scheduled past the stepped window never fire, so the
// expectation walker must exclude them.
func TestFaultStatesWindowBound(t *testing.T) {
	s := Scenario{
		Algo: AlgoNAFTA, MeshW: 4, MeshH: 4,
		Warmup: 100, Measure: 200,
		Events: []TimedFault{
			{Time: 50, Kind: "node", Node: 1},
			{Time: 299, Kind: "node", Node: 2},
			{Time: 300, Kind: "node", Node: 3}, // beyond the last applySchedule
		},
	}
	states := faultStates(&s)
	if len(states) != 2 {
		t.Fatalf("%d states, want 2 (the cycle-300 event never fires)", len(states))
	}
	last := states[len(states)-1]
	if last.NodeFaulty(3) {
		t.Fatal("out-of-window event leaked into the cumulative state")
	}
	if !last.NodeFaulty(1) || !last.NodeFaulty(2) {
		t.Fatal("in-window events missing from the cumulative state")
	}
}
