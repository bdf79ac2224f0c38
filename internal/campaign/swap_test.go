package campaign

import (
	"testing"
)

// A hot-swap under an active fault schedule must survive the full
// oracle battery — invariants, conservation, justified drops — and the
// differential check (fast vs interpreted, both across the swaps).
func TestEvaluateHotSwapUnderFaultSchedule(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Scenario
	}{
		{"nafta", Scenario{
			ID: 0, Algo: AlgoNAFTA, MeshW: 6, MeshH: 6,
			Seed: 11, Rate: 0.06, Length: 5,
			Warmup: 200, Measure: 800, Drain: 20000, LivelockAge: 20000,
			FaultNodes: []int{14},
			Events: []TimedFault{
				{Time: 350, Kind: "node", Node: 27},
				{Time: 550, Kind: "link", A: 3, B: 9},
			},
			// One swap between the timed faults, one after: the fresh
			// engines must inherit the cumulative fault state.
			Swaps: []int64{450, 700},
		}},
		{"routec", Scenario{
			ID: 1, Algo: AlgoRouteC, CubeDim: 4,
			Seed: 12, Rate: 0.06, Length: 5,
			Warmup: 200, Measure: 800, Drain: 20000, LivelockAge: 20000,
			FaultNodes: []int{5},
			Swaps:      []int64{300, 650},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Algo: tc.s.Algo, Differential: true}
			vio, pm, err := Evaluate(&tc.s, &opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(vio) != 0 {
				t.Fatalf("hot-swap scenario violated the oracles: %v", vio)
			}
			if pm != nil {
				t.Fatalf("hot-swap scenario stalled: %s at cycle %d", pm.Reason, pm.Cycle)
			}
		})
	}
}

// The generator must actually produce hot-swap scenarios (roughly a
// third of each family), with every swap inside the run window, and
// mid-run fault events for the mesh family — a generator regression
// that drops them would silently hollow the campaign out.
func TestGenerateIncludesSwaps(t *testing.T) {
	for _, algo := range Algos {
		opts := Options{Algo: algo, Scenarios: 30, Seed: 5}
		scens, err := Generate(&opts)
		if err != nil {
			t.Fatal(err)
		}
		withSwaps, withEvents := 0, 0
		for _, s := range scens {
			if len(s.Events) > 0 {
				withEvents++
			}
			if len(s.Swaps) == 0 {
				continue
			}
			withSwaps++
			for _, at := range s.Swaps {
				if at < s.Warmup/2 || at >= s.Warmup+s.Measure {
					t.Fatalf("%s scenario %d: swap at %d outside [%d,%d)",
						algo, s.ID, at, s.Warmup/2, s.Warmup+s.Measure)
				}
			}
		}
		if withSwaps == 0 {
			t.Fatalf("%s: no hot-swap scenarios among %d generated", algo, len(scens))
		}
		if algo == AlgoNAFTA && withEvents == 0 {
			t.Fatalf("nafta: no mid-run fault events among %d generated", len(scens))
		}
	}
}
