package routing

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/topology"
)

// frozenRouteCStates is RouteC.UpdateFaults' fixpoint as it stood
// before the fault-only terms were hoisted out of the rounds: every
// round re-counts faulty neighbours and incident links and asks the
// fault set about every link. It is the reference
// TestRouteCFixpointMatchesFrozen holds UpdateFaults to; do not
// "modernise" it.
func frozenRouteCStates(cube *topology.Hypercube, f *fault.Set) ([]NodeState, int) {
	n := cube.Nodes()
	states := make([]NodeState, n)
	for i := 0; i < n; i++ {
		if f.NodeFaulty(topology.NodeID(i)) {
			states[i] = StateFaulty
		}
	}
	rounds := 0
	for {
		changed := false
		next := make([]NodeState, n)
		copy(next, states)
		for i := 0; i < n; i++ {
			id := topology.NodeID(i)
			if states[i] == StateFaulty {
				continue
			}
			direct := f.FaultyNeighbors(cube, id) + f.FaultyIncidentLinks(cube, id)
			notSafe := 0
			for p := 0; p < cube.Ports(); p++ {
				nb := cube.Neighbor(id, p)
				if nb != topology.Invalid && (f.LinkFaulty(id, nb) || f.NodeFaulty(nb) || states[nb] != StateSafe) {
					notSafe++
				}
			}
			var s NodeState
			switch {
			case direct >= 2:
				s = StateSUnsafe
			case notSafe >= 3:
				s = StateOUnsafe
			default:
				s = StateSafe
			}
			if s > next[i] {
				next[i] = s
				changed = true
			}
		}
		states = next
		rounds++
		if !changed {
			break
		}
	}
	return states, rounds
}

// TestRouteCFixpointMatchesFrozen: on 4-, 6- and 8-cubes under random
// node and link fault sets (dense enough to escalate to ounsafe and
// sunsafe, with links that are not cube edges among them),
// UpdateFaults yields the frozen fixpoint's states and round count.
func TestRouteCFixpointMatchesFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	escalated := 0
	for _, d := range []int{4, 6, 8} {
		cube := topology.NewHypercube(d)
		r := NewRouteC(cube)
		for trial := 0; trial < 40; trial++ {
			f := fault.NewSet()
			for k := rng.Intn(3 * d); k > 0; k-- {
				a := topology.NodeID(rng.Intn(cube.Nodes()))
				switch rng.Intn(5) {
				case 0, 1:
					f.FailNode(a)
				case 2, 3:
					f.FailLink(a, cube.Neighbor(a, rng.Intn(d)))
				default:
					f.FailLink(a, a^3) // not a cube link: no port leads there
				}
			}
			r.UpdateFaults(f)
			want, rounds := frozenRouteCStates(cube, f)
			if !slices.Equal(r.States(), want) || r.PropagationRounds != rounds {
				t.Fatalf("cube%d trial %d: states or rounds (%d, frozen %d) differ from the frozen fixpoint", d, trial, r.PropagationRounds, rounds)
			}
			if rounds > 2 {
				escalated++
			}
		}
	}
	if escalated == 0 {
		t.Fatal("no trial propagated past one round: the comparison is too tame")
	}
}
