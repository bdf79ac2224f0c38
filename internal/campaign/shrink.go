package campaign

import "sort"

// Shrink minimizes a violating scenario with delta debugging over its
// fault atoms (initial node faults, initial link faults, timed
// events): classic ddmin narrows the atom set, then a greedy pass
// removes single atoms until the result is 1-minimal — no single atom
// can be dropped without losing the violation. Both phases are fully
// deterministic (simulations are seeded, candidate order is fixed), so
// the same violating scenario always shrinks to the same minimum.
//
// The returned bool is false when the original scenario no longer
// violates any oracle under re-execution (a non-reproducible report;
// the caller keeps the unshrunk scenario in that case).
func Shrink(s *Scenario, opts *Options) (Scenario, []Violation, bool) {
	fails := func(keep []int) ([]Violation, bool) {
		cand := s.withAtoms(keep)
		vio, _, err := Evaluate(&cand, opts)
		if err != nil {
			// A scenario variant that cannot even run does not count
			// as reproducing the violation.
			return nil, false
		}
		return vio, len(vio) > 0
	}

	all := make([]int, s.atoms())
	for i := range all {
		all[i] = i
	}
	lastVio, ok := fails(all)
	if !ok {
		return Scenario{}, nil, false
	}

	// ddmin: try dropping complements at increasing granularity.
	keep := all
	n := 2
	for len(keep) >= 2 {
		chunk := (len(keep) + n - 1) / n
		reduced := false
		for start := 0; start < len(keep); start += chunk {
			complement := make([]int, 0, len(keep)-chunk)
			complement = append(complement, keep[:start]...)
			if start+chunk < len(keep) {
				complement = append(complement, keep[start+chunk:]...)
			}
			if len(complement) == len(keep) || len(complement) == 0 {
				continue
			}
			if vio, bad := fails(complement); bad {
				keep = complement
				lastVio = vio
				n = max(n-1, 2)
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(keep) {
				break
			}
			n = min(n*2, len(keep))
		}
	}

	// Greedy 1-minimality: drop atoms one at a time until stable.
	for changed := true; changed && len(keep) > 1; {
		changed = false
		for i := range keep {
			cand := make([]int, 0, len(keep)-1)
			cand = append(cand, keep[:i]...)
			cand = append(cand, keep[i+1:]...)
			if vio, bad := fails(cand); bad {
				keep = cand
				lastVio = vio
				changed = true
				break
			}
		}
	}

	sort.Ints(keep)
	shrunk := s.withAtoms(keep)
	return shrunk, lastVio, true
}
