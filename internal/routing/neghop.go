package routing

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/topology"
)

// NegHop implements the negative-hop deadlock prevention scheme the
// paper cites from [BoC96] in its Section 3 cost analysis: nodes are
// coloured so that adjacent nodes differ (any bipartite topology); a
// hop toward a lower colour is "negative", and a message travelling on
// virtual-channel level L moves to level L+1 on every negative hop.
// Channel levels only ever increase, so the channel dependency graph
// is acyclic for COMPLETELY ARBITRARY paths — minimal, adaptive or
// misrouted — which is exactly why the paper singles the scheme out:
// "using the negative hop scheme ... no changes to the deadlock
// avoidance are necessary at all" when faults force detours.
//
// The price is the paper's point too: the number of virtual channels
// grows with the network diameter (every other hop of a path is
// negative on a 2-coloured topology), i.e. fault tolerance is bought
// with VC hardware instead of per-node fault state. NegHop keeps NO
// distributed fault state at all — only the local link status — and
// its delivery under faults is bounded by the VC budget, which
// experiment E11 quantifies against NAFTA's 2-VC + state design.
type NegHop struct {
	Defaults
	g      topology.Graph
	faults *fault.Set
	color  []uint8
	vcs    int
	// dist is the topology's own metric when it has one (mesh,
	// hypercube, torus); nil falls back to per-decision BFS.
	dist interface {
		Dist(a, b topology.NodeID) int
	}
	// Exhausted counts routing decisions that found no admissible output
	// because the VC level budget ran out (the message is dropped).
	Exhausted int64
}

// NewNegHop builds the scheme on a bipartite topology with the given
// number of virtual channels (the level budget). It returns an error
// if the graph is not 2-colourable or vcs < 2.
func NewNegHop(g topology.Graph, vcs int) (*NegHop, error) {
	if vcs < 2 {
		return nil, fmt.Errorf("routing: neghop needs at least 2 VCs, got %d", vcs)
	}
	color := make([]uint8, g.Nodes())
	seen := make([]bool, g.Nodes())
	for start := 0; start < g.Nodes(); start++ {
		if seen[start] {
			continue
		}
		seen[start] = true
		queue := []topology.NodeID{topology.NodeID(start)}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for p := 0; p < g.Ports(); p++ {
				m := g.Neighbor(n, p)
				if m == topology.Invalid {
					continue
				}
				if !seen[m] {
					seen[m] = true
					color[m] = 1 - color[n]
					queue = append(queue, m)
				} else if color[m] == color[n] {
					return nil, fmt.Errorf("routing: %s is not bipartite, negative-hop colouring impossible", g.Name())
				}
			}
		}
	}
	n := &NegHop{g: g, faults: fault.NewSet(), color: color, vcs: vcs}
	n.dist, _ = g.(interface {
		Dist(a, b topology.NodeID) int
	})
	return n, nil
}

func (n *NegHop) Name() string { return fmt.Sprintf("neghop%d", n.vcs) }
func (n *NegHop) NumVCs() int  { return n.vcs }

// Steps is one interpretation: the scheme needs no fault-state lookup
// at all, the decision depends only on header and local link status.
func (n *NegHop) Steps(Request) int { return 1 }

// UpdateFaults only stores the set: there is no diagnosis phase, no
// state propagation, nothing to recompute — the scheme's defining
// property.
func (n *NegHop) UpdateFaults(f *fault.Set) { n.faults = f }

// negHopTo reports whether the hop from a to b is negative (descends
// in colour).
func (n *NegHop) negHopTo(a, b topology.NodeID) bool {
	return n.color[a] == 1 && n.color[b] == 0
}

// RouteAppend is the allocation-free decision path. With a topology
// metric (Dist) available, "minimal port" becomes the predicate
// Dist(neighbor, dst) < Dist(cur, dst) evaluated per port — no
// materialised port list. Every topology metric in this repo
// (Manhattan, Hamming, torus) emits minimal ports in ascending port
// order, and the BFS fallback scans ports ascending too, so the
// predicate walk preserves the exact candidate order of the historical
// list-based decision.
func (n *NegHop) RouteAppend(req Request, out []Candidate) []Candidate {
	cur, dst := req.Node, req.Hdr.Dst
	level := req.Hdr.NegHops
	// Note that on a 2-coloured topology the level delta of a hop is
	// a property of the CURRENT node (all hops out of a colour-1 node
	// are negative), so candidate ordering cannot conserve levels —
	// only shorter paths can, and without fault state the scheme has
	// no way to plan them. That blind spot is the measured trade-off
	// of experiment E11.
	var bfs []int
	if n.dist == nil {
		bfs = topology.BFSDist(n.g, dst, nil)
	}
	minimal := func(p int, nb topology.NodeID) bool {
		if bfs != nil {
			return bfs[nb] >= 0 && bfs[nb] < bfs[cur]
		}
		return n.dist.Dist(nb, dst) < n.dist.Dist(cur, dst)
	}
	// Minimal ports first; when none is admissible, a misroute: any
	// usable non-minimal port except an immediate reversal — the acyclic
	// channel levels make it safe without further rules. A negative hop
	// moves the message up one level, within the budget.
	start := len(out)
	for _, ops := range [2]HopOps{0, HopMisroute} {
		misroute := ops != 0
		for p := 0; p < n.g.Ports(); p++ {
			nb := n.g.Neighbor(cur, p)
			if nb == topology.Invalid || minimal(p, nb) == misroute || misroute && p == req.InPort || !n.faults.HopUsable(cur, nb) {
				continue
			}
			c := Candidate{Port: p, VC: level, Hop: Hop{Ops: ops}}
			if n.negHopTo(cur, nb) {
				c.VC++
				c.Hop.Ops |= HopNegHop
			}
			if c.VC < n.vcs {
				out = append(out, c)
			}
		}
		if len(out) > start {
			return out
		}
	}
	n.Exhausted++
	return out
}

var _ Algorithm = (*NegHop)(nil)
