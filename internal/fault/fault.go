// Package fault implements the paper's fault model (Section 2.1,
// assumptions i-v): links are bidirectional and both directions fail
// together; nodes are fail-stop and adjacent nodes learn about failures;
// multiple faults are allowed; no messages are affected during the
// diagnosis phase (callers run state propagation to a fixpoint between
// fault injection and resumed traffic).
//
// The package also provides the structural fault analyses the two case
// studies depend on: rectangular fault-block completion for the mesh
// (NAFTA completes concave fault patterns to a convex shape) and the
// propagated per-node directional flags, plus scenario generators for the
// evaluation harness (random fault patterns, the fault-chain situation
// of Figure 2).
package fault

import (
	"fmt"
	"sort"

	"repro/internal/topology"
)

// Set is a mutable collection of node and link faults. The zero value
// is not usable; construct with NewSet. Set is not safe for concurrent
// mutation.
type Set struct {
	nodes map[topology.NodeID]bool
	links map[topology.Link]bool
}

// NewSet returns an empty fault set.
func NewSet() *Set {
	return &Set{
		nodes: make(map[topology.NodeID]bool),
		links: make(map[topology.Link]bool),
	}
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	c := NewSet()
	for n := range s.nodes {
		c.nodes[n] = true
	}
	for l := range s.links {
		c.links[l] = true
	}
	return c
}

// FailNode marks node n faulty (fail-stop, assumption ii).
func (s *Set) FailNode(n topology.NodeID) { s.nodes[n] = true }

// FailLink marks the undirected link between a and b faulty
// (assumption i: both directions fail together).
func (s *Set) FailLink(a, b topology.NodeID) { s.links[topology.MakeLink(a, b)] = true }

// RepairNode removes a node fault (used by reconfiguration
// experiments).
func (s *Set) RepairNode(n topology.NodeID) { delete(s.nodes, n) }

// RepairLink removes a link fault.
func (s *Set) RepairLink(a, b topology.NodeID) { delete(s.links, topology.MakeLink(a, b)) }

// NodeFaulty reports whether node n has failed.
func (s *Set) NodeFaulty(n topology.NodeID) bool { return s.nodes[n] }

// LinkFaulty reports whether the undirected link a-b has failed. A link
// adjacent to a faulty node is NOT automatically considered faulty here;
// use HopUsable for the combined check.
func (s *Set) LinkFaulty(a, b topology.NodeID) bool { return s.links[topology.MakeLink(a, b)] }

// HopUsable reports whether a message can be forwarded from a to b:
// both nodes alive and the connecting link intact.
func (s *Set) HopUsable(a, b topology.NodeID) bool {
	return !s.nodes[a] && !s.nodes[b] && !s.links[topology.MakeLink(a, b)]
}

// PortUsable reports whether the output port p of node n in topology g
// leads to an operational neighbour over an operational link.
func (s *Set) PortUsable(g topology.Graph, n topology.NodeID, p int) bool {
	m := g.Neighbor(n, p)
	if m == topology.Invalid {
		return false
	}
	return s.HopUsable(n, m)
}

// NodeCount returns the number of faulty nodes.
func (s *Set) NodeCount() int { return len(s.nodes) }

// LinkCount returns the number of faulty links (not counting links
// implied by faulty nodes).
func (s *Set) LinkCount() int { return len(s.links) }

// Empty reports whether the set contains no faults.
func (s *Set) Empty() bool { return len(s.nodes) == 0 && len(s.links) == 0 }

// FaultyNodes returns the faulty nodes in ascending order.
func (s *Set) FaultyNodes() []topology.NodeID {
	out := make([]topology.NodeID, 0, len(s.nodes))
	for n := range s.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FaultyLinks returns the faulty links in canonical ascending order.
func (s *Set) FaultyLinks() []topology.Link {
	out := make([]topology.Link, 0, len(s.links))
	for l := range s.links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Filter adapts the fault set to the topology package's Filter type so
// graph algorithms run on the operational sub-network.
func (s *Set) Filter() *topology.Filter {
	return &topology.Filter{
		NodeUp: func(n topology.NodeID) bool { return !s.nodes[n] },
		LinkUp: func(a, b topology.NodeID) bool { return !s.links[topology.MakeLink(a, b)] },
	}
}

// FaultyIncidentLinks returns how many of node n's incident links are
// faulty (counting explicit link faults only, per ROUTE_C's "ends of two
// faulty links" condition).
func (s *Set) FaultyIncidentLinks(g topology.Graph, n topology.NodeID) int {
	c := 0
	for p := 0; p < g.Ports(); p++ {
		m := g.Neighbor(n, p)
		if m == topology.Invalid {
			continue
		}
		if s.links[topology.MakeLink(n, m)] {
			c++
		}
	}
	return c
}

// FaultyNeighbors returns how many of node n's neighbours have failed.
func (s *Set) FaultyNeighbors(g topology.Graph, n topology.NodeID) int {
	c := 0
	for p := 0; p < g.Ports(); p++ {
		m := g.Neighbor(n, p)
		if m == topology.Invalid {
			continue
		}
		if s.nodes[m] {
			c++
		}
	}
	return c
}

func (s *Set) String() string {
	return fmt.Sprintf("faults{nodes:%v links:%v}", s.FaultyNodes(), s.FaultyLinks())
}
