package routing

import (
	"repro/internal/fault"
	"repro/internal/topology"
)

// Tree is the strawman fault-tolerant algorithm of Section 2.1:
// recompute a spanning tree of the operational network whenever faults
// occur and route every message along tree edges only. It satisfies
// condition 3 (any connected pair remains routable) but almost never
// uses minimal paths and concentrates all traffic on the n-1 tree
// links — the motivation for smarter algorithms.
//
// Deadlock freedom: tree paths ascend to the lowest common ancestor and
// then descend. Channel dependencies only go up->up, up->down and
// down->down, so the channel dependency graph is acyclic with a single
// virtual channel.
type Tree struct {
	Defaults
	g      topology.Graph
	faults *fault.Set
	tree   *topology.SpanningTree
	// Rebuilds counts how often the tree was recomputed (each rebuild
	// is a global reconfiguration — the overhead the paper wants to
	// avoid).
	Rebuilds int
}

// NewTree builds spanning-tree routing on g (initially fault free,
// rooted at node 0).
func NewTree(g topology.Graph) *Tree {
	t := &Tree{g: g, faults: fault.NewSet()}
	t.UpdateFaults(t.faults)
	t.Rebuilds = 0 // initial construction is not a reconfiguration
	return t
}

func (t *Tree) Name() string      { return "tree" }
func (t *Tree) NumVCs() int       { return 1 }
func (t *Tree) Steps(Request) int { return 1 }

// UpdateFaults recomputes the spanning tree rooted at the lowest
// operational node.
func (t *Tree) UpdateFaults(f *fault.Set) {
	t.faults = f
	root := topology.Invalid
	for n := 0; n < t.g.Nodes(); n++ {
		if !f.NodeFaulty(topology.NodeID(n)) {
			root = topology.NodeID(n)
			break
		}
	}
	if root == topology.Invalid {
		t.tree = nil
		return
	}
	t.tree = topology.BuildSpanningTree(t.g, root, f.Filter())
	t.Rebuilds++
}

func (t *Tree) RouteAppend(req Request, buf []Candidate) []Candidate {
	if t.tree == nil {
		return buf
	}
	next := t.tree.NextHop(req.Node, req.Hdr.Dst)
	if next == topology.Invalid {
		return buf
	}
	p, ok := t.g.PortTo(req.Node, next)
	if !ok {
		return buf
	}
	return append(buf, Candidate{Port: p, VC: 0})
}

// CurrentTree exposes the active spanning tree (for the evaluation
// harness: link-utilisation and path-length statistics).
func (t *Tree) CurrentTree() *topology.SpanningTree { return t.tree }
