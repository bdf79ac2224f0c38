// Package failover is the precomputed-failover decision plane: backup
// decision engines are compiled per anticipated fault class when the
// served tables are loaded, so that an observed fault becomes an
// atomic engine flip instead of a live diagnosis recompute — the
// BGP-PIC / hierarchical-FIB idea (backup next-hops precompiled behind
// shared indirection, failover is a pointer flip) grafted onto the
// paper's rule-table router.
//
// The package has two layers:
//
//   - fault classes (this file): an enumerator that, given a topology
//     and algorithm family, generates the anticipated classes — every
//     single-link fault, every single-node fault and, on the mesh, the
//     Figure-2 fault chains the campaign already generates. A class is
//     identified by the canonical key of its exact fault set. Classes
//     are enumerated on the topology that is served, so they cannot
//     name another one;
//   - the runtime Plane (plane.go): per-class engines precompiled from
//     the artifact its host serves, flipped in through
//     reconfig.Swapper (in the simulator) or reconfig.Service (behind
//     fleet.Registry, which rebuilds the plane whenever the serving
//     version changes), with a measured live-recompute fall-back for
//     uncovered classes.
package failover

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fault"
	"repro/internal/topology"
)

// Class kinds accepted by Enumerate and `routerd -backups`.
const (
	KindLink  = "link"  // one failed link
	KindNode  = "node"  // one fail-stop node
	KindChain = "chain" // a Figure-2 fault chain (mesh only)
)

// Kinds lists the valid class kinds (for CLI validation).
var Kinds = []string{KindLink, KindNode, KindChain}

// Class is one anticipated fault class: a concrete fault set the plane
// precompiles a backup engine for. Coverage is exact-set: an observed
// cumulative fault state is covered when its canonical key equals the
// class key — a superset (the anticipated fault plus one more) is a
// different, typically uncovered, class and takes the recompute path.
type Class struct {
	Kind  string
	Nodes []topology.NodeID
	Links []topology.Link
}

// Set materialises the class as a fault set.
func (c *Class) Set() *fault.Set {
	f := fault.NewSet()
	for _, n := range c.Nodes {
		f.FailNode(n)
	}
	for _, l := range c.Links {
		f.FailLink(l.A, l.B)
	}
	return f
}

// Key returns the class's canonical key.
func (c *Class) Key() string { return KeyOf(c.Set()) }

// String renders the class for logs and summaries.
func (c *Class) String() string { return c.Kind + ":" + c.Key() }

// KeyOf renders the canonical key of a fault set: the sorted faulty
// nodes and the sorted faulty links, e.g. "n3,n7|l2-3,l7-8". Two sets
// with the same faults always produce the same key (FaultyNodes and
// FaultyLinks are sorted), so the key is the plane's coverage index.
func KeyOf(f *fault.Set) string {
	var b strings.Builder
	for i, n := range f.FaultyNodes() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "n%d", n)
	}
	b.WriteByte('|')
	for i, l := range f.FaultyLinks() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "l%d-%d", l.A, l.B)
	}
	return b.String()
}

// Enumerate generates the anticipated fault classes of the given kinds
// on topology g, in deterministic order (kinds in the caller's order,
// classes in canonical topology order). Chain classes require a mesh —
// they are the paper's Figure-2 patterns — and the hypercube family's
// guarantee regime only covers node faults, so asking for link or
// chain classes on a hypercube is an error rather than a silent empty
// set.
func Enumerate(g topology.Graph, kinds []string) ([]Class, error) {
	var out []Class
	seen := map[string]bool{}
	for _, k := range kinds {
		if seen[k] {
			continue
		}
		seen[k] = true
		switch k {
		case KindLink:
			if _, ok := g.(*topology.Hypercube); ok {
				return nil, fmt.Errorf("failover: link classes are outside the hypercube family's guarantee regime (node faults only)")
			}
			for _, l := range sortedLinks(g) {
				out = append(out, Class{Kind: KindLink, Links: []topology.Link{l}})
			}
		case KindNode:
			for n := 0; n < g.Nodes(); n++ {
				out = append(out, Class{Kind: KindNode, Nodes: []topology.NodeID{topology.NodeID(n)}})
			}
		case KindChain:
			m, ok := g.(*topology.Mesh)
			if !ok {
				return nil, fmt.Errorf("failover: chain classes need a mesh topology, got %s", g.Name())
			}
			for y := 0; y+1 < m.H; y++ {
				for length := 1; length < m.W; length++ {
					f, err := fault.Chain(m, y, length)
					if err != nil {
						return nil, err
					}
					out = append(out, Class{Kind: KindChain, Links: f.FaultyLinks()})
				}
			}
		default:
			return nil, fmt.Errorf("failover: unknown class kind %q (valid: %s)", k, strings.Join(Kinds, ", "))
		}
	}
	return out, nil
}

// sortedLinks returns g's links in canonical ascending order (Links
// enumerates deterministically already, but the contract here is
// explicit: the class list must not depend on map iteration).
func sortedLinks(g topology.Graph) []topology.Link {
	links := topology.Links(g)
	sort.Slice(links, func(i, j int) bool {
		if links[i].A != links[j].A {
			return links[i].A < links[j].A
		}
		return links[i].B < links[j].B
	})
	return links
}
