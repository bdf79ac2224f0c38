package network

import (
	"sort"

	"repro/internal/topology"
)

// LinkLoad is the traffic carried by one undirected link (flits summed
// over both directions).
type LinkLoad struct {
	Link  topology.Link
	Flits int64
}

// LinkLoads returns the per-link flit counts accumulated since the
// network was built, in canonical link order.
func (n *Network) LinkLoads() []LinkLoad {
	acc := map[topology.Link]int64{}
	for node := 0; node < n.lay.nodes; node++ {
		for p := 0; p < n.lay.ports; p++ {
			m := n.g.Neighbor(topology.NodeID(node), p)
			if m == topology.Invalid {
				continue
			}
			for v := 0; v < n.lay.vcs; v++ {
				acc[topology.MakeLink(topology.NodeID(node), m)] += n.outs[n.lay.outIdx(node, p, v)].sent
			}
		}
	}
	links := topology.Links(n.g)
	out := make([]LinkLoad, 0, len(links))
	for _, l := range links {
		out = append(out, LinkLoad{Link: l, Flits: acc[l]})
	}
	return out
}

// UtilizationSummary condenses the link-load distribution: how many
// links carried any traffic, the mean/peak load, and the Gini
// coefficient of the distribution (0 = perfectly balanced, 1 = all
// traffic on one link). The paper's critique of the spanning-tree
// strawman — "this algorithm uses only a small fraction of the network
// links" — becomes directly measurable here.
type UtilizationSummary struct {
	Links     int
	UsedLinks int
	MeanFlits float64
	PeakFlits int64
	Gini      float64
}

// Utilization computes the link-load summary.
func (n *Network) Utilization() UtilizationSummary {
	loads := n.LinkLoads()
	s := UtilizationSummary{Links: len(loads)}
	if len(loads) == 0 {
		return s
	}
	var total int64
	vals := make([]float64, 0, len(loads))
	for _, l := range loads {
		if l.Flits > 0 {
			s.UsedLinks++
		}
		if l.Flits > s.PeakFlits {
			s.PeakFlits = l.Flits
		}
		total += l.Flits
		vals = append(vals, float64(l.Flits))
	}
	s.MeanFlits = float64(total) / float64(len(loads))
	if total == 0 {
		return s
	}
	// Gini via the sorted-rank formula.
	sort.Float64s(vals)
	var cum float64
	for i, v := range vals {
		cum += float64(2*(i+1)-len(vals)-1) * v
	}
	s.Gini = cum / (float64(len(vals)) * float64(total))
	return s
}
