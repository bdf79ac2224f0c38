// Package traffic provides synthetic workload generation for the
// network simulator: the classic spatial patterns used in wormhole
// routing evaluations (uniform random, transpose, bit complement, bit
// reversal, tornado, hot spot, nearest neighbour) and a Bernoulli
// injection process (walked by geometric gaps) parameterised by offered
// load in flits per node and cycle.
package traffic

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/network"
	"repro/internal/topology"
)

// Pattern maps a source node to a destination node. Implementations
// may be randomised (drawing from rng) or deterministic permutations.
// A pattern may return the source itself; callers skip such pairs.
type Pattern interface {
	Name() string
	Dest(src topology.NodeID, rng *rand.Rand) topology.NodeID
}

// Uniform sends each message to a destination drawn uniformly from all
// nodes.
type Uniform struct{ Nodes int }

func (u Uniform) Name() string { return "uniform" }
func (u Uniform) Dest(_ topology.NodeID, rng *rand.Rand) topology.NodeID {
	return topology.NodeID(rng.Intn(u.Nodes))
}

// Transpose sends (x,y) to (y,x) on a square mesh — an adversarial
// permutation for dimension-order routing.
type Transpose struct{ Mesh *topology.Mesh }

func (t Transpose) Name() string { return "transpose" }
func (t Transpose) Dest(src topology.NodeID, _ *rand.Rand) topology.NodeID {
	x, y := t.Mesh.XY(src)
	if x >= t.Mesh.H || y >= t.Mesh.W {
		return src // non-square corner: keep local
	}
	return t.Mesh.Node(y, x)
}

// BitComplement sends node b to ^b (mod the node count, which must be
// a power of two).
type BitComplement struct{ Nodes int }

func (BitComplement) Name() string { return "bitcomplement" }
func (b BitComplement) Dest(src topology.NodeID, _ *rand.Rand) topology.NodeID {
	return topology.NodeID((^int(src)) & (b.Nodes - 1))
}

// BitReverse sends node b to the bit-reversal of its address (node
// count must be a power of two).
type BitReverse struct{ Bits int }

func (BitReverse) Name() string { return "bitreverse" }
func (b BitReverse) Dest(src topology.NodeID, _ *rand.Rand) topology.NodeID {
	r := bits.Reverse32(uint32(src)) >> (32 - b.Bits)
	return topology.NodeID(r)
}

// Tornado sends (x,y) to (x + W/2 - 1 mod W, y) on a mesh/torus row —
// the classic load-imbalance pattern.
type Tornado struct{ Mesh *topology.Mesh }

func (Tornado) Name() string { return "tornado" }
func (t Tornado) Dest(src topology.NodeID, _ *rand.Rand) topology.NodeID {
	x, y := t.Mesh.XY(src)
	return t.Mesh.Node((x+t.Mesh.W/2-1)%t.Mesh.W, y)
}

// Hotspot sends a fraction of traffic to dedicated hot nodes and the
// rest uniformly.
type Hotspot struct {
	Nodes    int
	Hot      []topology.NodeID
	Fraction float64 // probability of choosing a hot node
}

func (Hotspot) Name() string { return "hotspot" }
func (h Hotspot) Dest(_ topology.NodeID, rng *rand.Rand) topology.NodeID {
	if len(h.Hot) > 0 && rng.Float64() < h.Fraction {
		return h.Hot[rng.Intn(len(h.Hot))]
	}
	return topology.NodeID(rng.Intn(h.Nodes))
}

// Neighbor sends each message to a random direct neighbour (locality
// pattern).
type Neighbor struct{ Graph topology.Graph }

func (Neighbor) Name() string { return "neighbor" }
func (n Neighbor) Dest(src topology.NodeID, rng *rand.Rand) topology.NodeID {
	ports := n.Graph.Ports()
	for try := 0; try < 2*ports; try++ {
		m := n.Graph.Neighbor(src, rng.Intn(ports))
		if m != topology.Invalid {
			return m
		}
	}
	return src
}

// Generator drives Bernoulli message injection into a Network: every
// (cycle, node) cell offers a message with probability Rate/Length. Tick
// jumps from success to success by geometric gaps, one draw per message.
type Generator struct {
	Graph   topology.Graph
	Pattern Pattern
	// Rate is the offered load in flits per node per cycle; the
	// per-cycle message probability per node is Rate/Length (1 or more:
	// one message per eligible node per cycle).
	Rate float64
	// Length is the message length in flits (>= 2).
	Length int
	// Rng drives the Bernoulli process (required, for determinism).
	Rng *rand.Rand
	// Exclude, when non-nil, suppresses sources and destinations for
	// which it returns true (faulty or deactivated nodes, assumption
	// iii of the fault model); it is asked only where a success lands.
	Exclude func(topology.NodeID) bool

	// Offered counts messages handed to the network.
	Offered int64

	// skip cells lie before the next success, counted from node 0 of the
	// coming cycle; the gap was drawn for probability gapP (0: none yet).
	skip int64
	gapP float64
}

// Validate checks the generator configuration.
func (g *Generator) Validate() error {
	if g.Graph == nil || g.Pattern == nil || g.Rng == nil {
		return fmt.Errorf("traffic: Generator needs Graph, Pattern and Rng")
	}
	if g.Length < 2 {
		return fmt.Errorf("traffic: message length %d < 2", g.Length)
	}
	// The offered load is held to the port count (NaN fails too).
	if !(g.Rate >= 0 && g.Rate <= float64(g.Graph.Ports())) {
		return fmt.Errorf("traffic: rate %f out of range [0, %d]", g.Rate, g.Graph.Ports())
	}
	return nil
}

// gap draws the failures before the next success of a Bernoulli(p)
// sequence, floor(ln(1-U)/ln(1-p)), capped so sums cannot overflow; at
// p = 1 the divisor is -Inf and every gap is 0.
func (g *Generator) gap(p float64) int64 {
	return int64(min(math.Log(1-g.Rng.Float64())/math.Log1p(-p), 1<<61))
}

// Tick injects this cycle's messages into net. Call once per
// simulation cycle before net.Step().
func (g *Generator) Tick(net *network.Network) {
	p := min(g.Rate/float64(g.Length), 1)
	if !(p > 0) {
		g.gapP = 0 // the next positive rate draws afresh
		return
	}
	if p != g.gapP {
		g.gapP, g.skip = p, g.gap(p)
	}
	nodes := int64(g.Graph.Nodes())
	for ; g.skip < nodes; g.skip += 1 + g.gap(p) {
		src := topology.NodeID(g.skip)
		if g.Exclude != nil && g.Exclude(src) {
			continue // thinning: an excluded source's success is discarded
		}
		if dst := g.Pattern.Dest(src, g.Rng); dst != src && (g.Exclude == nil || !g.Exclude(dst)) {
			net.Inject(src, dst, g.Length)
			g.Offered++
		}
	}
	g.skip -= nodes
}
