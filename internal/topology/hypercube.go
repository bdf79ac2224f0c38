package topology

import (
	"fmt"
	"math/bits"
)

// Hypercube is a binary n-cube with 2^Dim nodes. Port i of node n leads
// to the neighbour whose address differs in bit i (n XOR 1<<i). This is
// the topology of the paper's second case study, ROUTE_C.
type Hypercube struct {
	Dim int
}

// NewHypercube builds a hypercube of the given dimension (1..20).
func NewHypercube(dim int) *Hypercube {
	if dim < 1 || dim > 20 {
		panic(fmt.Sprintf("topology: invalid hypercube dimension %d", dim))
	}
	return &Hypercube{Dim: dim}
}

func (h *Hypercube) Name() string          { return fmt.Sprintf("hypercube%d", h.Dim) }
func (h *Hypercube) Nodes() int            { return 1 << h.Dim }
func (h *Hypercube) Ports() int            { return h.Dim }
func (h *Hypercube) PortName(p int) string { return fmt.Sprintf("dim%d", p) }

func (h *Hypercube) Neighbor(n NodeID, p int) NodeID {
	if p < 0 || p >= h.Dim {
		return Invalid
	}
	return n ^ NodeID(1<<p)
}

func (h *Hypercube) PortTo(n, o NodeID) (int, bool) {
	diff := uint(n ^ o)
	if bits.OnesCount(diff) != 1 {
		return 0, false
	}
	return bits.TrailingZeros(diff), true
}

// Dist returns the Hamming distance between a and b, which is the
// minimal hop count in the hypercube.
func (h *Hypercube) Dist(a, b NodeID) int {
	return bits.OnesCount(uint(a ^ b))
}

// MinimalMask returns the dimensions in which cur and dst differ as a
// bit mask (bit p = port p): the ports on minimal paths from cur to
// dst. UpMask keeps those that increase the node address (0->1 bit
// transitions), DownMask those that decrease it. ROUTE_C's deadlock
// avoidance (after Konstantinidou) first uses all address-increasing
// links, then all address-decreasing links.
func (h *Hypercube) MinimalMask(cur, dst NodeID) uint { return uint(cur ^ dst) }

// UpMask returns the address-increasing minimal ports. See MinimalMask.
func (h *Hypercube) UpMask(cur, dst NodeID) uint { return uint((cur ^ dst) &^ cur) }

// DownMask returns the address-decreasing minimal ports. See MinimalMask.
func (h *Hypercube) DownMask(cur, dst NodeID) uint { return uint((cur ^ dst) & cur) }

// portList expands a port mask, lowest port first; nil when empty.
func portList(mask uint) []int {
	var out []int
	for ; mask != 0; mask &= mask - 1 {
		out = append(out, bits.TrailingZeros(mask))
	}
	return out
}

// MinimalPorts, UpPorts and DownPorts are the slice forms of
// MinimalMask, UpMask and DownMask.
func (h *Hypercube) MinimalPorts(cur, dst NodeID) []int { return portList(h.MinimalMask(cur, dst)) }
func (h *Hypercube) UpPorts(cur, dst NodeID) []int      { return portList(h.UpMask(cur, dst)) }
func (h *Hypercube) DownPorts(cur, dst NodeID) []int    { return portList(h.DownMask(cur, dst)) }
