package routing

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/fault"
	"repro/internal/topology"
)

// NAFTA is the fault-tolerant adaptive routing algorithm for 2-D meshes
// (Cunningham/Avresky 1995) as described in Section 2.2 of the paper:
//
//   - fault information is propagated in waves and condensed into a
//     constant amount of state per node: rectangular fault blocks
//     (concave fault patterns completed to a convex shape) and
//     directional dead-end states ("dead-end-east" = every column to
//     the east contains a fault);
//   - the deadlock prevention is the turn model with two virtual
//     networks (north-last and south-last), so in the fault-free case
//     every minimal path is available (condition 1);
//   - messages blocked by a fault region are misrouted around it,
//     marked, and carry a path-length counter (Section 3, lifelock
//     avoidance); the counter bounds detours.
//
// The constant-state approximation intentionally violates condition 3
// in awkward fault situations; the evaluation (experiment E6) measures
// this.
type NAFTA struct {
	Defaults
	mesh   *topology.Mesh
	faults *fault.Set
	blocks *fault.BlockInfo
	dirs   *fault.DirStates
	// xy is the node -> (x,y) table (the mesh never changes) and facts
	// the per-node fault knowledge, rewritten in place by UpdateFaults
	// and by nothing else. A decision reads facts[node] and two xy
	// entries; it asks neither the mesh nor the fault set.
	xy    [][2]int32
	facts []naftaFacts

	// MaxMisroutes bounds the detour budget per message; beyond it the
	// message is dropped (livelock avoidance). Zero means the default
	// 4*(W+H).
	MaxMisroutes int

	// DisableBlocks turns off the convex completion (ablation E10):
	// only directly faulty nodes/links restrict routing.
	DisableBlocks bool
}

// NewNAFTA builds NAFTA on mesh m with no faults.
func NewNAFTA(m *topology.Mesh) *NAFTA {
	n := &NAFTA{mesh: m, xy: make([][2]int32, m.Nodes()), facts: make([]naftaFacts, m.Nodes())}
	for i := range n.xy {
		x, y := m.XY(topology.NodeID(i))
		n.xy[i] = [2]int32{int32(x), int32(y)}
	}
	n.UpdateFaults(fault.NewSet())
	return n
}

func (n *NAFTA) Name() string { return "nafta" }
func (n *NAFTA) NumVCs() int  { return 2 }

// DeadlockRegime tags the virtual-network discipline for the hot-swap
// safety gate.
func (n *NAFTA) DeadlockRegime() string { return RegimeNAFTA }

// naftaFacts is what one node's Information Units hold between fault
// events: the router-local copy of the rule program's fault registers
// (node_state, lineblocked and clearrun of the node and its
// neighbours). Nothing in it depends on a message; FactWords folds the
// destination-relative part of a decision in. Ports are bit p of a
// nibble.
type naftaFacts struct {
	// open: the hop through p is physically intact (link and both end
	// nodes). free: open, and the neighbour is not deactivated by the
	// convex completion; a deactivated neighbour is entered only when
	// it is the destination.
	open, free uint8
	// sidePos/sideNeg, valid for the open ports: travelling through
	// port t, the neighbour's propagated flag admits a message that
	// still needs the perpendicular direction north or east (sidePos),
	// south or west (sideNeg).
	sidePos, sideNeg uint8
	// runN/runS: the clear runs {east, west} of the north resp. south
	// neighbour when that neighbour lies on the top resp. bottom border
	// row, which is where the frozen-direction entry guard consults
	// them; unbounded everywhere else, where the guard admits the hop.
	runN, runS [2]int32
}

// UpdateFaults recomputes the fault blocks and the propagated
// directional states to their fixpoint (diagnosis phase, assumption
// iv) and rewrites every node's fact record from them in one linear
// pass.
func (n *NAFTA) UpdateFaults(f *fault.Set) {
	n.faults = f
	if n.DisableBlocks {
		n.blocks = nil
	} else {
		n.blocks = fault.BuildBlocks(n.mesh, f)
	}
	n.dirs = fault.BuildDirStates(n.mesh, f, n.blocks)
	w := n.mesh.W
	unbounded := [2]int32{math.MaxInt32, math.MaxInt32}
	for i := range n.facts {
		blocked, hard := n.dirs.PortBlocks(topology.NodeID(i))
		open := ^hard & 0xF
		// Bit p of each nibble of the neighbour behind open port p:
		// the low nibble is sidePos, the high one sideNeg.
		var side uint8
		if open&(1<<topology.North) != 0 {
			side |= ^n.dirs.Flags(topology.NodeID(i+w)) & (0x11 << topology.North)
		}
		if open&(1<<topology.East) != 0 {
			side |= ^n.dirs.Flags(topology.NodeID(i+1)) & (0x11 << topology.East)
		}
		if open&(1<<topology.South) != 0 {
			side |= ^n.dirs.Flags(topology.NodeID(i-w)) & (0x11 << topology.South)
		}
		if open&(1<<topology.West) != 0 {
			side |= ^n.dirs.Flags(topology.NodeID(i-1)) & (0x11 << topology.West)
		}
		fc := naftaFacts{open: open, free: ^blocked & 0xF, sidePos: side & 0xF, sideNeg: side >> 4, runN: unbounded, runS: unbounded}
		y := int(n.xy[i][1])
		if y == n.mesh.H-2 {
			fc.runN = n.clearRuns(i + w)
		}
		if y == 1 {
			fc.runS = n.clearRuns(i - w)
		}
		n.facts[i] = fc
	}
	for _, id := range f.FaultyNodes() { // a failed node forwards nothing
		if id >= 0 && int(id) < len(n.facts) {
			n.facts[id].open, n.facts[id].free = 0, 0
		}
	}
}

func (n *NAFTA) clearRuns(nb int) [2]int32 {
	return [2]int32{
		int32(n.dirs.ClearRun(topology.East, topology.NodeID(nb))),
		int32(n.dirs.ClearRun(topology.West, topology.NodeID(nb))),
	}
}

// Blocks exposes the current fault-block state: the traffic generator's
// exclusion view and the evaluation harness.
func (n *NAFTA) Blocks() *fault.BlockInfo { return n.blocks }

// FactWords is the fault knowledge of one routing decision as whole
// words: the node's fact record with the destination-relative part
// folded in. The rule-based NAFTA stores Avail, AvFault and MisOK
// straight into its avail, avfault and misok input lines; the native
// decision masks them with the turn model.
type FactWords struct {
	// SX, SY are the signs (-1, 0, +1) of the remaining distance.
	SX, SY int
	// VNet is the message's virtual network: assigned at injection,
	// read from the header in flight.
	VNet int
	// Port nibbles (bit p = mesh port p), in PortFact's terms: Minimal;
	// Usable; Usable && Sideways && EntryMinimal; Usable && Sideways &&
	// EntryMisroute.
	Minimal, Avail, AvFault, MisOK uint8
}

// naftaQuads holds, per pair of distance signs (index 3*sy+sx+4), the
// port masks that depend on nothing else: the minimal ports, and the
// travel ports whose still-needed perpendicular direction is north or
// east (needPos), south or west (needNeg), or none (needNone: a
// straight-line message, the sideways flag does not apply).
type naftaQuad struct{ minimal, needPos, needNeg, needNone uint8 }

var naftaQuads = func() (t [9]naftaQuad) {
	const ns, ew = 1<<topology.North | 1<<topology.South, 1<<topology.East | 1<<topology.West
	for sy := -1; sy <= 1; sy++ {
		for sx := -1; sx <= 1; sx++ {
			q := &t[3*sy+sx+4]
			switch sx {
			case 1:
				q.minimal, q.needPos = 1<<topology.East, ns
			case -1:
				q.minimal, q.needNeg = 1<<topology.West, ns
			default:
				q.needNone = ns
			}
			switch sy {
			case 1:
				q.minimal, q.needPos = q.minimal|1<<topology.North, q.needPos|ew
			case -1:
				q.minimal, q.needNeg = q.minimal|1<<topology.South, q.needNeg|ew
			default:
				q.needNone |= ew
			}
		}
	}
	return t
}()

// toward returns the remaining signed distance from cur to dst and the
// naftaQuads entry of its signs.
func (n *NAFTA) toward(cur, dst topology.NodeID) (dx, dy int, q *naftaQuad) {
	c, d := n.xy[cur], n.xy[dst]
	dx, dy = int(d[0]-c[0]), int(d[1]-c[1])
	return dx, dy, &naftaQuads[3*sign(dy)+sign(dx)+4]
}

func sign(v int) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	}
	return 0
}

// FactWords reads the decision's fault knowledge off the node's fact
// record: a few loads, shifts and masks. CheckFacts holds it to the
// per-call derivation PortFacts.
func (n *NAFTA) FactWords(req Request) FactWords {
	dx, dy, q := n.toward(req.Node, req.Hdr.Dst)
	w := FactWords{SX: sign(dx), SY: sign(dy), VNet: req.Hdr.VNet, Minimal: q.minimal}
	if req.InPort == InjectionPort { // vnetFor
		w.VNet = VNSouthLast
		if dy < 0 || dy == 0 && int(n.xy[req.Node][1]) == n.mesh.H-1 {
			w.VNet = VNNorthLast
		}
	}
	var isDst uint8 // the port whose neighbour is the destination
	if dx*dx+dy*dy == 1 {
		isDst = q.minimal
	}
	f := &n.facts[req.Node]
	w.Avail = f.free | f.open&isDst
	w.AvFault = w.Avail & (f.sidePos&q.needPos | f.sideNeg&q.needNeg | q.needNone | isDst)
	w.MisOK = w.AvFault
	// The frozen-direction entry guard: the hop away from the
	// network's last direction must not strand the message on a border
	// row from which the destination column cannot be reached. It
	// refuses the hop as a misroute, and as a minimal move when it
	// enters the destination row.
	runs, port, enters := &f.runN, uint8(1<<topology.North), dy == 1
	switch w.VNet {
	case VNSouthLast:
	case VNNorthLast:
		runs, port, enters = &f.runS, 1<<topology.South, dy == -1
	default:
		return w
	}
	if dx > 0 && int(runs[0]) < dx || dx < 0 && int(runs[1]) < -dx {
		w.MisOK &^= port
		if enters {
			w.AvFault &^= port
		}
	}
	return w
}

// Steps reports the rule interpretations for this decision: one in the
// fault-free network, two when fault state has to be consulted, three
// when the exception path (misrouting) is taken — matching the paper's
// "NAFTA in the fault-free case proceeds with one step and in the
// worst case needs three".
func (n *NAFTA) Steps(req Request) int {
	if n.faults.Empty() {
		return 1
	}
	if w := n.FactWords(req); w.minimalPorts(req.InPort) != 0 {
		return 2
	}
	return 3
}

func (n *NAFTA) NoteHop(req Request, chosen Candidate) {
	if req.InPort == InjectionPort {
		req.Hdr.VNet = chosen.VC
	}
	// Track non-minimal hops: the path-length counter of Section 3.
	if _, _, q := n.toward(req.Node, req.Hdr.Dst); q.minimal>>uint(chosen.Port)&1 == 0 {
		req.Hdr.Misroutes++
		req.Hdr.Marked = true
	}
}

// DetourBudget is the number of misroutes a message may make before it
// is dropped (MaxMisroutes, or its default).
func (n *NAFTA) DetourBudget() int {
	if n.MaxMisroutes > 0 {
		return n.MaxMisroutes
	}
	return 4 * (n.mesh.W + n.mesh.H)
}

// turnMask returns the ports the turn model leaves a message of
// virtual network vnet that arrived through inPort: never straight back
// (the previous router has just been tried; sending the message back
// re-creates the same decision, a ping-pong livelock), and once it has
// moved in the network's last direction only straight on.
func turnMask(vnet, inPort int) uint8 {
	if inPort == InjectionPort {
		return 0xF
	}
	last := topology.OppositeMeshPort(inPort)
	if vnet == VNSouthLast && last == topology.South || vnet == VNNorthLast && last == topology.North {
		return 1 << uint(last)
	}
	return 0xF &^ (1 << uint(inPort))
}

// frozenPort is the last direction of virtual network vnet: after a hop
// through it a message cannot turn any more.
func frozenPort(vnet int) uint8 {
	switch vnet {
	case VNSouthLast:
		return 1 << topology.South
	case VNNorthLast:
		return 1 << topology.North
	}
	return 0
}

// minimalPorts computes set2 ∩ set1: minimal ports that survive the
// fault, block, sideways, turn-model and freeze restrictions. The
// frozen direction is entered only as a straight shot at the
// destination (same column), because afterwards the message cannot
// turn.
func (w *FactWords) minimalPorts(inPort int) uint8 {
	m := w.AvFault & w.Minimal & turnMask(w.VNet, inPort)
	if w.SX != 0 {
		m &^= frozenPort(w.VNet)
	}
	return m
}

// misroutePorts computes the exception outputs: non-minimal ports that
// keep the message routable (no 180-degree reversal, turn rules
// respected, no disabled entry, never into the frozen direction —
// there is no way back out of it).
func (w *FactWords) misroutePorts(inPort int) uint8 {
	return w.MisOK &^ w.Minimal & turnMask(w.VNet, inPort) &^ frozenPort(w.VNet)
}

func appendPorts(out []Candidate, ports uint8, vc int) []Candidate {
	for ; ports != 0; ports &= ports - 1 {
		out = append(out, Candidate{Port: bits.TrailingZeros8(ports), VC: vc})
	}
	return out
}

func (n *NAFTA) RouteAppend(req Request, buf []Candidate) []Candidate {
	w := n.FactWords(req)
	if m := w.minimalPorts(req.InPort); m != 0 {
		// Offer horizontal ports first: vertical moves are the ones the
		// turn model makes hard to undo, so the deterministic tie-break
		// (and the FirstFit ablation selector) should delay them.
		const horiz = 1<<topology.East | 1<<topology.West
		return appendPorts(appendPorts(buf, m&horiz, w.VNet), m&^horiz, w.VNet)
	}
	// Exception path: misroute around the fault region, within the
	// detour budget.
	if req.Hdr.Misroutes >= n.DetourBudget() {
		return buf
	}
	return appendPorts(buf, w.misroutePorts(req.InPort), w.VNet)
}

// CheckFacts compares the words every decision would read off the fact
// records with the per-call reference derivation, for every node,
// destination and virtual network. A difference means a path changed
// the fault state without calling UpdateFaults. It costs O(nodes²)
// PortFacts calls: an oracle for tests and the campaign.
func (n *NAFTA) CheckFacts() error {
	var hdr Header
	for cur := range n.facts {
		for dst := range n.facts {
			for vnet := 0; vnet < n.NumVCs(); vnet++ {
				hdr.Dst, hdr.VNet = topology.NodeID(dst), vnet
				req := Request{Node: topology.NodeID(cur), Hdr: &hdr}
				got, want := n.FactWords(req), factNibbles(n.PortFacts(req))
				want.SX, want.SY, want.VNet = got.SX, got.SY, got.VNet
				if got != want {
					return fmt.Errorf("nafta: stale facts at node %d towards %d: the record gives %+v, the fault state %+v",
						cur, dst, got, want)
				}
			}
		}
	}
	return nil
}

// factNibbles packs the per-port reference facts into FactWords' port
// nibbles (signs and virtual network left zero).
func factNibbles(facts [topology.MeshPorts]PortFact) (w FactWords) {
	for p, f := range facts {
		bit := uint8(1) << uint(p)
		if f.Minimal {
			w.Minimal |= bit
		}
		if !f.Usable {
			continue
		}
		w.Avail |= bit
		if f.Sideways && f.EntryMinimal {
			w.AvFault |= bit
		}
		if f.Sideways && f.EntryMisroute {
			w.MisOK |= bit
		}
	}
	return w
}

// The per-call reference derivation of the decision's fault knowledge.
// It asks the mesh and the fault set for every port of every call, so
// it is off the decision path: CheckFacts, the tests and the evaluation
// harness are its callers.

// disabled reports whether node m is unusable (faulty, or deactivated
// by the convex completion).
func (n *NAFTA) disabled(m topology.NodeID) bool {
	if n.blocks != nil {
		return n.blocks.DisabledNode(m)
	}
	return n.faults.NodeFaulty(m)
}

// hopOK reports whether the hop through port p is physically usable
// and does not enter a disabled node (the destination itself is always
// admissible if physically reachable).
func (n *NAFTA) hopOK(cur topology.NodeID, p int, dst topology.NodeID) bool {
	nb := n.mesh.Neighbor(cur, p)
	if nb == topology.Invalid || !n.faults.HopUsable(cur, nb) {
		return false
	}
	if nb != dst && n.disabled(nb) {
		return false
	}
	return true
}

// neededVertical returns the vertical direction the message still has
// to travel (-1 if none); neededHorizontal likewise.
func (n *NAFTA) neededVertical(cur, dst topology.NodeID) int {
	_, cy := n.mesh.XY(cur)
	_, dy := n.mesh.XY(dst)
	switch {
	case dy > cy:
		return topology.North
	case dy < cy:
		return topology.South
	}
	return -1
}

func (n *NAFTA) neededHorizontal(cur, dst topology.NodeID) int {
	cx, _ := n.mesh.XY(cur)
	dx, _ := n.mesh.XY(dst)
	switch {
	case dx > cx:
		return topology.East
	case dx < cx:
		return topology.West
	}
	return -1
}

// sidewaysOK applies the propagated directional blocking flags: moving
// sideways through port t is pointless (and forbidden) when every node
// along that line keeps the still-needed perpendicular direction
// blocked — the message would run into the border without ever being
// able to turn. This is the refined per-node form of the dead-end
// states and is what lets a blocked message pick the correct side of a
// fault chain (Figure 2).
func (n *NAFTA) sidewaysOK(cur topology.NodeID, t int, dst topology.NodeID) bool {
	nb := n.mesh.Neighbor(cur, t)
	if nb == dst {
		return true
	}
	if nb == topology.Invalid {
		// Border port: physical usability is hopOK's verdict; the
		// sideways flag does not apply.
		return true
	}
	var needed int
	switch t {
	case topology.East, topology.West:
		needed = n.neededVertical(cur, dst)
	default:
		needed = n.neededHorizontal(cur, dst)
	}
	if needed < 0 {
		return true // straight-line message, flag not applicable
	}
	return !n.dirs.Blocked(needed, t, nb)
}

// clearTo reports whether the horizontal straight line from nb to
// column dx is free of faults, judged by the propagated clear-run
// state at nb.
func (n *NAFTA) clearTo(nb topology.NodeID, dx int) bool {
	nx, _ := n.mesh.XY(nb)
	switch {
	case dx > nx:
		return n.dirs.ClearRun(topology.East, nb) >= dx-nx
	case dx < nx:
		return n.dirs.ClearRun(topology.West, nb) >= nx-dx
	}
	return true
}

// vertEntryOK guards vertical hops against the frozen-direction traps
// of the turn model. In the south-last network the only legal way back
// south is a straight run in the destination column, so (a) a message
// must not enter the destination row at a point from which the
// destination cannot be reached along that row, and (b) a misroute
// that overshoots north is only admissible if the destination column
// is reachable along the new row. Both tests use the per-node
// propagated clear-run state; the mirror rules protect north-last
// messages. This is the constant-per-node-state approximation of the
// Omega(|F|) fault knowledge the paper's Figure 2 shows a router needs
// for perfect purposiveness.
func (n *NAFTA) vertEntryOK(vnet int, cur topology.NodeID, p int, dst topology.NodeID, minimal bool) bool {
	nb := n.mesh.Neighbor(cur, p)
	if nb == topology.Invalid || nb == dst {
		return true
	}
	_, ny := n.mesh.XY(nb)
	dx, dy := n.mesh.XY(dst)
	switch {
	case vnet == VNSouthLast && p == topology.North:
		if minimal && ny == dy {
			// Entering the destination row: the message must be able
			// to finish along it or escape north again later; if the
			// row is the border there is no later.
			if ny == n.mesh.H-1 {
				return n.clearTo(nb, dx)
			}
			return true
		}
		if !minimal && ny == n.mesh.H-1 {
			// Overshooting onto the top border row: no further
			// escalation is possible, the run must reach the
			// destination column.
			return n.clearTo(nb, dx)
		}
	case vnet == VNNorthLast && p == topology.South:
		if minimal && ny == dy {
			if ny == 0 {
				return n.clearTo(nb, dx)
			}
			return true
		}
		if !minimal && ny == 0 {
			return n.clearTo(nb, dx)
		}
	}
	return true
}

// isMinimalPort reports whether port p leads strictly closer to dst —
// the membership test of MinimalPorts without materialising the list.
func (n *NAFTA) isMinimalPort(cur, dst topology.NodeID, p int) bool {
	return p == n.neededHorizontal(cur, dst) || p == n.neededVertical(cur, dst)
}

func (n *NAFTA) vnet(req Request) int {
	if req.InPort == InjectionPort {
		return vnetFor(n.mesh, req.Node, req.Hdr.Dst)
	}
	return req.Hdr.VNet
}

// PortFact is the per-direction fault knowledge of one routing
// decision, as produced by the router's Information Units. The
// rule-based implementation of NAFTA consumes these as inputs, and the
// equivalence tests compare its decisions against this package's
// native implementation.
type PortFact struct {
	// Usable: the hop is physically intact and does not enter a
	// disabled (fault-block) node.
	Usable bool
	// Sideways: the propagated directional blocking flag admits the
	// hop (sidewaysOK).
	Sideways bool
	// EntryMinimal: the frozen-direction entry guard admits the hop
	// as a minimal move.
	EntryMinimal bool
	// EntryMisroute: the guard admits the hop as a misroute.
	EntryMisroute bool
	// Minimal: the hop reduces the distance to the destination.
	Minimal bool
}

// PortFacts computes the fault-knowledge inputs of a decision for all
// four mesh ports.
func (n *NAFTA) PortFacts(req Request) [topology.MeshPorts]PortFact {
	var out [topology.MeshPorts]PortFact
	vnet := n.vnet(req)
	for p := 0; p < topology.MeshPorts; p++ {
		out[p] = PortFact{
			Usable:        n.hopOK(req.Node, p, req.Hdr.Dst),
			Sideways:      n.sidewaysOK(req.Node, p, req.Hdr.Dst),
			EntryMinimal:  n.vertEntryOK(vnet, req.Node, p, req.Hdr.Dst, true),
			EntryMisroute: n.vertEntryOK(vnet, req.Node, p, req.Hdr.Dst, false),
			Minimal:       n.isMinimalPort(req.Node, req.Hdr.Dst, p),
		}
	}
	return out
}

// VNetOf exposes the virtual network the algorithm assigns to the
// request (injection) or reads from the header (in flight).
func (n *NAFTA) VNetOf(req Request) int { return n.vnet(req) }
