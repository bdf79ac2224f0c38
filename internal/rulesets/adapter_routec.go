package rulesets

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/rules"
	"repro/internal/topology"
)

// RuleRouteC drives a hypercube network through the compiled ROUTE_C
// rule program: decide_dir's table selects the output mode, decide_vc's
// table the virtual channel — the paper's two interpretations per
// decision. The native instance keeps the distributed safe/unsafe
// states (the Information Units); the per-mode priority selection runs
// in the conclusion processing, modelled here by a small priority
// encoder over the same input lines.
//
// The per-dimension lines are d-bit words (bit i = dimension i), one
// store each into the packed input vector. The fault-dependent ones are
// precomputed per node in UpdateFaults — the only place the fault set
// and the node states may change; a fault set mutated afterwards
// without a new UpdateFaults leaves them stale (CheckLines is the
// oracle).
//
// Decisions run on the embedded Engine, two lookups each.
type RuleRouteC struct {
	Engine
	cube   *topology.Hypercube
	native *routing.RouteC

	// slots and modes are immutable after construction, nodes between
	// UpdateFaults calls; vcArgs and vcDargs are per-decision scratch,
	// the decide_vc argument in both conventions.
	slots   cubeSlots
	modes   []cubeMode // by decide_dir RETURN ordinal
	nodes   []cubeNode
	vcArgs  []rules.Value
	vcDargs []int64
}

// cubeSlots holds the input-vector places of the ROUTE_C decision
// inputs, resolved once at construction: bit words for the
// per-dimension lines, slots for the scalars. new_state and adapt_load
// feed update_state and adaptivity only, which the adapter never runs.
type cubeSlots struct {
	diffb, upb, okl, nbsafe, notback int
	phase, level, takingDetour       int
}

// cubeMode is one decide_dir conclusion resolved at construction:
// which lines make a port eligible, the taking_detour input of the
// decide_vc step (1 when the hop claims the next level's channel), and
// the mode symbol as its argument.
type cubeMode struct {
	ports        int
	takingDetour int64
	arg          rules.Value
}

// The port classes of cubeMode.ports; modes that expand to no port
// (blocked, arrived) keep the zero value.
const (
	portsNone   = iota
	portsUp     // minimal, address-increasing
	portsDown   // minimal, address-decreasing
	portsDetour // non-minimal
)

var cubeModes = map[string]cubeMode{
	"up_safe": {ports: portsUp}, "up_any": {ports: portsUp},
	"down_safe": {ports: portsDown}, "down_any": {ports: portsDown},
	// Minimal ascending hops that claim the next level's channel (a
	// descending-entry level ran out of down work): bump and detour
	// share the level+1 VC mapping.
	"bump_safe": {ports: portsUp, takingDetour: 1}, "bump_any": {ports: portsUp, takingDetour: 1},
	"detour_safe": {ports: portsDetour, takingDetour: 1}, "detour_any": {ports: portsDetour, takingDetour: 1},
}

// cubeNode holds one node's fault-dependent lines: ok has bit i set
// when port i is usable, class[k] when the neighbour over port i is in
// state k (safe, ounsafe, sunsafe, faulty) — the full ordering the
// conclusion-processing priority encoder needs.
type cubeNode struct {
	ok    uint64
	class [4]uint64
}

// RouteCDecisionBases lists the rule bases the ROUTE_C adapter
// consults per routing decision — the bases a reconfiguration artifact
// must carry tables for.
var RouteCDecisionBases = []string{"decide_dir", "decide_vc"}

// The Engine's indices of RouteCDecisionBases.
const (
	cubeDir = iota // decide_dir
	cubeVC         // decide_vc
)

// NewRuleRouteC compiles ROUTE_C for cube h (adaptivity width 2).
func NewRuleRouteC(h *topology.Hypercube) (*RuleRouteC, error) {
	p, err := LoadRouteC(h.Dim, 2)
	if err != nil {
		return nil, err
	}
	return NewRuleRouteCFromProgram(h, p, nil)
}

// NewRuleRouteCFromProgram binds an already analysed ROUTE_C program
// to cube h. tables optionally supplies precompiled decision tables
// (keyed by base name, bound to p.Checked); missing entries are
// compiled in-process. A program of another cube dimension than h.Dim
// is refused.
func NewRuleRouteCFromProgram(h *topology.Hypercube, p *Program, tables map[string]*core.CompiledBase) (*RuleRouteC, error) {
	r := &RuleRouteC{
		cube:   h,
		native: routing.NewRouteC(h),
		nodes:  make([]cubeNode, h.Nodes()),

		vcArgs:  make([]rules.Value, 1),
		vcDargs: make([]int64, 1),
	}
	in, d := &r.slots, h.Dim // the words carry one bit per cube dimension
	err := r.bind(r.native, p, tables, RouteCDecisionBases, []place{
		{name: "diffb", elems: d, at: &in.diffb}, {name: "upb", elems: d, at: &in.upb},
		{name: "okl", elems: d, at: &in.okl}, {name: "nbsafe", elems: d, at: &in.nbsafe},
		{name: "notback", elems: d, at: &in.notback},
		{name: "phase", at: &in.phase}, {name: "level", at: &in.level},
		{name: "taking_detour", at: &in.takingDetour},
	})
	if err != nil {
		return nil, err
	}
	modes := p.Checked.SymbolSets["modes"]
	if modes == nil {
		return nil, fmt.Errorf("rule-routec: program %s declares no modes set", p.Name)
	}
	r.modes = make([]cubeMode, len(modes.Symbols))
	for ord, name := range modes.Symbols {
		r.modes[ord] = cubeModes[name]
		r.modes[ord].arg = p.Checked.Symbols[name]
	}
	r.rebuildNodes()
	return r, nil
}

func (r *RuleRouteC) Name() string { return "rule-routec" }

func (r *RuleRouteC) UpdateFaults(f *fault.Set) {
	r.Engine.UpdateFaults(f)
	r.rebuildNodes()
}

// rebuildNodes recomputes every node's fault-dependent lines, as
// freshLines gives them before any destination adjustment (a node is
// not its own neighbour). The usable-port words come from one walk over
// the fault set, not from a lookup per node and port: every port is
// usable but a faulty node's own, the ones facing a faulty node and
// both ends of a faulty link.
func (r *RuleRouteC) rebuildNodes() {
	dim := r.cube.Dim
	all := uint64(1)<<uint(dim) - 1
	for n := range r.nodes {
		r.nodes[n].ok = all
	}
	inCube := func(n topology.NodeID) bool { return n >= 0 && int(n) < len(r.nodes) }
	for _, f := range r.faults.FaultyNodes() {
		if !inCube(f) {
			continue
		}
		r.nodes[f].ok = 0
		for i := 0; i < dim; i++ {
			r.nodes[f^1<<i].ok &^= 1 << uint(i)
		}
	}
	for _, l := range r.faults.FaultyLinks() {
		if p, ok := r.cube.PortTo(l.A, l.B); ok && inCube(l.A) && inCube(l.B) {
			r.nodes[l.A].ok &^= 1 << uint(p)
			r.nodes[l.B].ok &^= 1 << uint(p)
		}
	}
	states := r.native.States()
	for n := range r.nodes {
		var class [4]uint64
		for i := 0; i < dim; i++ {
			class[states[n^1<<i]] |= 1 << uint(i)
		}
		r.nodes[n].class = class
	}
}

// freshLines computes a node's fault-dependent lines towards dst from
// the fault set and the native node states, one dimension at a time. A
// neighbour that is the destination always counts as safe, so the
// final hop is never filtered away.
func (r *RuleRouteC) freshLines(node, dst topology.NodeID) cubeNode {
	var cn cubeNode
	states := r.native.States()
	for i := 0; i < r.cube.Dim; i++ {
		if r.faults.PortUsable(r.cube, node, i) {
			cn.ok |= 1 << uint(i)
		}
		nb := r.cube.Neighbor(node, i)
		class := states[nb]
		if nb == dst {
			class = routing.StateSafe
		}
		cn.class[class] |= 1 << uint(i)
	}
	return cn
}

// toward is the per-decision form of freshLines' destination rule: it
// moves the one bit of a neighbouring destination to the safe class.
func (cn cubeNode) toward(node, dst topology.NodeID) cubeNode {
	if diff := uint64(node ^ dst); diff&(diff-1) == 0 {
		cn.class[0] |= diff
		for k := 1; k < len(cn.class); k++ {
			cn.class[k] &^= diff
		}
	}
	return cn
}

// CheckLines compares the lines a decision would use — precomputed by
// UpdateFaults, adjusted by toward — with freshLines, for every node
// and every destination-is-a-neighbour case. A difference means a path
// changed the fault state without calling UpdateFaults.
func (r *RuleRouteC) CheckLines() error {
	for n := range r.nodes {
		node := topology.NodeID(n)
		for p := -1; p < r.cube.Dim; p++ {
			dst := node // p = -1: no neighbour is the destination
			if p >= 0 {
				dst = r.cube.Neighbor(node, p)
			}
			if got, want := r.nodes[n].toward(node, dst), r.freshLines(node, dst); got != want {
				return fmt.Errorf("rule-routec: stale lines at node %d towards %d: have %+v, fault state gives %+v",
					node, dst, got, want)
			}
		}
	}
	return nil
}

// RouteAppend decides through decide_dir, then decide_vc per port — the
// native's two interpretations (Steps).
func (r *RuleRouteC) RouteAppend(req routing.Request, buf []routing.Candidate) []routing.Candidate {
	// The input lines of the decision, shared by the rule tables and the
	// conclusion-processing priority encoder.
	diff := uint64(req.Node ^ req.Hdr.Dst)
	up := ^uint64(req.Node)
	notback := ^(uint64(1) << uint(req.InPort)) // InjectionPort clears no bit
	cn := r.nodes[req.Node].toward(req.Node, req.Hdr.Dst)

	// phase and taking_detour vary between the dir decision and the vc
	// decisions, which re-set just those two slots.
	iv, in := r.iv, &r.slots
	iv.Begin()
	iv.SetWord(in.diffb, diff)
	iv.SetWord(in.upb, up)
	iv.SetWord(in.okl, cn.ok)
	iv.SetWord(in.nbsafe, cn.class[0])
	iv.SetWord(in.notback, notback)
	iv.Set(in.phase, int64(req.Hdr.Phase))
	iv.Set(in.level, int64(req.Hdr.DetourLevel))
	iv.Set(in.takingDetour, 0)
	modeOrd, ok := r.decide(req.Node, cubeDir, nil, nil)
	if !ok || modeOrd >= int64(len(r.modes)) {
		return buf
	}

	// Conclusion processing: expand the mode back into the admissible
	// ports, keeping — like the native preferSafe — only those with the
	// lowest neighbour state class, lowest dimension first.
	m := &r.modes[modeOrd]
	ports := cn.ok & notback & (uint64(1)<<uint(r.cube.Dim) - 1)
	switch m.ports {
	case portsUp:
		ports &= diff & up
	case portsDown:
		ports &= diff &^ up
	case portsDetour:
		ports &^= diff
	default:
		return buf
	}
	for _, class := range cn.class {
		if ports&class != 0 {
			ports &= class
			break
		}
	}
	iv.Set(in.takingDetour, m.takingDetour)
	r.vcArgs[0], r.vcDargs[0] = m.arg, m.arg.I
	start := len(buf)
	for ; ports != 0; ports &= ports - 1 {
		p := bits.TrailingZeros64(ports)
		outPhase := int64(1)
		if diff&up>>uint(p)&1 != 0 {
			outPhase = 0
		}
		iv.Set(in.phase, outPhase)
		vcOrd, ok := r.decide(req.Node, cubeVC, r.vcArgs, r.vcDargs)
		if !ok {
			return buf[:start]
		}
		buf = append(buf, routing.Candidate{Port: p, VC: int(vcOrd)})
	}
	return buf
}

var _ routing.Algorithm = (*RuleRouteC)(nil)
