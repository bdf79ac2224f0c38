package rulesets

import (
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/rules"
	"repro/internal/topology"
)

// RuleNAFTA is a routing.Algorithm whose routing decisions are made by
// the compiled NAFTA rule program: the ARON tables of
// incoming_message, in_message_ft and test_exception select the rule,
// and the conclusion processing executes it. The native NAFTA instance
// supplies the distributed fault state (it plays the role of the
// router's Information Units), while every per-message decision flows
// through the rule tables — the paper's execution model.
//
// Decisions run on the compiled dense fast path (core.DenseTable over
// a flat core.InputVector, no allocation): the table index is computed
// by compiled closures and the folded RETURN value comes straight from
// the table. Decisions that leave the pure table regime fall back
// transparently to the interpreted reference path on a pooled scratch
// Machine; DisableFast forces that path everywhere (the differential
// and fuzz tests drive both and assert identical decisions).
type RuleNAFTA struct {
	mesh   *topology.Mesh
	native *routing.NAFTA
	prog   *Program
	ff     *core.CompiledBase // incoming_message (fault-free path)
	ft     *core.CompiledBase // in_message_ft
	ex     *core.CompiledBase // test_exception
	loads  routing.LoadView
	faults *fault.Set

	// Fast-path state: the resolved signal slots and the constant
	// argument list are immutable after construction; the flat input
	// vector, the dense tables (each carries lookup scratch) and the
	// pooled slow-path machine bound to the vector are per-decision
	// scratch.
	iv            *core.InputVector
	ffD, ftD, exD *core.DenseTable
	scratch       *core.Machine
	slots         naftaSlots
	args          []rules.Value // constant [invc=0], reused across decisions

	// DisableFast forces every decision onto the interpreted reference
	// path (the oracle the differential tests compare against).
	DisableFast bool

	// Lookups counts table lookups (interpretation steps actually
	// executed).
	Lookups int64
	// OnRuleFired, when non-nil, observes every successful rule-table
	// lookup (deciding node, base name, fired rule index). cmd/ftsim
	// -trace wires the flight recorder here; the disabled path is one
	// nil-check per lookup.
	OnRuleFired func(node topology.NodeID, base string, rule int)
}

// naftaSlots holds the input-vector slots of every signal the decision
// bases read, resolved once at construction.
type naftaSlots struct {
	dxsign, dysign, invnet, lastdir, msglen, budget, vlight int
	avail, avfault, misok                                   [topology.MeshPorts]int
}

// NAFTADecisionBases lists the rule bases the NAFTA adapter consults
// per routing decision — the bases a reconfiguration artifact must
// carry tables for.
var NAFTADecisionBases = []string{"incoming_message", "in_message_ft", "test_exception"}

// NewRuleNAFTA compiles the NAFTA program and binds it to mesh m.
func NewRuleNAFTA(m *topology.Mesh) (*RuleNAFTA, error) {
	p, err := LoadNAFTA()
	if err != nil {
		return nil, err
	}
	return NewRuleNAFTAFromProgram(m, p, nil)
}

// NewRuleNAFTAFromProgram binds an already analysed NAFTA program to
// mesh m. tables optionally supplies precompiled decision tables
// (keyed by base name, e.g. loaded from a reconfiguration artifact);
// they must be bound to p.Checked. Missing entries are compiled
// in-process.
func NewRuleNAFTAFromProgram(m *topology.Mesh, p *Program, tables map[string]*core.CompiledBase) (*RuleNAFTA, error) {
	r := &RuleNAFTA{
		mesh:   m,
		native: routing.NewNAFTA(m),
		prog:   p,
		faults: fault.NewSet(),
		args:   []rules.Value{rules.IntVal(0)},
	}
	var err error
	for _, b := range []struct {
		name string
		dst  **core.CompiledBase
	}{
		{NAFTADecisionBases[0], &r.ff},
		{NAFTADecisionBases[1], &r.ft},
		{NAFTADecisionBases[2], &r.ex},
	} {
		cb := tables[b.name]
		if cb == nil {
			if cb, err = core.CompileBase(p.Checked, b.name, core.CompileOptions{}); err != nil {
				return nil, err
			}
		}
		*b.dst = cb
	}
	layout := core.NewInputLayout(p.Checked)
	r.iv = core.NewInputVector(layout)
	r.scratch = core.NewMachine(p.Checked, r.iv.Provider())
	// Dense compilation is best-effort: a nil table keeps the base on
	// the interpreter (same decisions, just slower).
	for _, b := range []struct {
		cb   *core.CompiledBase
		fast **core.DenseTable
	}{{r.ff, &r.ffD}, {r.ft, &r.ftD}, {r.ex, &r.exD}} {
		if dt, err := b.cb.CompileDense(layout); err == nil {
			*b.fast = dt
		}
	}
	s := &r.slots
	for _, e := range []struct {
		name string
		dst  *int
	}{
		{"dxsign", &s.dxsign}, {"dysign", &s.dysign}, {"invnet", &s.invnet},
		{"lastdir", &s.lastdir}, {"msglen", &s.msglen}, {"budget", &s.budget},
		{"vlight", &s.vlight},
	} {
		if *e.dst, err = layout.SlotOf(e.name); err != nil {
			return nil, err
		}
	}
	for p := 0; p < topology.MeshPorts; p++ {
		if s.avail[p], err = layout.SlotOf("avail", int64(p)); err != nil {
			return nil, err
		}
		if s.avfault[p], err = layout.SlotOf("avfault", int64(p)); err != nil {
			return nil, err
		}
		if s.misok[p], err = layout.SlotOf("misok", int64(p)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// AttachLoads wires the network's load view into the rule inputs (the
// buffer-exploitation signals of the Information Units). Without it
// the adaptivity tie-break defaults to the horizontal output.
func (r *RuleNAFTA) AttachLoads(v routing.LoadView) { r.loads = v }

// DeadlockRegime tags the adapter with the native NAFTA discipline:
// the rule tables implement the same virtual-network scheme, so rule
// and native engines are mutually hot-swappable.
func (r *RuleNAFTA) DeadlockRegime() string { return r.native.DeadlockRegime() }

// InvalidateTables retires the adapter's dense tables. Online
// reconfiguration calls this when the adapter's epoch is retired; any
// later fast-path lookup on this instance panics instead of routing on
// a dead table generation.
func (r *RuleNAFTA) InvalidateTables() {
	for _, dt := range []*core.DenseTable{r.ffD, r.ftD, r.exD} {
		if dt != nil {
			dt.Invalidate()
		}
	}
}

// FastPathActive reports whether all three decision bases compiled to
// the dense fast path.
func (r *RuleNAFTA) FastPathActive() bool {
	return r.ffD != nil && r.ftD != nil && r.exD != nil
}

func (r *RuleNAFTA) Name() string { return "rule-nafta" }
func (r *RuleNAFTA) NumVCs() int  { return r.native.NumVCs() }

func (r *RuleNAFTA) Steps(req routing.Request) int { return r.native.Steps(req) }

func (r *RuleNAFTA) NoteHop(req routing.Request, chosen routing.Candidate) {
	r.native.NoteHop(req, chosen)
}

func (r *RuleNAFTA) UpdateFaults(f *fault.Set) {
	r.faults = f
	r.native.UpdateFaults(f)
}

// fillInputs loads the rule-program input lines of one decision into
// the flat input vector (signal slots were resolved at construction —
// no map, no key building).
func (r *RuleNAFTA) fillInputs(req routing.Request) {
	facts := r.native.PortFacts(req)
	cx, cy := r.mesh.XY(req.Node)
	dx, dy := r.mesh.XY(req.Hdr.Dst)
	vnet := r.native.VNetOf(req)
	lastdir := 4
	if req.InPort != routing.InjectionPort {
		lastdir = topology.OppositeMeshPort(req.InPort)
	}
	sign := func(v int) int64 { // signs = {neg, zero, pos}
		switch {
		case v < 0:
			return 0
		case v == 0:
			return 1
		default:
			return 2
		}
	}
	load := func(p int) int {
		if r.loads == nil {
			return 0
		}
		return r.loads.QueuedFlits(req.Node, p, 0)
	}
	vPort, hPort := -1, -1
	if dy > cy {
		vPort = topology.North
	} else if dy < cy {
		vPort = topology.South
	}
	if dx > cx {
		hPort = topology.East
	} else if dx < cx {
		hPort = topology.West
	}
	vlight := false
	if vPort >= 0 && hPort >= 0 {
		vlight = load(vPort) < load(hPort)
	}
	msglen := req.Hdr.Length
	if msglen > 31 {
		msglen = 31
	}
	iv, s := r.iv, &r.slots
	iv.Begin()
	iv.Set(s.dxsign, sign(dx-cx))
	iv.Set(s.dysign, sign(dy-cy))
	iv.Set(s.invnet, int64(vnet))
	iv.Set(s.lastdir, int64(lastdir))
	iv.Set(s.msglen, int64(msglen))
	iv.SetBool(s.budget, req.Hdr.Misroutes < 4*(r.mesh.W+r.mesh.H))
	iv.SetBool(s.vlight, vlight)
	for p := 0; p < topology.MeshPorts; p++ {
		iv.SetBool(s.avail[p], facts[p].Usable)
		iv.SetBool(s.avfault[p], facts[p].Usable && facts[p].Sideways && facts[p].EntryMinimal)
		iv.SetBool(s.misok[p], facts[p].Usable && facts[p].Sideways && facts[p].EntryMisroute)
	}
}

// fire reports one successful rule selection to the hook, if any.
func (r *RuleNAFTA) fire(node topology.NodeID, base string, rule int) {
	if r.OnRuleFired != nil {
		r.OnRuleFired(node, base, rule)
	}
}

// decide runs one rule base over the input vector: dense table
// first, interpreted reference path when the fast path is unavailable
// or the decision leaves the pure table regime. Counter and hook
// semantics are identical on both paths: the lookup counter increments
// once per decision, the fire hook observes exactly when a rule (not
// the "no rule" conclusion) is selected.
func (r *RuleNAFTA) decide(req routing.Request, cb *core.CompiledBase, dt *core.DenseTable) (int, bool) {
	r.Lookups++
	if dt != nil && !r.DisableFast {
		if idx, ok := dt.Lookup(r.iv, 0); ok {
			if idx >= cb.RuleCount {
				return 0, false
			}
			r.fire(req.Node, cb.Base, idx)
			if ret, rok := dt.Return(idx); rok {
				return int(ret.I), true
			}
			// Conclusion needs the interpreter (no folded RETURN):
			// fire the already-selected rule there.
			eff, err := r.prog.Checked.FireRule(cb.Base, idx, r.args, r.scratch)
			if err != nil || eff.Return == nil {
				return 0, false
			}
			return int(eff.Return.I), true
		}
		// The lookup left the dense regime: repeat the whole decision
		// on the reference path.
	}
	m := r.scratch
	m.Reset()
	idx, err := cb.LookupRule(r.args, m)
	if err != nil || idx >= cb.RuleCount {
		return 0, false
	}
	r.fire(req.Node, cb.Base, idx)
	eff, err := r.prog.Checked.FireRule(cb.Base, idx, r.args, m)
	if err != nil || eff.Return == nil {
		return 0, false
	}
	return int(eff.Return.I), true
}

// Route performs the decision through the compiled rule tables: the
// table lookup selects the applicable rule and the conclusion is
// executed for its RETURN value. An empty result means unroutable.
func (r *RuleNAFTA) Route(req routing.Request) []routing.Candidate {
	return r.RouteAppend(req, nil)
}

// RouteAppend is the allocation-free form of Route (BufferedAlgorithm).
func (r *RuleNAFTA) RouteAppend(req routing.Request, buf []routing.Candidate) []routing.Candidate {
	r.fillInputs(req)
	primary, primaryD := r.ft, r.ftD
	if r.faults.Empty() {
		primary, primaryD = r.ff, r.ffD
	}
	if port, ok := r.decide(req, primary, primaryD); ok {
		return append(buf, routing.Candidate{Port: port, VC: r.native.VNetOf(req)})
	}
	if port, ok := r.decide(req, r.ex, r.exD); ok {
		return append(buf, routing.Candidate{Port: port, VC: r.native.VNetOf(req)})
	}
	return buf
}

var _ routing.Algorithm = (*RuleNAFTA)(nil)
var _ routing.BufferedAlgorithm = (*RuleNAFTA)(nil)
