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
	dargs         []int64       // the same in fast-path convention

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

// naftaSlots holds the input-vector places of every signal the
// decision bases read, resolved once at construction: slots for the
// scalars, bit words (bit p = mesh port p) for the per-port lines.
type naftaSlots struct {
	dxsign, dysign, invnet, lastdir, msglen, budget, vlight int
	avail, avfault, misok                                   int
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
		dargs:  []int64{0},
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
	for _, e := range []struct {
		name string
		dst  *int
	}{
		{"avail", &s.avail}, {"avfault", &s.avfault}, {"misok", &s.misok},
	} {
		if *e.dst, err = layout.WordOf(e.name); err != nil {
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

// CheckFacts is the oracle of the UpdateFaults precompute: the words
// fillInputs stores are read off the native instance's per-node fact
// records, which only UpdateFaults rewrites (routing.NAFTA.CheckFacts).
func (r *RuleNAFTA) CheckFacts() error { return r.native.CheckFacts() }

// fillInputs loads the rule-program input lines of one decision into
// the flat input vector (signal slots were resolved at construction —
// no map, no key building) and returns the message's virtual network.
// The fault knowledge arrives as whole words from the native
// instance's per-node records; nothing here asks the mesh or the fault
// set.
func (r *RuleNAFTA) fillInputs(req routing.Request) int {
	w := r.native.FactWords(req)
	lastdir := 4
	if req.InPort != routing.InjectionPort {
		lastdir = topology.OppositeMeshPort(req.InPort)
	}
	// The adaptivity tie-break compares the loads of the two minimal
	// outputs of a diagonal message.
	vlight := false
	if r.loads != nil && w.SX != 0 && w.SY != 0 {
		vPort, hPort := topology.North, topology.East
		if w.SY < 0 {
			vPort = topology.South
		}
		if w.SX < 0 {
			hPort = topology.West
		}
		vlight = r.loads.QueuedFlits(req.Node, vPort, 0) < r.loads.QueuedFlits(req.Node, hPort, 0)
	}
	msglen := req.Hdr.Length
	if msglen > 31 {
		msglen = 31
	}
	iv, s := r.iv, &r.slots
	iv.Begin()
	iv.Set(s.dxsign, int64(w.SX+1)) // signs = {neg, zero, pos}
	iv.Set(s.dysign, int64(w.SY+1))
	iv.Set(s.invnet, int64(w.VNet))
	iv.Set(s.lastdir, int64(lastdir))
	iv.Set(s.msglen, int64(msglen))
	iv.SetBool(s.budget, req.Hdr.Misroutes < r.native.DetourBudget())
	iv.SetBool(s.vlight, vlight)
	iv.SetWord(s.avail, uint64(w.Avail))
	iv.SetWord(s.avfault, uint64(w.AvFault))
	iv.SetWord(s.misok, uint64(w.MisOK))
	return w.VNet
}

// decide runs one rule base over the input vector (see decideBase);
// the lookup counter increments once per decision on either path.
func (r *RuleNAFTA) decide(req routing.Request, cb *core.CompiledBase, dt *core.DenseTable) (int, bool) {
	r.Lookups++
	if r.DisableFast {
		dt = nil
	}
	v, ok := decideBase(r.prog.Checked, cb, dt, r.iv, r.scratch, r.args, r.dargs, req.Node, r.OnRuleFired)
	return int(v), ok
}

// decideBase is the one rule-table decision of all adapters: dense
// table first (dt nil pins the decision to the interpreter),
// interpreted reference path on the scratch machine m when the fast
// path is unavailable or the lookup leaves the pure table regime. It
// returns the fired rule's RETURN value; ok=false means no rule
// applies. args and dargs carry the same event arguments in
// interpreter and fast-path convention. Hook semantics are identical
// on both paths: hook observes exactly when a rule (not the "no rule"
// conclusion) is selected.
func decideBase(c *rules.Checked, cb *core.CompiledBase, dt *core.DenseTable, iv *core.InputVector, m *core.Machine,
	args []rules.Value, dargs []int64, node topology.NodeID, hook func(topology.NodeID, string, int)) (int64, bool) {
	idx, fast := 0, false
	if dt != nil {
		idx, fast = dt.Lookup(iv, dargs...)
	}
	if !fast {
		// Outside the dense regime: repeat the whole decision on the
		// reference path.
		m.Reset()
		var err error
		if idx, err = cb.LookupRule(args, m); err != nil {
			return 0, false
		}
	}
	if idx >= cb.RuleCount {
		return 0, false
	}
	if hook != nil {
		hook(node, cb.Base, idx)
	}
	if fast {
		if ret, ok := dt.Return(idx); ok {
			return ret.I, true
		}
		// Conclusion needs the interpreter (no folded RETURN): fire
		// the already-selected rule there.
	}
	eff, err := c.FireRule(cb.Base, idx, args, m)
	if err != nil || eff.Return == nil {
		return 0, false
	}
	return eff.Return.I, true
}

// Route performs the decision through the compiled rule tables: the
// table lookup selects the applicable rule and the conclusion is
// executed for its RETURN value. An empty result means unroutable.
func (r *RuleNAFTA) Route(req routing.Request) []routing.Candidate {
	return r.RouteAppend(req, nil)
}

// RouteAppend is the allocation-free form of Route (BufferedAlgorithm).
func (r *RuleNAFTA) RouteAppend(req routing.Request, buf []routing.Candidate) []routing.Candidate {
	vnet := r.fillInputs(req)
	primary, primaryD := r.ft, r.ftD
	if r.faults.Empty() {
		primary, primaryD = r.ff, r.ffD
	}
	if port, ok := r.decide(req, primary, primaryD); ok {
		return append(buf, routing.Candidate{Port: port, VC: vnet})
	}
	if port, ok := r.decide(req, r.ex, r.exD); ok {
		return append(buf, routing.Candidate{Port: port, VC: vnet})
	}
	return buf
}

var _ routing.Algorithm = (*RuleNAFTA)(nil)
var _ routing.BufferedAlgorithm = (*RuleNAFTA)(nil)
