package rulesets

import (
	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/topology"
)

// RuleNAFTA is a routing.Algorithm whose routing decisions are made by
// the compiled NAFTA rule program: the ARON tables of
// incoming_message, in_message_ft and test_exception select the rule,
// and the conclusion processing executes it. The native NAFTA instance
// supplies the distributed fault state (it plays the role of the
// router's Information Units), while every per-message decision flows
// through the rule tables of the embedded Engine — the paper's
// execution model.
type RuleNAFTA struct {
	Engine
	native *routing.NAFTA
	loads  routing.LoadView
	slots  naftaSlots // immutable after construction
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

// The Engine's indices of NAFTADecisionBases.
const (
	naftaIncoming  = iota // incoming_message (fault-free path)
	naftaFT               // in_message_ft
	naftaException        // test_exception
)

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
	r := &RuleNAFTA{native: routing.NewNAFTA(m)}
	s := &r.slots
	err := r.bind(r.native, p, tables, NAFTADecisionBases, []place{
		{name: "dxsign", at: &s.dxsign}, {name: "dysign", at: &s.dysign},
		{name: "invnet", at: &s.invnet}, {name: "lastdir", at: &s.lastdir},
		{name: "msglen", at: &s.msglen}, {name: "budget", at: &s.budget},
		{name: "vlight", at: &s.vlight},
		{name: "avail", elems: topology.MeshPorts, at: &s.avail},
		{name: "avfault", elems: topology.MeshPorts, at: &s.avfault},
		{name: "misok", elems: topology.MeshPorts, at: &s.misok},
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// AttachLoads wires the network's load view into the rule inputs (the
// buffer-exploitation signals of the Information Units). Without it
// the adaptivity tie-break defaults to the horizontal output.
func (r *RuleNAFTA) AttachLoads(v routing.LoadView) { r.loads = v }

func (r *RuleNAFTA) Name() string { return "rule-nafta" }

// CheckFacts is the oracle of the UpdateFaults precompute: the words
// fillInputs stores are read off the native instance's per-node fact
// records, which only UpdateFaults rewrites (routing.NAFTA.CheckFacts).
func (r *RuleNAFTA) CheckFacts() error { return r.native.CheckFacts() }

// fillInputs loads the rule-program input lines of one decision into
// the flat input vector (signal slots were resolved at construction —
// no map, no key building) and returns the words it loaded them from.
// The fault knowledge arrives as whole words from the native
// instance's per-node records; nothing here asks the mesh or the fault
// set.
func (r *RuleNAFTA) fillInputs(req routing.Request) routing.FactWords {
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
	return w
}

// RouteAppend performs the decision through the compiled rule tables:
// the table lookup selects the applicable rule and the conclusion is
// executed for its RETURN value. An empty result means unroutable.
func (r *RuleNAFTA) RouteAppend(req routing.Request, buf []routing.Candidate) []routing.Candidate {
	w := r.fillInputs(req)
	primary := naftaFT
	if r.faults.Empty() {
		primary = naftaIncoming
	}
	port, ok := r.decide(req.Node, primary, invc0, invc0D)
	if !ok {
		if port, ok = r.decide(req.Node, naftaException, invc0, invc0D); !ok {
			return buf
		}
	}
	// Conclusion processing modifies the header: a port outside the
	// minimal ports of the sign lines is a misroute, and an injected
	// message latches its virtual network.
	var hop routing.Hop
	if req.InPort == routing.InjectionPort {
		hop.Ops = routing.HopLatchVNet
	}
	if w.Minimal>>uint(port)&1 == 0 {
		hop.Ops |= routing.HopMisroute
	}
	return append(buf, routing.Candidate{Port: int(port), VC: w.VNet, Hop: hop})
}

var _ routing.Algorithm = (*RuleNAFTA)(nil)
