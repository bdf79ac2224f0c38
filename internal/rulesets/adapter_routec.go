package rulesets

import (
	"fmt"

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
// Like RuleNAFTA, decisions run on the dense fast path (compiled index
// closures over a flat input vector) with a transparent fallback to
// the interpreted reference path on a pooled scratch Machine;
// DisableFast pins every decision to the reference path.
type RuleRouteC struct {
	cube   *topology.Hypercube
	native *routing.RouteC
	prog   *Program
	dir    *core.CompiledBase
	vc     *core.CompiledBase
	faults *fault.Set

	// slots is immutable after construction; the rest is
	// per-decision scratch: the flat input vector, the dense decision
	// tables (whose lookup scratch is per-instance), the pooled
	// reference-path Machine, the conclusion-processing line buffers and
	// the decide_vc argument scratch.
	slots       cubeSlots
	iv          *core.InputVector
	dirD, vcD   *core.DenseTable
	scratch     *core.Machine
	lines       cubeLines
	portScratch []int
	vcArgs      []rules.Value
	vcDargs     []int64

	// DisableFast forces the interpreted reference path (the oracle of
	// the differential tests).
	DisableFast bool

	// Lookups counts rule-table lookups (two per decision).
	Lookups int64
	// OnRuleFired, when non-nil, observes every successful rule-table
	// lookup (deciding node, base name, fired rule index); the flight
	// recorder attaches here.
	OnRuleFired func(node topology.NodeID, base string, rule int)
}

// cubeSlots holds the input-vector slots of the ROUTE_C decision
// inputs, resolved once at construction (per-dimension vectors keep
// one slot per dimension).
type cubeSlots struct {
	diffb, upb, okl, nbsafe, notback []int
	newState, adaptLoad              []int
	phase, level, takingDetour       int
}

// RouteCDecisionBases lists the rule bases the ROUTE_C adapter
// consults per routing decision — the bases a reconfiguration artifact
// must carry tables for.
var RouteCDecisionBases = []string{"decide_dir", "decide_vc"}

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
// compiled in-process. The program's cube dimension must match h.Dim —
// a mismatch surfaces as a slot-resolution error below.
func NewRuleRouteCFromProgram(h *topology.Hypercube, p *Program, tables map[string]*core.CompiledBase) (*RuleRouteC, error) {
	r := &RuleRouteC{
		cube:   h,
		native: routing.NewRouteC(h),
		prog:   p,
		faults: fault.NewSet(),

		vcArgs:  make([]rules.Value, 1),
		vcDargs: make([]int64, 1),
	}
	var err error
	for _, b := range []struct {
		name string
		dst  **core.CompiledBase
	}{
		{RouteCDecisionBases[0], &r.dir},
		{RouteCDecisionBases[1], &r.vc},
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
	if dt, err := r.dir.CompileDense(layout); err == nil {
		r.dirD = dt
	}
	if dt, err := r.vc.CompileDense(layout); err == nil {
		r.vcD = dt
	}
	d := h.Dim
	s := &r.slots
	for _, e := range []struct {
		name string
		dst  *[]int
	}{
		{"diffb", &s.diffb}, {"upb", &s.upb}, {"okl", &s.okl},
		{"nbsafe", &s.nbsafe}, {"notback", &s.notback},
		{"new_state", &s.newState}, {"adapt_load", &s.adaptLoad},
	} {
		*e.dst = make([]int, d)
		for i := 0; i < d; i++ {
			if (*e.dst)[i], err = layout.SlotOf(e.name, int64(i)); err != nil {
				return nil, err
			}
		}
	}
	for _, e := range []struct {
		name string
		dst  *int
	}{
		{"phase", &s.phase}, {"level", &s.level}, {"taking_detour", &s.takingDetour},
	} {
		if *e.dst, err = layout.SlotOf(e.name); err != nil {
			return nil, err
		}
	}
	r.lines = cubeLines{
		diff:       make([]bool, d),
		up:         make([]bool, d),
		ok:         make([]bool, d),
		safe:       make([]bool, d),
		notback:    make([]bool, d),
		stateClass: make([]int, d),
	}
	return r, nil
}

func (r *RuleRouteC) Name() string { return "rule-routec" }
func (r *RuleRouteC) NumVCs() int  { return r.native.NumVCs() }

// FastPathActive reports whether both decision bases compiled to the
// dense fast path.
func (r *RuleRouteC) FastPathActive() bool { return r.dirD != nil && r.vcD != nil }

// DeadlockRegime tags the adapter with the native ROUTE_C discipline:
// rule and native engines are mutually hot-swappable.
func (r *RuleRouteC) DeadlockRegime() string { return r.native.DeadlockRegime() }

// InvalidateTables retires the adapter's dense tables; any later
// fast-path lookup on this instance panics (see RuleNAFTA).
func (r *RuleRouteC) InvalidateTables() {
	for _, dt := range []*core.DenseTable{r.dirD, r.vcD} {
		if dt != nil {
			dt.Invalidate()
		}
	}
}

// Steps is always two interpretations (decide_dir, decide_vc).
func (r *RuleRouteC) Steps(routing.Request) int { return 2 }

func (r *RuleRouteC) NoteHop(req routing.Request, chosen routing.Candidate) {
	r.native.NoteHop(req, chosen)
}

func (r *RuleRouteC) UpdateFaults(f *fault.Set) {
	r.faults = f
	r.native.UpdateFaults(f)
}

// cubeLines holds the per-decision input lines shared by the rule
// tables and the conclusion-processing priority encoder. The slices
// are allocated once per adapter and refilled per decision.
type cubeLines struct {
	diff, up, ok, safe, notback []bool
	// stateClass carries the full neighbour-state ordering for the
	// conclusion-processing priority encoder (0 = safe or the
	// destination, then ounsafe, sunsafe, faulty).
	stateClass []int
}

// fillLines recomputes the input lines of one decision in place.
func (r *RuleRouteC) fillLines(req routing.Request) {
	d := r.cube.Dim
	l := &r.lines
	states := r.native.States()
	for i := 0; i < d; i++ {
		nb := r.cube.Neighbor(req.Node, i)
		l.diff[i] = req.Node&(1<<i) != req.Hdr.Dst&(1<<i)
		l.up[i] = req.Node&(1<<i) == 0
		l.ok[i] = r.faults.PortUsable(r.cube, req.Node, i)
		l.safe[i] = nb == req.Hdr.Dst || states[nb] == routing.StateSafe
		l.notback[i] = i != req.InPort
		if nb == req.Hdr.Dst {
			l.stateClass[i] = 0
		} else {
			l.stateClass[i] = int(states[nb])
		}
	}
}

// fillInputs loads the decision's input lines into the flat input
// vector. phase and taking_detour vary between the dir decision and
// the per-port vc decisions; Route re-sets just those two slots.
func (r *RuleRouteC) fillInputs(req routing.Request) {
	iv, s, l := r.iv, &r.slots, &r.lines
	iv.Begin()
	safeOrd := r.prog.Checked.Symbols["safe"].I
	for i := 0; i < r.cube.Dim; i++ {
		iv.SetBool(s.diffb[i], l.diff[i])
		iv.SetBool(s.upb[i], l.up[i])
		iv.SetBool(s.okl[i], l.ok[i])
		iv.SetBool(s.nbsafe[i], l.safe[i])
		iv.SetBool(s.notback[i], l.notback[i])
		iv.Set(s.newState[i], safeOrd)
		iv.Set(s.adaptLoad[i], 0)
	}
	iv.Set(s.phase, int64(req.Hdr.Phase))
	iv.Set(s.level, int64(req.Hdr.DetourLevel))
	iv.SetBool(s.takingDetour, false)
}

// decide runs one compiled table over the current input vector and
// returns the RETURN value ordinal. Dense fast path first; the
// interpreted reference path serves fallbacks and DisableFast. Counter
// and hook semantics are identical on both paths.
func (r *RuleRouteC) decide(node topology.NodeID, cb *core.CompiledBase, dt *core.DenseTable,
	args []rules.Value, dargs []int64) (int64, error) {
	r.Lookups++
	if dt != nil && !r.DisableFast {
		if idx, ok := dt.Lookup(r.iv, dargs...); ok {
			if idx >= cb.RuleCount {
				return 0, fmt.Errorf("rule-routec: %s selected no rule", cb.Base)
			}
			r.fire(node, cb.Base, idx)
			if ret, rok := dt.Return(idx); rok {
				return ret.I, nil
			}
			eff, err := r.prog.Checked.FireRule(cb.Base, idx, args, r.scratch)
			if err != nil || eff.Return == nil {
				return 0, fmt.Errorf("rule-routec: %s rule %d has no value (%v)", cb.Base, idx, err)
			}
			return eff.Return.I, nil
		}
		// Outside the dense regime: repeat on the reference path.
	}
	m := r.scratch
	m.Reset()
	idx, err := cb.LookupRule(args, m)
	if err != nil {
		return 0, err
	}
	if idx >= cb.RuleCount {
		return 0, fmt.Errorf("rule-routec: %s selected no rule", cb.Base)
	}
	r.fire(node, cb.Base, idx)
	eff, err := r.prog.Checked.FireRule(cb.Base, idx, args, m)
	if err != nil || eff.Return == nil {
		return 0, fmt.Errorf("rule-routec: %s rule %d has no value (%v)", cb.Base, idx, err)
	}
	return eff.Return.I, nil
}

// fire reports one rule firing to the hook, if any.
func (r *RuleRouteC) fire(node topology.NodeID, base string, rule int) {
	if r.OnRuleFired != nil {
		r.OnRuleFired(node, base, rule)
	}
}

// portsForMode is the conclusion-processing priority logic: expand a
// decide_dir mode back into the admissible ports, lowest dimension
// first. The returned slice aliases adapter scratch storage.
func (r *RuleRouteC) portsForMode(mode string) ([]int, bool) {
	d := r.cube.Dim
	l := &r.lines
	var eligible func(i int) bool
	detour := false
	switch mode {
	case "up_safe", "up_any":
		eligible = func(i int) bool { return l.diff[i] && l.up[i] && l.ok[i] && l.notback[i] }
	case "down_safe", "down_any":
		eligible = func(i int) bool { return l.diff[i] && !l.up[i] && l.ok[i] && l.notback[i] }
	case "bump_safe", "bump_any":
		// Minimal ascending hops that claim the next level's channel
		// (a descending-entry level ran out of down work).
		eligible = func(i int) bool { return l.diff[i] && l.up[i] && l.ok[i] && l.notback[i] }
		detour = true // bump and detour share the level+1 VC mapping
	case "detour_safe", "detour_any":
		eligible = func(i int) bool { return !l.diff[i] && l.ok[i] && l.notback[i] }
		detour = true
	default:
		return nil, false
	}
	// The same best-state preference the native preferSafe applies:
	// keep only the dimensions with the lowest state class.
	best := 1 << 30
	for i := 0; i < d; i++ {
		if eligible(i) && l.stateClass[i] < best {
			best = l.stateClass[i]
		}
	}
	out := r.portScratch[:0]
	for i := 0; i < d; i++ {
		if eligible(i) && l.stateClass[i] == best {
			out = append(out, i)
		}
	}
	r.portScratch = out[:0]
	return out, detour
}

func (r *RuleRouteC) Route(req routing.Request) []routing.Candidate {
	return r.RouteAppend(req, nil)
}

// RouteAppend is the allocation-free form of Route (BufferedAlgorithm).
func (r *RuleRouteC) RouteAppend(req routing.Request, buf []routing.Candidate) []routing.Candidate {
	c := r.prog.Checked
	r.fillLines(req)
	r.fillInputs(req)
	modeOrd, err := r.decide(req.Node, r.dir, r.dirD, nil, nil)
	if err != nil {
		return buf
	}
	mode := c.SymbolSets["modes"].Symbols[modeOrd]
	if mode == "blocked" || mode == "arrived" {
		return buf
	}
	ports, detour := r.portsForMode(mode)
	start := len(buf)
	for _, p := range ports {
		outPhase := 1
		if r.lines.up[p] && r.lines.diff[p] {
			outPhase = 0
		}
		r.iv.Set(r.slots.phase, int64(outPhase))
		r.iv.SetBool(r.slots.takingDetour, detour)
		r.vcArgs[0] = c.Symbols[mode]
		r.vcDargs[0] = c.Symbols[mode].I
		vcOrd, err := r.decide(req.Node, r.vc, r.vcD, r.vcArgs, r.vcDargs)
		if err != nil {
			return buf[:start]
		}
		buf = append(buf, routing.Candidate{Port: p, VC: int(vcOrd)})
	}
	return buf
}

var _ routing.Algorithm = (*RuleRouteC)(nil)
var _ routing.BufferedAlgorithm = (*RuleRouteC)(nil)
