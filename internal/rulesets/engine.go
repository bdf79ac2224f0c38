package rulesets

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/rules"
	"repro/internal/topology"
)

// Engine is the rule interpreter of the paper's router, written once
// for every family: premise units (the flat input vector a family's
// fillInputs loads), table lookup (the bound decision bases) and the
// hand-over to conclusion processing (the fired rule's RETURN value).
// RuleNAFTA, RuleRouteC and RuleMaze embed it and add only what differs
// between algorithms — which signals they store and how they decode the
// conclusions; a new algorithm is a new rule base plus those two, not a
// new interpreter.
//
// The Engine embeds the family's native instance, which plays the
// router's Information Units: every routing.Algorithm method the rule
// tables do not replace — NumVCs, Steps, the deadlock regime, the
// credit gate, the flush, the unreachable verdict, the block view — is
// the native's by construction, so an adapter cannot drop one. Not the
// header update: an adapter's RouteAppend concludes each candidate's
// routing.Hop itself, from the values its decision holds. The
// regime in particular: the rule tables implement the native's
// virtual-channel scheme, so rule and native engines are mutually
// hot-swappable. An adapter overrides Name, RouteAppend and whatever
// its tables replace.
//
// Decisions run on the compiled dense fast path (core.DenseTable over
// the flat core.InputVector, no allocation): the table index is
// computed by the base's flat op program — or read from its premise
// memo when the base reads only a few small-domain inputs — and the
// folded RETURN value comes straight from the table. Decisions that leave the pure table regime
// fall back transparently to the interpreted reference path on a pooled
// scratch Machine; DisableFast forces that path everywhere (the
// differential and fuzz tests drive both and assert identical
// decisions).
//
// bind fixes everything but the exported fields and the fault set; the
// input vector, the dense tables (each carries lookup scratch) and the
// machine are per-decision scratch, so an Engine — like the adapter
// around it — serves one goroutine.
type Engine struct {
	routing.Algorithm // the family's native instance: its Information Units

	checked *rules.Checked
	faults  *fault.Set // as of the last UpdateFaults
	iv      *core.InputVector
	scratch *core.Machine
	bases   []boundBase // in the order of the family's *DecisionBases

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

// boundBase is one decision base as the engine consults it: the ARON
// table and, when the base compiled densely, its fast path.
type boundBase struct {
	cb    *core.CompiledBase
	dense *core.DenseTable // nil keeps the base on the interpreter
}

// place is one entry of a family's input declaration: a signal its
// fillInputs stores, the element count the bound topology gives it, and
// where the resolved position goes.
type place struct {
	name  string
	elems int   // 0 for a scalar, else the exact count (ports, dimensions)
	at    *int  // a scalar's slot, or the bit word of a packed 0/1 signal
	each  []int // the slots of an unpacked signal, one per element
}

// invc0 is the constant event argument [invc=0] of the NAFTA and maze
// decision bases, in interpreter and fast-path convention. Lookups only
// read their arguments, so every instance shares the two slices.
var (
	invc0  = []rules.Value{rules.IntVal(0)}
	invc0D = []int64{0}
)

// bind wires the engine to an analysed program: each decision base is
// taken from tables when present (keyed by base name, e.g. loaded from a
// reconfiguration artifact, and bound to p.Checked) and compiled
// in-process otherwise; the input layout, the vector, the scratch
// machine reading that vector and the dense tables follow, and inputs
// are resolved against the layout. units is the native instance the
// engine embeds.
func (e *Engine) bind(units routing.Algorithm, p *Program, tables map[string]*core.CompiledBase, baseNames []string, inputs []place) error {
	e.Algorithm, e.checked, e.faults = units, p.Checked, fault.NewSet()
	layout := core.NewInputLayout(p.Checked)
	e.iv = core.NewInputVector(layout)
	e.scratch = core.NewMachine(p.Checked, e.iv.Provider())
	e.bases = make([]boundBase, len(baseNames))
	for i, name := range baseNames {
		cb := tables[name]
		if cb == nil {
			var err error
			if cb, err = core.CompileBase(p.Checked, name, core.CompileOptions{}); err != nil {
				return err
			}
		}
		e.bases[i].cb = cb
		// Dense compilation is best-effort: a nil table keeps the base on
		// the interpreter (same decisions, just slower).
		if dt, err := cb.CompileDense(layout); err == nil {
			e.bases[i].dense = dt
		}
	}
	for _, in := range inputs {
		// A program generated for another cube dimension or port count
		// would bind and then route on lines the adapter never stores, or
		// drop the ones it does: refuse both directions.
		want := int64(max(in.elems, 1))
		if info := p.Checked.Signals[in.name]; info != nil && info.Slots() != want {
			return fmt.Errorf("rulesets: %s: input %s has %d elements, the bound topology needs %d",
				p.Name, in.name, info.Slots(), want)
		}
		var err error
		switch {
		case in.elems == 0:
			*in.at, err = layout.SlotOf(in.name)
		case in.each == nil:
			*in.at, err = layout.WordOf(in.name)
		default:
			for i := 0; i < in.elems && err == nil; i++ {
				in.each[i], err = layout.SlotOf(in.name, int64(i))
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Adapter is any of the rule-table algorithms, for the callers that
// want the shared Engine — DisableFast, Lookups, OnRuleFired — and not
// the family.
type Adapter interface {
	routing.Algorithm
	RuleEngine() *Engine
}

// RuleEngine returns the engine itself (see Adapter).
func (e *Engine) RuleEngine() *Engine { return e }

// InvalidateTables retires the engine's dense tables. Online
// reconfiguration calls this when the adapter's epoch is retired; any
// later fast-path lookup on this instance panics instead of routing on
// a dead table generation.
func (e *Engine) InvalidateTables() {
	for _, b := range e.bases {
		if b.dense != nil {
			b.dense.Invalidate()
		}
	}
}

// FastPathActive reports whether every decision base compiled to the
// dense fast path.
func (e *Engine) FastPathActive() bool {
	for _, b := range e.bases {
		if b.dense == nil {
			return false
		}
	}
	return true
}

// UpdateFaults hands the new fault set to the native instance, which
// recomputes the distributed fault state the inputs are read from.
func (e *Engine) UpdateFaults(f *fault.Set) {
	e.faults = f
	e.Algorithm.UpdateFaults(f)
}

// decide runs decision base b (an index into the family's
// *DecisionBases) over the current input vector; the lookup counter
// increments once per call on either path. See decideBase.
func (e *Engine) decide(node topology.NodeID, b int, args []rules.Value, dargs []int64) (int64, bool) {
	e.Lookups++
	base := &e.bases[b]
	dt := base.dense
	if e.DisableFast {
		dt = nil
	}
	return decideBase(e.checked, base.cb, dt, e.iv, e.scratch, args, dargs, node, e.OnRuleFired)
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
