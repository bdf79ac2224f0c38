package core

// The compiled decision fast path. CompileBase already turns a rule
// base into a completely filled table (the paper's ARON argument), but
// LookupRule still computes the table index through the reference
// expression evaluator: string-keyed scope maps, rules.Value boxing and
// an Env round-trip per signal occurrence. That is fine for the cost
// model and the oracle, and far too slow for the simulator's per-flit
// hot path.
//
// This file adds the missing off-line step: the index computation
// itself is compiled. Every INPUT signal of the program gets a fixed
// integer slot (InputLayout); a decision fills a flat InputVector once
// (no maps, no fmt key building); and each field/atom of a
// CompiledBase is translated into a closure tree over that vector
// (quantifiers become loops, subbase calls are inlined, constant sets
// fold to bitmasks). DenseTable.Lookup is then: evaluate a handful of
// int64 closures, combine them into the flat feature index, and read
// the pre-filled table — no allocation, no interface dispatch per
// signal.
//
// The fast path is deliberately partial: premises that read VARIABLEs
// or that the compiler cannot fold report a compile error, and a
// lookup that leaves the supported regime (unset input, out-of-range
// index, subbase with no applicable rule) reports ok=false — callers
// fall back to the interpreted reference path, which remains the
// behavioural oracle (differential and fuzz tests assert equality).

import (
	"fmt"
	"sort"

	"repro/internal/rules"
)

// ---------------------------------------------------------------------
// Input layout and vector.

// inputSlot is the resolved placement of one INPUT signal: a
// contiguous run of slots, one per index combination, in row-major
// order (matching Machine.slot).
type inputSlot struct {
	info    *rules.SignalInfo
	off     int
	strides []int // per index dimension, in slots
}

// InputLayout assigns every INPUT signal of an analysed program a
// fixed range of integer slots, resolved once at compile time. It is
// shared by all DenseTables of the program and by the InputVectors the
// adapters fill per decision.
type InputLayout struct {
	checked *rules.Checked
	byName  map[string]*inputSlot
	total   int
}

// NewInputLayout builds the slot assignment for all INPUT signals of
// c. Slot order is deterministic (signal names sorted).
func NewInputLayout(c *rules.Checked) *InputLayout {
	l := &InputLayout{checked: c, byName: make(map[string]*inputSlot)}
	var names []string
	for name, info := range c.Signals {
		if info.IsInput {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		info := c.Signals[name]
		s := &inputSlot{info: info, off: l.total}
		s.strides = make([]int, len(info.Index))
		stride := 1
		for i := len(info.Index) - 1; i >= 0; i-- {
			s.strides[i] = stride
			stride *= int(info.Index[i].DomainSize())
		}
		l.byName[name] = s
		l.total += int(info.Slots())
	}
	return l
}

// NumSlots returns the total number of input slots.
func (l *InputLayout) NumSlots() int { return l.total }

// SlotOf resolves an input signal element to its flat slot. Index
// arguments are zero-based ordinals (symbol ordinal, or integer value
// minus the index domain's lower bound), matching the convention of
// rules.Env.ReadInput. Adapters call this once at construction and
// keep the returned ints.
func (l *InputLayout) SlotOf(name string, idx ...int64) (int, error) {
	s, ok := l.byName[name]
	if !ok {
		return 0, fmt.Errorf("core: unknown input %s", name)
	}
	if len(idx) != len(s.strides) {
		return 0, fmt.Errorf("core: input %s needs %d indices, got %d", name, len(s.strides), len(idx))
	}
	slot := s.off
	for i, ix := range idx {
		if ix < 0 || ix >= s.info.Index[i].DomainSize() {
			return 0, fmt.Errorf("core: input %s index %d out of range: %d", name, i, ix)
		}
		slot += int(ix) * s.strides[i]
	}
	return slot, nil
}

// InputVector is the flat per-decision input store of the fast path:
// one int64 per input slot (raw value for integer signals, ordinal for
// symbol signals). A generation counter distinguishes slots set for
// the current decision from stale ones, so clearing between decisions
// is O(1). An InputVector is not safe for concurrent use — one per
// algorithm instance, like the adapters themselves.
type InputVector struct {
	layout *InputLayout
	vals   []int64
	gens   []uint32
	gen    uint32
}

// NewInputVector allocates a vector for layout l with all slots unset.
func NewInputVector(l *InputLayout) *InputVector {
	return &InputVector{
		layout: l,
		vals:   make([]int64, l.NumSlots()),
		gens:   make([]uint32, l.NumSlots()),
		gen:    1,
	}
}

// Begin starts a new decision: every slot becomes unset, without
// touching the backing arrays.
func (iv *InputVector) Begin() {
	iv.gen++
	if iv.gen == 0 { // wrapped: erase stale generations once
		for i := range iv.gens {
			iv.gens[i] = 0
		}
		iv.gen = 1
	}
}

// Set stores the value of one slot for the current decision.
func (iv *InputVector) Set(slot int, v int64) {
	iv.vals[slot] = v
	iv.gens[slot] = iv.gen
}

// SetBool stores 0/1.
func (iv *InputVector) SetBool(slot int, b bool) {
	v := int64(0)
	if b {
		v = 1
	}
	iv.Set(slot, v)
}

// get reads a slot; ok is false when the slot was not set for the
// current decision.
func (iv *InputVector) get(slot int) (int64, bool) {
	if iv.gens[slot] != iv.gen {
		return 0, false
	}
	return iv.vals[slot], true
}

// Provider adapts the vector to the interpreter's InputProvider
// interface, replacing the map[string]Value + fmt.Sprintf providers of
// the adapters: the residual slow path reads the same slots the fast
// path does. Index arguments follow the zero-based Env convention.
func (iv *InputVector) Provider() InputProvider {
	l := iv.layout
	return func(name string, idx []int64) (rules.Value, error) {
		s, ok := l.byName[name]
		if !ok {
			return rules.Value{}, fmt.Errorf("core: unknown input %s", name)
		}
		if len(idx) != len(s.strides) {
			return rules.Value{}, fmt.Errorf("core: input %s needs %d indices, got %d", name, len(s.strides), len(idx))
		}
		slot := s.off
		for i, ix := range idx {
			if ix < 0 || ix >= s.info.Index[i].DomainSize() {
				return rules.Value{}, fmt.Errorf("core: input %s index %d out of range: %d", name, i, ix)
			}
			slot += int(ix) * s.strides[i]
		}
		v, set := iv.get(slot)
		if !set {
			return rules.Value{}, fmt.Errorf("core: unset input %s", name)
		}
		return rules.Value{T: s.info.Domain, I: v}, nil
	}
}

// ---------------------------------------------------------------------
// Compiled expressions.

// denseRT is the per-lookup runtime state of a DenseTable: the scratch
// scope (base parameters, inlined subbase parameters, quantifier
// variables — slots assigned at compile time) and the failure flag the
// compiled closures raise when a lookup leaves the supported regime.
type denseRT struct {
	sc     []int64
	failed bool
}

// dexpr is one compiled expression: int64 values follow the fast-path
// convention (raw value for integers, ordinal for symbols, 0/1 for
// booleans).
type dexpr func(iv *InputVector, rt *denseRT) int64

type denseCompiler struct {
	c      *rules.Checked
	layout *InputLayout
	scope  map[string]int // name -> scratch slot
	depth  int
	max    int
}

func (dc *denseCompiler) bind(name string) (slot int, restore func()) {
	slot = dc.depth
	dc.depth++
	if dc.depth > dc.max {
		dc.max = dc.depth
	}
	prev, had := dc.scope[name]
	dc.scope[name] = slot
	return slot, func() {
		dc.depth--
		if had {
			dc.scope[name] = prev
		} else {
			delete(dc.scope, name)
		}
	}
}

func (dc *denseCompiler) compile(e rules.Expr) (dexpr, error) {
	switch n := e.(type) {
	case *rules.NumLit:
		v := n.Val
		return func(*InputVector, *denseRT) int64 { return v }, nil
	case *rules.Ident:
		if slot, ok := dc.scope[n.Name]; ok {
			return func(_ *InputVector, rt *denseRT) int64 { return rt.sc[slot] }, nil
		}
		if v, ok := dc.c.Symbols[n.Name]; ok {
			ord := v.I
			return func(*InputVector, *denseRT) int64 { return ord }, nil
		}
		if v, ok := dc.c.NumConsts[n.Name]; ok {
			return func(*InputVector, *denseRT) int64 { return v }, nil
		}
		if info, ok := dc.c.Signals[n.Name]; ok {
			if !info.IsInput {
				return nil, fmt.Errorf("premise reads variable %s", n.Name)
			}
			slot, err := dc.layout.SlotOf(n.Name)
			if err != nil {
				return nil, err
			}
			return func(iv *InputVector, rt *denseRT) int64 {
				v, ok := iv.get(slot)
				if !ok {
					rt.failed = true
				}
				return v
			}, nil
		}
		return nil, fmt.Errorf("unknown identifier %s", n.Name)
	case *rules.Call:
		return dc.compileCall(n)
	case *rules.Unary:
		x, err := dc.compile(n.X)
		if err != nil {
			return nil, err
		}
		if n.Op == "NOT" {
			return func(iv *InputVector, rt *denseRT) int64 {
				if x(iv, rt) != 0 {
					return 0
				}
				return 1
			}, nil
		}
		return func(iv *InputVector, rt *denseRT) int64 { return -x(iv, rt) }, nil
	case *rules.Binary:
		return dc.compileBinary(n)
	case *rules.SetLit:
		return nil, fmt.Errorf("set literal outside constant IN right-hand side")
	case *rules.Quant:
		return dc.compileQuant(n)
	}
	return nil, fmt.Errorf("unhandled expression %T", e)
}

func (dc *denseCompiler) compileCall(n *rules.Call) (dexpr, error) {
	if info, ok := dc.c.Signals[n.Name]; ok {
		if !info.IsInput {
			return nil, fmt.Errorf("premise reads variable %s", n.Name)
		}
		s := dc.layout.byName[n.Name]
		if len(n.Args) != len(s.strides) {
			return nil, fmt.Errorf("input %s needs %d indices, got %d", n.Name, len(s.strides), len(n.Args))
		}
		idxs := make([]dexpr, len(n.Args))
		los := make([]int64, len(n.Args))
		sizes := make([]int64, len(n.Args))
		for i, a := range n.Args {
			ix, err := dc.compile(a)
			if err != nil {
				return nil, err
			}
			idxs[i] = ix
			if info.Index[i].Kind == rules.TInt {
				los[i] = info.Index[i].Lo
			}
			sizes[i] = info.Index[i].DomainSize()
		}
		off, strides := s.off, s.strides
		// The common case — one index dimension — gets a dedicated
		// closure without the inner loop.
		if len(idxs) == 1 {
			ix, lo, size := idxs[0], los[0], sizes[0]
			return func(iv *InputVector, rt *denseRT) int64 {
				ord := ix(iv, rt) - lo
				if ord < 0 || ord >= size {
					rt.failed = true
					return 0
				}
				v, ok := iv.get(off + int(ord))
				if !ok {
					rt.failed = true
				}
				return v
			}, nil
		}
		return func(iv *InputVector, rt *denseRT) int64 {
			slot := off
			for i, ix := range idxs {
				ord := ix(iv, rt) - los[i]
				if ord < 0 || ord >= sizes[i] {
					rt.failed = true
					return 0
				}
				slot += int(ord) * strides[i]
			}
			v, ok := iv.get(slot)
			if !ok {
				rt.failed = true
			}
			return v
		}, nil
	}
	if sub, ok := dc.c.Subs[n.Name]; ok {
		return dc.compileSub(n, sub)
	}
	// Builtins over compiled arguments.
	args := make([]dexpr, len(n.Args))
	for i, a := range n.Args {
		x, err := dc.compile(a)
		if err != nil {
			return nil, err
		}
		args[i] = x
	}
	switch n.Name {
	case "ABS":
		x := args[0]
		return func(iv *InputVector, rt *denseRT) int64 {
			v := x(iv, rt)
			if v < 0 {
				v = -v
			}
			return v
		}, nil
	case "MIN":
		x, y := args[0], args[1]
		return func(iv *InputVector, rt *denseRT) int64 {
			a, b := x(iv, rt), y(iv, rt)
			if a <= b {
				return a
			}
			return b
		}, nil
	case "MAX", "MEET": // MEET: sets are declared best-first, meet = max ordinal
		x, y := args[0], args[1]
		return func(iv *InputVector, rt *denseRT) int64 {
			a, b := x(iv, rt), y(iv, rt)
			if a >= b {
				return a
			}
			return b
		}, nil
	case "DIST":
		x, y := args[0], args[1]
		return func(iv *InputVector, rt *denseRT) int64 {
			d := x(iv, rt) - y(iv, rt)
			if d < 0 {
				d = -d
			}
			return d
		}, nil
	}
	return nil, fmt.Errorf("unknown function %s", n.Name)
}

// compileSub inlines a subbase invocation: arguments are evaluated
// into the subbase's parameter slots, then the first rule whose
// premise holds yields its RETURN value. Subbases cannot recurse
// (declaration order is enforced by the analyser), so inlining
// terminates.
func (dc *denseCompiler) compileSub(n *rules.Call, sub *rules.BaseInfo) (dexpr, error) {
	if len(n.Args) != len(sub.Params) {
		return nil, fmt.Errorf("subbase %s needs %d args, got %d", n.Name, len(sub.Params), len(n.Args))
	}
	args := make([]dexpr, len(n.Args))
	for i, a := range n.Args {
		x, err := dc.compile(a)
		if err != nil {
			return nil, err
		}
		args[i] = x
	}
	slots := make([]int, len(sub.Params))
	restores := make([]func(), len(sub.Params))
	for i, p := range sub.Params {
		slots[i], restores[i] = dc.bind(p.Name)
	}
	defer func() {
		for i := len(restores) - 1; i >= 0; i-- {
			restores[i]()
		}
	}()
	type subRule struct{ prem, val dexpr }
	compiled := make([]subRule, len(sub.RB.Rules))
	for i, r := range sub.RB.Rules {
		prem, err := dc.compile(r.Premise)
		if err != nil {
			return nil, fmt.Errorf("subbase %s rule %d: %w", n.Name, i, err)
		}
		ret, ok := r.Cmds[0].(*rules.Return)
		if !ok {
			return nil, fmt.Errorf("subbase %s rule %d: no RETURN", n.Name, i)
		}
		val, err := dc.compile(ret.Val)
		if err != nil {
			return nil, fmt.Errorf("subbase %s rule %d: %w", n.Name, i, err)
		}
		compiled[i] = subRule{prem, val}
	}
	return func(iv *InputVector, rt *denseRT) int64 {
		for i := range args {
			rt.sc[slots[i]] = args[i](iv, rt)
		}
		for _, r := range compiled {
			if r.prem(iv, rt) != 0 {
				return r.val(iv, rt)
			}
		}
		rt.failed = true // no rule applies: interpreter territory
		return 0
	}, nil
}

func (dc *denseCompiler) compileBinary(n *rules.Binary) (dexpr, error) {
	if n.Op == "IN" {
		// The right-hand side must fold to a constant set; premise
		// sets are literal by construction ({neg, zero}, {0,2},
		// {1}+{3}).
		y, err := evalPartial(dc.c, n.Y, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("IN right-hand side not constant: %w", err)
		}
		if y.T == nil || y.T.Kind != rules.TSet {
			return nil, fmt.Errorf("IN right-hand side is not a set")
		}
		var lo int64
		if y.T.Elem.Kind == rules.TInt {
			lo = y.T.Elem.Lo
		}
		mask := y.Mask
		x, err := dc.compile(n.X)
		if err != nil {
			return nil, err
		}
		return func(iv *InputVector, rt *denseRT) int64 {
			ord := x(iv, rt) - lo
			if ord < 0 || ord >= 64 {
				rt.failed = true
				return 0
			}
			if mask&(1<<uint(ord)) != 0 {
				return 1
			}
			return 0
		}, nil
	}
	x, err := dc.compile(n.X)
	if err != nil {
		return nil, err
	}
	y, err := dc.compile(n.Y)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case "AND":
		return func(iv *InputVector, rt *denseRT) int64 {
			if x(iv, rt) == 0 {
				return 0
			}
			return y(iv, rt)
		}, nil
	case "OR":
		return func(iv *InputVector, rt *denseRT) int64 {
			if x(iv, rt) != 0 {
				return 1
			}
			return y(iv, rt)
		}, nil
	case "=":
		return func(iv *InputVector, rt *denseRT) int64 {
			if x(iv, rt) == y(iv, rt) {
				return 1
			}
			return 0
		}, nil
	case "<>":
		return func(iv *InputVector, rt *denseRT) int64 {
			if x(iv, rt) != y(iv, rt) {
				return 1
			}
			return 0
		}, nil
	case "<":
		return func(iv *InputVector, rt *denseRT) int64 {
			if x(iv, rt) < y(iv, rt) {
				return 1
			}
			return 0
		}, nil
	case "<=":
		return func(iv *InputVector, rt *denseRT) int64 {
			if x(iv, rt) <= y(iv, rt) {
				return 1
			}
			return 0
		}, nil
	case ">":
		return func(iv *InputVector, rt *denseRT) int64 {
			if x(iv, rt) > y(iv, rt) {
				return 1
			}
			return 0
		}, nil
	case ">=":
		return func(iv *InputVector, rt *denseRT) int64 {
			if x(iv, rt) >= y(iv, rt) {
				return 1
			}
			return 0
		}, nil
	case "+":
		return func(iv *InputVector, rt *denseRT) int64 { return x(iv, rt) + y(iv, rt) }, nil
	case "-":
		return func(iv *InputVector, rt *denseRT) int64 { return x(iv, rt) - y(iv, rt) }, nil
	case "*":
		return func(iv *InputVector, rt *denseRT) int64 { return x(iv, rt) * y(iv, rt) }, nil
	}
	return nil, fmt.Errorf("unhandled operator %s", n.Op)
}

func (dc *denseCompiler) compileQuant(n *rules.Quant) (dexpr, error) {
	dt, err := dc.c.ResolveDomain(n.Domain)
	if err != nil {
		return nil, err
	}
	var lo, hi int64 // iteration in fast-path value convention
	switch dt.Kind {
	case rules.TInt:
		lo, hi = dt.Lo, dt.Hi
	case rules.TSym:
		lo, hi = 0, dt.DomainSize()-1
	default:
		return nil, fmt.Errorf("quantifier over %s domain", dt)
	}
	slot, restore := dc.bind(n.Var)
	defer restore()
	body, err := dc.compile(n.Body)
	if err != nil {
		return nil, err
	}
	exists := n.Kind == "EXISTS"
	return func(iv *InputVector, rt *denseRT) int64 {
		for v := lo; v <= hi; v++ {
			rt.sc[slot] = v
			b := body(iv, rt) != 0
			if exists && b {
				return 1
			}
			if !exists && !b {
				return 0
			}
		}
		if exists {
			return 0
		}
		return 1
	}, nil
}

// ---------------------------------------------------------------------
// Dense table.

// denseReturn is the folded RETURN value of one rule; ok is false when
// the rule's conclusion is not a compile-time constant (the caller
// fires the rule through the interpreter instead).
type denseReturn struct {
	val rules.Value
	ok  bool
}

// DenseTable is the compiled decision fast path of one rule base: the
// pre-filled conclusion table of its CompiledBase plus allocation-free
// index computation over an InputVector, mapping a flat integer
// feature index directly to (fired rule, RETURN value).
//
// A DenseTable carries mutable per-lookup scratch state and is
// therefore not safe for concurrent use, mirroring Machine.
type DenseTable struct {
	cb     *CompiledBase
	layout *InputLayout
	fields []dexpr
	fLo    []int64 // per field: ordinal bias (TInt lower bound)
	fSize  []int64 // per field: domain size
	atoms  []dexpr
	ret    []denseReturn
	rt     denseRT
	// invalid is set by Invalidate when the table's epoch is retired;
	// any further lookup is a use-after-swap bug and panics.
	invalid bool
}

// CompileDense builds the fast path for a compiled base over layout.
// It fails when a premise leaves the pure input regime (variable
// reads, non-constant sets, unknown functions); callers treat a
// failure as "no fast path" and stay on the interpreter.
func (cb *CompiledBase) CompileDense(layout *InputLayout) (*DenseTable, error) {
	if cb.Table == nil {
		return nil, fmt.Errorf("core: %s: compiled without table (SizeOnly)", cb.Base)
	}
	dc := &denseCompiler{c: cb.checked, layout: layout, scope: map[string]int{}}
	dt := &DenseTable{cb: cb, layout: layout}
	// Base parameters occupy the first scratch slots, in declaration
	// order; Lookup copies the caller's args there.
	for _, p := range cb.params {
		_, _ = dc.bind(p.Name) // stays bound for the whole compile
	}
	for _, f := range cb.Fields {
		x, err := dc.compile(f.Expr)
		if err != nil {
			return nil, fmt.Errorf("core: %s field %s: %w", cb.Base, f.Key, err)
		}
		dt.fields = append(dt.fields, x)
		var lo int64
		if f.Type.Kind == rules.TInt {
			lo = f.Type.Lo
		}
		dt.fLo = append(dt.fLo, lo)
		dt.fSize = append(dt.fSize, f.Type.DomainSize())
	}
	for _, a := range cb.Atoms {
		x, err := dc.compile(a.Expr)
		if err != nil {
			return nil, fmt.Errorf("core: %s atom %s: %w", cb.Base, a.Key, err)
		}
		dt.atoms = append(dt.atoms, x)
	}
	// Fold each rule's RETURN value; rules without a constant RETURN
	// keep ok=false and are fired through the interpreter.
	bi := cb.checked.Bases[cb.Base]
	dt.ret = make([]denseReturn, len(bi.RB.Rules))
	for i, r := range bi.RB.Rules {
		for _, cmd := range r.Cmds {
			ret, ok := cmd.(*rules.Return)
			if !ok {
				continue
			}
			if v, err := evalPartial(cb.checked, ret.Val, nil, nil); err == nil {
				dt.ret[i] = denseReturn{val: v, ok: true}
			}
			break
		}
	}
	dt.rt.sc = make([]int64, dc.max)
	return dt, nil
}

// Params returns the number of event arguments Lookup expects.
func (dt *DenseTable) Params() int { return len(dt.cb.params) }

// Invalidate marks the table as retired: every further Lookup panics.
// Online reconfiguration calls this when an engine's epoch is retired,
// so a stale table (or a stale InputVector wired to it) from a swapped-
// out engine fails loudly instead of silently routing on dead state.
func (dt *DenseTable) Invalidate() { dt.invalid = true }

// Invalidated reports whether Invalidate was called.
func (dt *DenseTable) Invalidated() bool { return dt.invalid }

// Lookup computes the table index from the input vector and returns
// the selected rule (RuleCount means no rule applies). Arguments are
// the event parameters in fast-path convention (raw integer value or
// symbol ordinal). ok=false means the lookup left the supported
// regime — the caller must repeat the decision on the interpreted
// reference path. Lookup performs no allocation.
//
// Lookup panics when the table was invalidated or when iv belongs to a
// different InputLayout than the table was compiled against: both are
// wiring bugs of table hot-swap (an adapter kept using state from a
// retired epoch) and must not degrade into silently wrong decisions.
func (dt *DenseTable) Lookup(iv *InputVector, args ...int64) (rule int, ok bool) {
	if dt.invalid {
		panic(fmt.Sprintf("core: %s: Lookup on invalidated dense table (engine epoch was retired)", dt.cb.Base))
	}
	if iv.layout != dt.layout {
		panic(fmt.Sprintf("core: %s: InputVector belongs to a different InputLayout than this table (stale vector across a table swap)", dt.cb.Base))
	}
	if len(args) != len(dt.cb.params) {
		return 0, false
	}
	rt := &dt.rt
	rt.failed = false
	copy(rt.sc, args)
	idx := int64(0)
	for i, f := range dt.fields {
		ord := f(iv, rt) - dt.fLo[i]
		if ord < 0 || ord >= dt.fSize[i] {
			return 0, false
		}
		idx = idx*dt.fSize[i] + ord
	}
	for _, a := range dt.atoms {
		bit := int64(0)
		if a(iv, rt) != 0 {
			bit = 1
		}
		idx = idx*2 + bit
	}
	if rt.failed {
		return 0, false
	}
	return int(dt.cb.Table[idx]), true
}

// Return yields the folded constant RETURN value of a fired rule;
// ok=false means the rule's conclusion must run on the interpreter
// (non-constant RETURN, or no RETURN at all).
func (dt *DenseTable) Return(rule int) (rules.Value, bool) {
	if rule < 0 || rule >= len(dt.ret) {
		return rules.Value{}, false
	}
	r := dt.ret[rule]
	return r.val, r.ok
}
