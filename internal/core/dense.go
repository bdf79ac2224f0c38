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
// (subbase calls are inlined, constant sets fold to bitmasks).
// One-index 0/1 inputs are packed one bit per element into a machine
// word — the paper's d-bit-wide logical units — so a quantifier over
// such signals is a few word operations instead of a loop.
// DenseTable.Lookup is then: evaluate a handful of
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
	word    int   // bit word of a packed signal, -1 otherwise
}

// wordBits is the element capacity of one packed word.
const wordBits = 64

// packable reports whether a signal is stored one bit per element: a
// one-index 0/1 input that fits a word.
func packable(info *rules.SignalInfo) bool {
	d := info.Domain
	return len(info.Index) == 1 && info.Index[0].DomainSize() <= wordBits &&
		d.Kind == rules.TInt && d.Lo == 0 && d.Hi == 1
}

// InputLayout assigns every INPUT signal of an analysed program a
// fixed range of integer slots, resolved once at compile time. It is
// shared by all DenseTables of the program and by the InputVectors the
// adapters fill per decision.
//
// A packed signal (see packable) lives only in its bit word; its
// elements keep slot numbers — past the value slots, wordBits per word
// — so Set, get and the Provider address them like any other slot.
type InputLayout struct {
	checked *rules.Checked
	byName  map[string]*inputSlot
	total   int // value slots
	words   int // bit words
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
		s := &inputSlot{info: info, off: l.total, word: -1}
		s.strides = make([]int, len(info.Index))
		stride := 1
		for i := len(info.Index) - 1; i >= 0; i-- {
			s.strides[i] = stride
			stride *= int(info.Index[i].DomainSize())
		}
		l.byName[name] = s
		if packable(info) {
			s.word = l.words
			l.words++
		} else {
			l.total += int(info.Slots())
		}
	}
	for _, s := range l.byName {
		if s.word >= 0 {
			s.off = l.total + wordBits*s.word
		}
	}
	return l
}

// WordOf resolves a packed input signal to its bit word for
// InputVector.SetWord.
func (l *InputLayout) WordOf(name string) (int, error) {
	s, ok := l.byName[name]
	if !ok || s.word < 0 {
		return 0, fmt.Errorf("core: %s is not a packed 0/1 input", name)
	}
	return s.word, nil
}

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
// is O(1). Packed signals keep one bit per element in words, with the
// elements set for the current decision marked in wset. An InputVector
// is not safe for concurrent use — one per algorithm instance, like the
// adapters themselves.
type InputVector struct {
	layout *InputLayout
	vals   []int64
	gens   []uint32
	gen    uint32
	words  []uint64
	wset   []uint64
}

// NewInputVector allocates a vector for layout l with all slots unset.
func NewInputVector(l *InputLayout) *InputVector {
	return &InputVector{
		layout: l,
		vals:   make([]int64, l.total),
		gens:   make([]uint32, l.total),
		gen:    1,
		words:  make([]uint64, l.words),
		wset:   make([]uint64, l.words),
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
	clear(iv.wset)
}

// Set stores the value of one slot for the current decision.
func (iv *InputVector) Set(slot int, v int64) {
	if p := slot - len(iv.vals); p >= 0 {
		w, bit := p/wordBits, uint64(1)<<uint(p%wordBits)
		iv.words[w] &^= bit
		if v != 0 {
			iv.words[w] |= bit
		}
		iv.wset[w] |= bit
		return
	}
	iv.vals[slot] = v
	iv.gens[slot] = iv.gen
}

// SetWord stores all elements of a packed signal at once: bit e of bits
// is element e. Bits beyond the signal's element count are ignored.
func (iv *InputVector) SetWord(word int, bits uint64) {
	iv.words[word] = bits
	iv.wset[word] = ^uint64(0)
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
	if p := slot - len(iv.vals); p >= 0 {
		w, b := p/wordBits, uint(p%wordBits)
		return int64(iv.words[w] >> b & 1), iv.wset[w]>>b&1 != 0
	}
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
	noMask bool // tests: keep every quantifier on the loop form
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
	exists := n.Kind == "EXISTS"
	if m := dc.compileMask(n.Body, n.Var, dt); m != nil && !dc.noMask {
		// The vector unit: all elements at once. stop marks where the
		// loop below would return early, so an unset input fails the
		// lookup exactly when the loop would have read it.
		dom := uint64(1)<<uint(dt.DomainSize()) - 1
		return func(iv *InputVector, rt *denseRT) int64 {
			val, unset := m(iv)
			stop := val & dom
			if !exists {
				stop = ^val & dom
			}
			seen := dom
			if stop != 0 {
				seen = stop ^ (stop - 1)
			}
			if unset&seen != 0 {
				rt.failed = true
			}
			if (stop != 0) == exists {
				return 1
			}
			return 0
		}, nil
	}
	slot, restore := dc.bind(n.Var)
	defer restore()
	body, err := dc.compile(n.Body)
	if err != nil {
		return nil, err
	}
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

// mexpr is a quantifier body compiled to word operations over packed
// inputs: bit e of val is the body's value at element e, bit e of unset
// is raised when evaluating it there reads an input that is not set
// (in the loop form's short-circuit order). Where unset is raised the
// val bit is stale, which is harmless: the loop form cannot get past
// such an element without failing the lookup either.
type mexpr func(iv *InputVector) (val, unset uint64)

// compileMask compiles a quantifier body of the shape AND/OR/NOT over
// sig(v) = 0|1, where v is the quantified variable ranging over the
// integer domain dom and sig a packed input indexed by exactly dom. It
// returns nil for any other body; the caller keeps the loop form.
func (dc *denseCompiler) compileMask(e rules.Expr, v string, dom *rules.Type) mexpr {
	switch n := e.(type) {
	case *rules.Unary:
		x := dc.compileMask(n.X, v, dom)
		if n.Op != "NOT" || x == nil {
			return nil
		}
		return func(iv *InputVector) (uint64, uint64) {
			val, unset := x(iv)
			return ^val, unset
		}
	case *rules.Binary:
		if n.Op == "AND" || n.Op == "OR" {
			x, y := dc.compileMask(n.X, v, dom), dc.compileMask(n.Y, v, dom)
			if x == nil || y == nil {
				return nil
			}
			and := n.Op == "AND"
			return func(iv *InputVector) (uint64, uint64) {
				xv, xu := x(iv)
				yv, yu := y(iv)
				if and {
					return xv & yv, xu | xv&yu
				}
				return xv | yv, xu | ^xv&yu
			}
		}
		call, _ := n.X.(*rules.Call)
		lit, _ := n.Y.(*rules.NumLit)
		if n.Op != "=" || call == nil || lit == nil || lit.Val&^1 != 0 || len(call.Args) != 1 {
			return nil
		}
		s := dc.layout.byName[call.Name]
		arg, _ := call.Args[0].(*rules.Ident)
		if s == nil || s.word < 0 || arg == nil || arg.Name != v {
			return nil
		}
		if ix := s.info.Index[0]; ix.Kind != rules.TInt || dom.Kind != rules.TInt || ix.Lo != dom.Lo || ix.Hi != dom.Hi {
			return nil
		}
		w, flip := s.word, -uint64(1-lit.Val) // sig(v) = 0 inverts the word
		return func(iv *InputVector) (uint64, uint64) {
			return iv.words[w] ^ flip, ^iv.wset[w]
		}
	}
	return nil
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
	return cb.compileDense(layout, false)
}

func (cb *CompiledBase) compileDense(layout *InputLayout, noMask bool) (*DenseTable, error) {
	if cb.Table == nil {
		return nil, fmt.Errorf("core: %s: compiled without table (SizeOnly)", cb.Base)
	}
	dc := &denseCompiler{c: cb.checked, layout: layout, scope: map[string]int{}, noMask: noMask}
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
