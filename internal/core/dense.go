package core

// The compiled decision fast path. CompileBase already turns a rule
// base into a completely filled table (the paper's ARON argument), but
// LookupRule still computes the table index through the reference
// expression evaluator: string-keyed scope maps, rules.Value boxing and
// an Env round-trip per signal occurrence — fine for the cost model and
// the oracle, far too slow for the simulator's per-flit hot path.
//
// Here the premise half is compiled too. Every INPUT signal gets a
// fixed integer slot (InputLayout), a decision fills a flat InputVector
// once, and the fields and atoms of a CompiledBase — its premise units
// — are lowered to one flat op program (see opcode): loads, compares
// with constants, set masks, builtins, jumps for AND/OR/NOT and subbase
// rule order (subbases are inlined), multiply-add into the table
// address. One-index 0/1 inputs are packed one bit per element into a
// machine word — the paper's d-bit-wide logical units — so a quantifier
// over them is a few word operations. A program that reads only a few
// small-domain inputs is also a mixed-radix lookup (see DenseTable).
// DenseTable.Lookup runs the program in one loop, with no allocation
// and no indirect call, and reads the pre-filled table.
//
// The fast path is deliberately partial: premises that read VARIABLEs
// or that the compiler cannot fold report a compile error, and a
// lookup that leaves the supported regime (unset input, out-of-range
// index, subbase with no applicable rule) reports ok=false — callers
// fall back to the interpreted reference path, which remains the
// behavioural oracle (differential and fuzz tests assert equality).

import (
	"cmp"
	"fmt"
	"slices"
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
	byName map[string]*inputSlot
	total  int // value slots
	words  int // bit words
}

// NewInputLayout builds the slot assignment for all INPUT signals of
// c. Slot order is deterministic (signal names sorted).
func NewInputLayout(c *rules.Checked) *InputLayout {
	l := &InputLayout{byName: make(map[string]*inputSlot)}
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
		clear(iv.gens)
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
		slot, err := l.SlotOf(name, idx...)
		if err != nil {
			return rules.Value{}, err
		}
		v, set := iv.get(slot)
		if !set {
			return rules.Value{}, fmt.Errorf("core: unset input %s", name)
		}
		return rules.Value{T: l.byName[name].info.Domain, I: v}, nil
	}
}

// ---------------------------------------------------------------------
// The op program.

// opcode is one instruction of a premise program. The machine state is
// an accumulator (acc), the table address under construction (idx), a
// register file r (base parameters, inlined subbase parameters,
// quantifier variables and temporaries, assigned at compile time) and,
// for the word-parallel quantifier form, a mask accumulator (mv, mu)
// with mask registers mr: bit e of mv is the quantifier body's value at
// element e, bit e of mu is raised when evaluating it there reads an
// input that is not set (in the loop form's short-circuit order). Where
// mu is raised the mv bit is stale, which is harmless: the loop form
// cannot get past such an element without failing the lookup either.
//
// "fail" ends the lookup with ok=false at once: any failure makes the
// whole lookup ok=false, so nothing evaluated after it could matter.
type opcode uint8

const (
	opConst   opcode = iota // acc = k
	opReg                   // acc = r[a]
	opSetReg                // r[a] = acc
	opInput                 // acc = input slot a; fail when unset (b, k, m: its signal's elements, bias, domain size)
	opIndex                 // r[a] += (acc-k)*b; fail unless 0 <= acc-k < m
	opInputAt               // acc = input slot r[a]; fail when unset
	opCmpK                  // acc = acc ? k, ? the orderings in b (see cmpBits)
	opCmp                   // acc = r[a] ? acc
	opArith                 // acc = r[a] <b> acc (see arith)
	opIn                    // acc = bit acc-k of m; fail unless 0 <= acc-k < 64
	opJump                  // pc = a: always (b=0), if acc == 0 (b=1), if acc != 0 (b=2)
	opNext                  // r[a]++, pc = b if r[a] <= k (quantifier loop)
	opFail                  // no subbase rule applies
	opMWord                 // (mv, mu) = (word a ^ k, the elements of word a not set)
	opMNot                  // mv = ^mv
	opMSave                 // mr[a] = (mv, mu)
	opMJoin                 // (mv, mu) = mr[a] AND (b=0) or OR (b=1) (mv, mu)
	opMAll                  // the a opMWord that follow are conjunctions (see conjunctions); m=1: atoms
	opMQuant                // acc = EXISTS (b=1) or FORALL (b=0) over domain mask k
	opField                 // idx = idx*m + acc-k; fail unless 0 <= acc-k < m (an atom: k=0, m=2)
)

type op struct {
	code opcode
	a, b int32
	k, m int64
}

// cmpBits encodes a comparison as the orderings that satisfy it: bit 0
// x < y, bit 1 x = y, bit 2 x > y.
var cmpBits = map[string]int32{"<": 1, "=": 2, "<=": 3, ">": 4, "<>": 5, ">=": 6}

func compare(bits int32, x, y int64) int64 { return int64(bits >> (1 + cmp.Compare(x, y)) & 1) }

// ordBias is the fast-path value of a type's first element:
// the lower bound of an integer range, 0 for a symbol ordinal.
func ordBias(t *rules.Type) int64 {
	if t.Kind == rules.TInt {
		return t.Lo
	}
	return 0
}

// arithKinds are the two-operand operators and builtins of opArith.
var arithKinds = map[string]int32{"+": 0, "-": 1, "*": 2, "MIN": 3, "MAX": 4, "MEET": 4, "DIST": 5}

func arith(kind int32, x, y int64) int64 {
	switch kind {
	case 0:
		return x + y
	case 1:
		return x - y
	case 2:
		return x * y
	case 3:
		return min(x, y)
	case 4: // MEET: sets are declared best-first, meet = max ordinal
		return max(x, y)
	}
	if x < y {
		return y - x
	}
	return x - y
}

type denseCompiler struct {
	c           *rules.Checked
	layout      *InputLayout
	scope       map[string]int // name -> register
	code        []op
	regs, maxR  int   // registers in use (a stack) and their peak
	mregs, maxM int   // mask registers likewise
	err         error // the first premise the program cannot express
	noMask      bool  // tests: keep every quantifier on the loop form
}

func (dc *denseCompiler) emit(o op) int {
	dc.code = append(dc.code, o)
	return len(dc.code) - 1
}

func (dc *denseCompiler) fail(format string, args ...any) {
	if dc.err == nil {
		dc.err = fmt.Errorf(format, args...)
	}
}

// patch points the jump at pc to the next op emitted.
func (dc *denseCompiler) patch(pc int) { dc.code[pc].a = int32(len(dc.code)) }

func (dc *denseCompiler) alloc(n int) int32 {
	dc.regs += n
	dc.maxR = max(dc.maxR, dc.regs)
	return int32(dc.regs - n)
}

// bind names register r until the returned restore runs (-1: unbound).
func (dc *denseCompiler) bind(name string, r int32) (restore func()) {
	prev, had := dc.scope[name]
	if !had {
		prev = -1
	}
	dc.scope[name] = int(r)
	return func() { dc.scope[name] = prev }
}

// constSince reports whether the code from start on is one constant.
func (dc *denseCompiler) constSince(start int) (int64, bool) {
	if len(dc.code) != start+1 || dc.code[start].code != opConst {
		return 0, false
	}
	return dc.code[start].k, true
}

// compile appends the code that leaves e's value in acc (raw value for
// integers, ordinal for symbols, 0/1 for booleans).
func (dc *denseCompiler) compile(e rules.Expr) {
	switch n := e.(type) {
	case *rules.NumLit:
		dc.emit(op{code: opConst, k: n.Val})
	case *rules.Ident:
		if r, ok := dc.scope[n.Name]; ok && r >= 0 {
			dc.emit(op{code: opReg, a: int32(r)})
		} else if v, ok := dc.c.Symbols[n.Name]; ok {
			dc.emit(op{code: opConst, k: v.I})
		} else if v, ok := dc.c.NumConsts[n.Name]; ok {
			dc.emit(op{code: opConst, k: v})
		} else if _, ok := dc.c.Signals[n.Name]; ok {
			dc.compileInput(n.Name, nil)
		} else {
			dc.fail("unknown identifier %s", n.Name)
		}
	case *rules.Call:
		kind, isArith := arithKinds[n.Name]
		if _, ok := dc.c.Signals[n.Name]; ok {
			dc.compileInput(n.Name, n.Args)
		} else if sub, ok := dc.c.Subs[n.Name]; ok {
			dc.compileSub(n, sub)
		} else if isArith && len(n.Args) == 2 {
			dc.compilePair(n.Args[0], n.Args[1], opArith, kind)
		} else if n.Name == "ABS" && len(n.Args) == 1 {
			dc.compilePair(n.Args[0], &rules.NumLit{}, opArith, arithKinds["DIST"])
		} else {
			dc.fail("unknown function %s", n.Name)
		}
	case *rules.Unary:
		if n.Op != "NOT" {
			dc.compilePair(&rules.NumLit{}, n.X, opArith, arithKinds["-"])
			break
		}
		dc.compile(n.X)
		dc.emit(op{code: opCmpK, b: cmpBits["="]})
	case *rules.Binary:
		dc.compileBinary(n)
	case *rules.Quant:
		dc.compileQuant(n)
	case *rules.SetLit:
		dc.fail("set literal outside constant IN right-hand side")
	default:
		dc.fail("unhandled expression %T", e)
	}
}

// compileInput loads an input element (the analyser has checked the
// index count). Constant indices select the slot now; any other index
// is computed into a register, one dimension at a time.
func (dc *denseCompiler) compileInput(name string, args []rules.Expr) {
	info, s := dc.c.Signals[name], dc.layout.byName[name]
	if !info.IsInput {
		dc.fail("premise reads variable %s", name)
		return
	}
	t := dc.alloc(1)
	defer func() { dc.regs-- }()
	slot, fixed, start := int64(s.off), true, len(dc.code)
	dc.emit(op{code: opConst, k: slot})
	dc.emit(op{code: opSetReg, a: t})
	for i, a := range args {
		lo, size, at := ordBias(info.Index[i]), info.Index[i].DomainSize(), len(dc.code)
		dc.compile(a)
		if k, ok := dc.constSince(at); ok && k-lo >= 0 && k-lo < size {
			slot += (k - lo) * int64(s.strides[i])
		} else {
			fixed = false
		}
		dc.emit(op{code: opIndex, a: t, b: int32(s.strides[i]), k: lo, m: size})
	}
	if fixed {
		dc.code = dc.code[:start]
		dc.emit(op{code: opInput, a: int32(slot), b: int32(info.Slots()), k: ordBias(info.Domain), m: info.Domain.DomainSize()})
	} else {
		dc.emit(op{code: opInputAt, a: t})
	}
}

// compilePair evaluates x into a temporary register and y into acc and
// combines them with code (opCmp or opArith) and b; a comparison with a
// constant y becomes opCmpK.
func (dc *denseCompiler) compilePair(x, y rules.Expr, code opcode, b int32) {
	dc.compile(x)
	t := dc.alloc(1)
	defer func() { dc.regs-- }()
	dc.emit(op{code: opSetReg, a: t})
	start := len(dc.code)
	dc.compile(y)
	if k, ok := dc.constSince(start); ok && code == opCmp {
		dc.code = dc.code[:start-1]
		dc.emit(op{code: opCmpK, b: b, k: k})
	} else {
		dc.emit(op{code: code, a: t, b: b})
	}
}

// compileSub inlines a subbase invocation: the arguments (their count
// checked by the analyser) are evaluated in the caller's scope into
// fresh parameter registers, then the first rule whose premise holds
// yields its RETURN value; no applicable rule fails the lookup
// (interpreter territory). The rules see only the parameters, as in
// the interpreter, so a caller's variable cannot shadow a signal they
// read. Subbases cannot recurse (declaration order is enforced by the
// analyser), so inlining terminates.
func (dc *denseCompiler) compileSub(n *rules.Call, sub *rules.BaseInfo) {
	base := dc.alloc(len(sub.Params))
	defer func() { dc.regs -= len(sub.Params) }()
	for i, a := range n.Args {
		dc.compile(a)
		dc.emit(op{code: opSetReg, a: base + int32(i)})
	}
	outer := dc.scope
	defer func() { dc.scope = outer }()
	dc.scope = make(map[string]int, len(sub.Params))
	for i, p := range sub.Params {
		dc.scope[p.Name] = int(base) + i
	}
	var exits []int
	for i, r := range sub.RB.Rules {
		dc.compile(r.Premise)
		skip := dc.emit(op{code: opJump, b: 1})
		if ret, ok := r.Cmds[0].(*rules.Return); ok {
			dc.compile(ret.Val)
		} else {
			dc.fail("subbase %s rule %d: no RETURN", n.Name, i)
		}
		exits = append(exits, dc.emit(op{code: opJump}))
		dc.patch(skip)
	}
	dc.emit(op{code: opFail})
	for _, j := range exits {
		dc.patch(j)
	}
}

func (dc *denseCompiler) compileBinary(n *rules.Binary) {
	bits, isCmp := cmpBits[n.Op]
	kind, isArith := arithKinds[n.Op]
	switch {
	case n.Op == "IN":
		// The right-hand side must fold to a constant set; premise
		// sets are literal by construction ({neg, zero}, {0,2},
		// {1}+{3}).
		y, err := foldConst(dc.c, n.Y)
		if err != nil || y.T == nil || y.T.Kind != rules.TSet {
			dc.fail("IN right-hand side is not a constant set: %v", err)
			return
		}
		dc.compile(n.X)
		dc.emit(op{code: opIn, k: ordBias(y.T.Elem), m: int64(y.Mask)})
	case n.Op == "AND" || n.Op == "OR": // short-circuit: AND leaves its 0, OR its 1 in acc
		dc.compile(n.X)
		j := dc.emit(op{code: opJump, b: 1})
		if n.Op == "OR" {
			dc.code[j].b = 2
		}
		dc.compile(n.Y)
		dc.patch(j)
	case isCmp:
		dc.compilePair(n.X, n.Y, opCmp, bits)
	case isArith:
		dc.compilePair(n.X, n.Y, opArith, kind)
	default:
		dc.fail("unhandled operator %s", n.Op)
	}
}

func (dc *denseCompiler) compileQuant(n *rules.Quant) {
	dt, err := dc.c.ResolveDomain(n.Domain)
	if err != nil || dt.Kind != rules.TInt && dt.Kind != rules.TSym {
		dc.fail("quantifier over %v domain: %v", dt, err)
		return
	}
	lo := ordBias(dt) // iteration in fast-path value convention
	hi := lo + dt.DomainSize() - 1
	exists := int32(0)
	if n.Kind == "EXISTS" {
		exists = 1
	}
	start := len(dc.code)
	if !dc.noMask && dc.compileMask(n.Body, n.Var, dt) {
		// The vector unit: all elements at once. A body that is one
		// conjunction (opMWord, then opMSave opMWord opMJoin per further
		// word) becomes opMAll over its words: half the time on decide_dir.
		q := op{code: opMQuant, b: exists, k: int64(uint64(1)<<uint(dt.DomainSize()) - 1)}
		body := dc.code[start:]
		chain, words := body[0].code == opMWord && len(body)%3 == 1, []op{body[0]}
		for i := 1; chain && i < len(body); i += 3 {
			chain = body[i].code == opMSave && body[i+1].code == opMWord && body[i+2].code == opMJoin && body[i+2].b == 0
			words = append(words, body[i+1])
		}
		if !chain {
			dc.emit(q)
			return
		}
		words[len(words)-1].b, words[len(words)-1].m = exists, q.k
		dc.code = append(append(dc.code[:start], op{code: opMAll, a: int32(len(words))}), words...)
		return
	}
	// The loop: EXISTS stops at a true body, FORALL at a false one;
	// either way acc already holds the answer. The analyser refuses
	// empty domains, so the body runs at least once.
	dc.code = dc.code[:start]
	r := dc.alloc(1)
	defer func() { dc.regs-- }()
	defer dc.bind(n.Var, r)()
	dc.emit(op{code: opConst, k: lo})
	dc.emit(op{code: opSetReg, a: r})
	top := len(dc.code)
	dc.compile(n.Body)
	exit := dc.emit(op{code: opJump, b: 1 + exists})
	dc.emit(op{code: opNext, a: r, b: int32(top), k: hi})
	dc.emit(op{code: opConst, k: int64(1 - exists)})
	dc.patch(exit)
}

// compileMask compiles a quantifier body of the shape AND/OR/NOT over
// sig(v) = 0|1, where v is the quantified variable ranging over the
// integer domain dom and sig a packed input indexed by exactly dom,
// into mask ops that leave the body's value at every element in (mv,
// mu). It reports false for any other body; the caller then drops what
// was emitted and keeps the loop form.
func (dc *denseCompiler) compileMask(e rules.Expr, v string, dom *rules.Type) bool {
	switch n := e.(type) {
	case *rules.Unary:
		if n.Op != "NOT" || !dc.compileMask(n.X, v, dom) {
			return false
		}
		dc.emit(op{code: opMNot})
		return true
	case *rules.Binary:
		if n.Op == "AND" || n.Op == "OR" {
			if !dc.compileMask(n.X, v, dom) {
				return false
			}
			r := int32(dc.mregs)
			dc.mregs++
			dc.maxM = max(dc.maxM, dc.mregs)
			defer func() { dc.mregs-- }()
			dc.emit(op{code: opMSave, a: r})
			if !dc.compileMask(n.Y, v, dom) {
				return false
			}
			o := op{code: opMJoin, a: r}
			if n.Op == "OR" {
				o.b = 1
			}
			dc.emit(o)
			return true
		}
		call, _ := n.X.(*rules.Call)
		lit, _ := n.Y.(*rules.NumLit)
		if n.Op != "=" || call == nil || lit == nil || lit.Val&^1 != 0 || len(call.Args) != 1 {
			return false
		}
		s := dc.layout.byName[call.Name]
		arg, _ := call.Args[0].(*rules.Ident)
		if s == nil || s.word < 0 || arg == nil || arg.Name != v {
			return false
		}
		if ix := s.info.Index[0]; ix.Kind != rules.TInt || dom.Kind != rules.TInt || ix.Lo != dom.Lo || ix.Hi != dom.Hi {
			return false
		}
		dc.emit(op{code: opMWord, a: int32(s.word), k: lit.Val - 1}) // sig(v) = 0 inverts the word
		return true
	}
	return false
}

// ---------------------------------------------------------------------
// Dense table.

// memoMax bounds the entries of a premise memo (4 bytes each).
const memoMax = 4096

// memoKey is a value slot (or ^word of a packed signal) that addresses
// the premise memo, with its domain.
type memoKey struct {
	slot     int
	lo, size int64
}

// DenseTable is the compiled decision fast path of one rule base: the
// pre-filled conclusion table of its CompiledBase plus allocation-free
// index computation over an InputVector, mapping a flat integer
// feature index directly to (fired rule, RETURN value).
//
// When the program reads only fixed elements of a few small-domain
// inputs (no parameter, no computed index, no whole-word quantifier),
// its keys also address a memo of table addresses (+1; 0: not yet
// computed) that the program fills for each fully set key combination.
// A key input that is unset or outside its domain leaves the decision
// to the program, which fails or reads what its short-circuit order
// reads. The memo, not the op loop, is what makes NAFTA's lookup cheap
// (DESIGN.md §5, "Premise memo": it answers over 98 % of lookups).
//
// A DenseTable carries mutable per-lookup scratch state (registers, the
// memo) and is therefore not safe for concurrent use, mirroring
// Machine.
type DenseTable struct {
	cb     *CompiledBase
	layout *InputLayout
	code   []op
	r      []int64
	mr     [][2]uint64
	keys   []memoKey
	memo   []int32       // nil: no memo
	ret    []rules.Value // folded RETURN values; no type: not constant
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
	// Base parameters occupy the first registers, in declaration order;
	// Lookup copies the caller's args there.
	for _, p := range cb.params {
		dc.bind(p.Name, dc.alloc(1)) // stays bound for the whole compile
	}
	for _, f := range cb.Fields {
		if dc.compile(f.Expr); dc.err != nil {
			return nil, fmt.Errorf("core: %s field %s: %w", cb.Base, f.Key, dc.err)
		}
		dc.emit(op{code: opField, k: ordBias(f.Type), m: f.Type.DomainSize()})
	}
	all := -1 // the last opMAll atom
	for _, a := range cb.Atoms {
		start := len(dc.code)
		if dc.compile(a.Expr); dc.err != nil {
			return nil, fmt.Errorf("core: %s atom %s: %w", cb.Base, a.Key, dc.err)
		}
		// A conjunction atom shifts its own bit into the address, and
		// consecutive ones share one opMAll.
		switch n, q := len(dc.code), &dc.code[start]; {
		case q.code != opMAll || int(q.a) != n-start-1:
			dc.emit(op{code: opField, m: 2})
		case all >= 0 && all+int(dc.code[all].a)+1 == start:
			dc.code[all].a += q.a
			dc.code = append(dc.code[:start], dc.code[start+1:]...)
		default:
			q.m, all = 1, start
		}
	}
	dt := &DenseTable{cb: cb, layout: layout, code: dc.code, r: make([]int64, dc.maxR), mr: make([][2]uint64, dc.maxM)}
	dt.planMemo()
	// Fold each rule's RETURN value; rules without a constant RETURN
	// keep ok=false and are fired through the interpreter.
	bi := cb.checked.Bases[cb.Base]
	dt.ret = make([]rules.Value, len(bi.RB.Rules))
	for i, r := range bi.RB.Rules {
		for _, cmd := range r.Cmds {
			if ret, ok := cmd.(*rules.Return); ok {
				if v, err := foldConst(cb.checked, ret.Val); err == nil {
					dt.ret[i] = v
				}
				break
			}
		}
	}
	return dt, nil
}

// planMemo sets up the premise memo when the program qualifies; its
// keys are the value slots the program loads and the packed signals
// whose elements it loads (all elements of one: a word is one read).
func (dt *DenseTable) planMemo() {
	var keys []memoKey
	entries := int64(1)
	for _, o := range dt.code {
		switch {
		case o.code == opReg && int(o.a) < len(dt.cb.params), o.code == opInputAt, o.code == opMWord:
			return
		case o.code != opInput:
			continue
		}
		k := memoKey{slot: int(o.a), lo: o.k, size: o.m}
		if p := k.slot - dt.layout.total; p >= 0 { // an element of a packed signal: key its word
			k.slot, k.size = ^(p / wordBits), 1<<o.b
		}
		if slices.Contains(keys, k) {
			continue
		}
		if k.size <= 0 || k.size > memoMax/entries {
			return
		}
		keys, entries = append(keys, k), entries*k.size
	}
	dt.keys, dt.memo = keys, make([]int32, entries)
}

// memoAt addresses the memo; ok is false when there is none or a key
// input is unset or outside its domain.
func (dt *DenseTable) memoAt(iv *InputVector) (key int, ok bool) {
	for _, k := range dt.keys {
		v, set := int64(0), false
		if k.slot >= 0 {
			v, set = iv.vals[k.slot], iv.gens[k.slot] == iv.gen
		} else { // a packed signal, all elements at once
			bits := uint64(k.size - 1)
			v, set = int64(iv.words[^k.slot]&bits), iv.wset[^k.slot]&bits == bits
		}
		if v -= k.lo; !set || v < 0 || v >= k.size {
			return 0, false
		}
		key = key*int(k.size) + int(v)
	}
	return key, dt.memo != nil
}

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
	key, keyed := dt.memoAt(iv)
	if keyed && dt.memo[key] != 0 {
		return int(dt.cb.Table[dt.memo[key]-1]), true
	}
	copy(dt.r, args)
	idx, ok := dt.run(iv)
	if !ok {
		return 0, false
	}
	if keyed {
		dt.memo[key] = int32(idx + 1)
	}
	return int(dt.cb.Table[idx]), true
}

// run executes the op program: one loop, one switch, no indirect call.
func (dt *DenseTable) run(iv *InputVector) (idx int64, ok bool) {
	code, r := dt.code, dt.r
	var acc int64
	var mv, mu uint64
	for pc := 0; pc < len(code); {
		o := &code[pc]
		pc++
		switch o.code {
		case opConst:
			acc = o.k
		case opReg:
			acc = r[o.a]
		case opSetReg:
			r[o.a] = acc
		case opInput, opInputAt:
			slot := int64(o.a)
			if o.code == opInputAt {
				slot = r[o.a]
			}
			if acc, ok = iv.get(int(slot)); !ok {
				return 0, false
			}
		case opIndex:
			ord := acc - o.k
			if ord < 0 || ord >= o.m {
				return 0, false
			}
			r[o.a] += ord * int64(o.b)
		case opCmpK:
			acc = compare(o.b, acc, o.k)
		case opCmp:
			acc = compare(o.b, r[o.a], acc)
		case opArith:
			acc = arith(o.b, r[o.a], acc)
		case opIn:
			ord := acc - o.k
			if ord < 0 || ord >= 64 {
				return 0, false
			}
			acc = o.m >> uint(ord) & 1
		case opJump:
			if o.b == 0 || (acc == 0) == (o.b == 1) {
				pc = int(o.a)
			}
		case opNext:
			if r[o.a]++; r[o.a] <= o.k {
				pc = int(o.b)
			}
		case opFail:
			return 0, false
		case opMWord:
			mv, mu = iv.words[o.a]^uint64(o.k), ^iv.wset[o.a]
		case opMNot:
			mv = ^mv
		case opMSave:
			dt.mr[o.a] = [2]uint64{mv, mu}
		case opMJoin:
			if x := dt.mr[o.a]; o.b == 0 {
				mv, mu = x[0]&mv, x[1]|x[0]&mu
			} else {
				mv, mu = x[0]|mv, x[1]|^x[0]&mu
			}
		case opMAll:
			end := pc + int(o.a)
			if idx, acc, ok = conjunctions(code[pc:end], iv, idx, o.m); !ok {
				return 0, false
			}
			pc = end
		case opMQuant:
			if acc, ok = quantify(uint64(o.k), o.b, mv, mu); !ok {
				return 0, false
			}
		case opField:
			ord := acc - o.k
			if ord < 0 || ord >= o.m {
				return 0, false
			}
			idx = idx*o.m + ord
		}
	}
	return idx, true // past the last op: idx is the table address
}

// conjunctions runs the words of opMAll: each conjunction ends at a
// word whose m is its quantifier's domain mask and b its EXISTS flag.
// With shift=1 every result is an atom bit of idx; otherwise the one
// result is left in acc.
func conjunctions(words []op, iv *InputVector, idx, shift int64) (int64, int64, bool) {
	mv, mu, acc, ok := ^uint64(0), uint64(0), int64(0), true
	vals, set := iv.words, iv.wset
	for i := range words {
		w := &words[i]
		mu |= mv &^ set[w.a]
		mv &= vals[w.a] ^ uint64(w.k)
		if w.m != 0 {
			if acc, ok = quantify(uint64(w.m), w.b, mv, mu); !ok {
				return 0, 0, false
			}
			idx = idx<<shift + acc&shift
			mv, mu = ^uint64(0), 0
		}
	}
	return idx, acc, true
}

// quantify is opMQuant. stop marks where the loop form would return
// early, so an unset input fails the lookup exactly when the loop
// would have read it.
func quantify(dom uint64, exists int32, mv, mu uint64) (acc int64, ok bool) {
	stop := mv & dom
	if exists == 0 {
		stop = ^mv & dom
	}
	seen := dom
	if stop != 0 {
		seen, acc = stop^(stop-1), 1
	}
	return 1 - acc ^ int64(exists), mu&seen == 0
}

// Return yields the folded constant RETURN value of a fired rule;
// ok=false means the rule's conclusion must run on the interpreter
// (non-constant RETURN, or no RETURN at all).
func (dt *DenseTable) Return(rule int) (rules.Value, bool) {
	if rule < 0 || rule >= len(dt.ret) {
		return rules.Value{}, false
	}
	return dt.ret[rule], dt.ret[rule].T != nil
}
