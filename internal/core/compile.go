package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/rules"
)

// CompileOptions tunes the ARON compiler.
type CompileOptions struct {
	// MaxEntries bounds the fully filled table (default 1<<22); the
	// compiler fails beyond it, mirroring the paper's warning that
	// "the amount of required RAM can grow exponentially with the
	// number of input values".
	MaxEntries int64
	// MinEqAtomsForField is how many equality/membership atoms an
	// input signal must appear in before its raw value is wired into
	// the table index instead of comparator feature bits (default 2;
	// the paper: "since for state and new_state(dir) all individual
	// values occur in the premises, no comparison is needed and their
	// current values are used as part of the table index directly").
	MinEqAtomsForField int
	// NoFields disables direct indexing entirely (every atom becomes
	// a feature bit) — an ablation of the premise-processing design.
	NoFields bool
	// SizeOnly skips filling the table: Entries/Width are computed
	// but Table stays nil (used to measure configurations that are
	// deliberately too large to build, like the merged
	// decide_dir+decide_vc base of experiment E5).
	SizeOnly bool
}

func (o *CompileOptions) defaults() {
	if o.MaxEntries == 0 {
		o.MaxEntries = 1 << 22
	}
	if o.MinEqAtomsForField == 0 {
		o.MinEqAtomsForField = 2
	}
}

// Field is one directly indexed signal occurrence of the table index.
type Field struct {
	Key  string
	Type *rules.Type
	Expr rules.Expr
}

// Atom is one premise feature computed by an FCFB comparator whose
// 1-bit result enters the table index.
type Atom struct {
	Key  string
	Expr rules.Expr
}

// CompiledBase is the ARON form of one rule base: a completely filled
// rule table addressed by direct fields and feature bits.
type CompiledBase struct {
	Base      string
	RuleCount int
	Fields    []Field
	Atoms     []Atom // feature atoms only (index bits)
	// Entries is the number of table rows: product of field domains
	// times 2^len(Atoms).
	Entries int64
	// Width is the conclusion width in bits: rule selector plus the
	// RETURN value lines.
	Width int
	// ReturnBits is the RETURN-value part of Width.
	ReturnBits int
	// Table maps each entry to the fired rule index, or RuleCount for
	// "no rule applies" (gaps are eliminated: every entry holds a
	// valid conclusion).
	Table []int16

	checked *rules.Checked
	params  []*rules.SignalInfo
}

// MemoryBits returns Entries × Width, the rule-table RAM size the
// paper's Tables 1 and 2 report.
func (cb *CompiledBase) MemoryBits() int64 {
	return cb.Entries * int64(cb.Width)
}

// Dim renders the table dimension like the paper ("1024 x 8").
func (cb *CompiledBase) Dim() string {
	return fmt.Sprintf("%d x %d", cb.Entries, cb.Width)
}

// CompileBase compiles one rule base of an analysed program.
func CompileBase(c *rules.Checked, base string, opts CompileOptions) (*CompiledBase, error) {
	opts.defaults()
	bi, ok := c.Bases[base]
	if !ok {
		return nil, fmt.Errorf("core: unknown rule base %s", base)
	}
	cb := &CompiledBase{
		Base:      base,
		RuleCount: len(bi.RB.Rules),
		checked:   c,
		params:    bi.Params,
	}

	// 1. Premises are used as written: a quantified subexpression is
	// computed by one d-wide FCFB (the paper's "logical units d bits
	// wide") whose 1-bit result enters the index, so quantifiers are
	// NOT expanded into per-element atoms — that is exactly what
	// keeps the rule tables small for wide node degrees.
	premises := make([]rules.Expr, len(bi.RB.Rules))
	for i, r := range bi.RB.Rules {
		premises[i] = r.Premise
	}

	// 2. Collect atoms and signal occurrences.
	atomsByKey := map[string]rules.Expr{}
	occByKey := map[string]*occInfo{}
	var atomOrder []string
	for _, p := range premises {
		collectAtoms(c, bi, p, atomsByKey, &atomOrder, occByKey)
	}

	// 3. Pick direct fields.
	fieldSet := map[string]bool{}
	if !opts.NoFields {
		var occKeys []string
		for k := range occByKey {
			occKeys = append(occKeys, k)
		}
		sort.Strings(occKeys)
		for _, k := range occKeys {
			oi := occByKey[k]
			if oi.onlyEq && oi.eqAtoms >= opts.MinEqAtomsForField && oi.typ.DomainSize() <= 64 &&
				(oi.typ.Kind == rules.TInt || oi.typ.Kind == rules.TSym) {
				fieldSet[k] = true
				cb.Fields = append(cb.Fields, Field{Key: k, Type: oi.typ, Expr: oi.expr})
			}
		}
	}

	// 4. Classify atoms: concrete (all occurrences direct) vs feature
	// bits.
	for _, key := range atomOrder {
		expr := atomsByKey[key]
		if !slices.ContainsFunc(occurrencesIn(c, bi, expr), func(o occurrence) bool { return !fieldSet[o.key] }) {
			continue // concrete: folded during table fill
		}
		cb.Atoms = append(cb.Atoms, Atom{Key: key, Expr: expr})
	}

	// 5. Size the table.
	entries := int64(1)
	for _, f := range cb.Fields {
		entries *= f.Type.DomainSize()
		if !opts.SizeOnly && entries > opts.MaxEntries {
			return nil, fmt.Errorf("core: %s: rule table exceeds %d entries", base, opts.MaxEntries)
		}
	}
	for range cb.Atoms {
		entries *= 2
		if !opts.SizeOnly && entries > opts.MaxEntries {
			return nil, fmt.Errorf("core: %s: rule table exceeds %d entries", base, opts.MaxEntries)
		}
	}
	cb.Entries = entries
	sel := bitsFor(int64(cb.RuleCount) + 1) // rules + "no rule"
	cb.ReturnBits = 0
	if bi.ReturnType != nil {
		cb.ReturnBits = bi.ReturnType.Bits()
	}
	cb.Width = sel + cb.ReturnBits
	if opts.SizeOnly {
		return cb, nil
	}

	// 6. Fill the table: for every combination of field values and
	// feature bits, the first rule whose premise holds wins; gaps get
	// the explicit "no rule" conclusion.
	cb.Table = make([]int16, entries)
	fieldVals := make(map[string]rules.Value, len(cb.Fields))
	featVals := make(map[string]bool, len(cb.Atoms))
	var fill func(dim int, idx int64) error
	fill = func(dim int, idx int64) error {
		if dim < len(cb.Fields) {
			f := cb.Fields[dim]
			for ord, v := range enumerateType(f.Type) {
				fieldVals[f.Key] = v
				if err := fill(dim+1, idx*f.Type.DomainSize()+int64(ord)); err != nil {
					return err
				}
			}
			return nil
		}
		a := dim - len(cb.Fields)
		if a < len(cb.Atoms) {
			for bit := int64(0); bit < 2; bit++ {
				featVals[cb.Atoms[a].Key] = bit == 1
				if err := fill(dim+1, idx*2+bit); err != nil {
					return err
				}
			}
			return nil
		}
		choice := int16(cb.RuleCount)
		for i, p := range premises {
			v, err := evalPartial(c, p, fieldVals, featVals)
			if err != nil {
				return fmt.Errorf("core: %s rule %d: %w", base, i, err)
			}
			if v.B {
				choice = int16(i)
				break
			}
		}
		cb.Table[idx] = choice
		return nil
	}
	if err := fill(0, 0); err != nil {
		return nil, err
	}
	return cb, nil
}

// LookupRule computes the table index from live state and returns the
// selected rule (RuleCount means no rule). env supplies variables and
// inputs; args are the event arguments. Differential tests check it
// against the reference evaluator's choice.
func (cb *CompiledBase) LookupRule(args []rules.Value, env rules.Env) (int, error) {
	if len(args) != len(cb.params) {
		return 0, fmt.Errorf("core: %s needs %d args, got %d", cb.Base, len(cb.params), len(args))
	}
	sc := map[string]rules.Value{}
	for i, p := range cb.params {
		sc[p.Name] = args[i]
	}
	idx := int64(0)
	for _, f := range cb.Fields {
		v, err := cb.checked.EvalExpr(f.Expr, sc, env)
		if err != nil {
			return 0, err
		}
		ord, err := v.Ord()
		if err != nil {
			return 0, err
		}
		if f.Type.Kind == rules.TInt {
			ord -= f.Type.Lo
		}
		if ord < 0 || ord >= f.Type.DomainSize() {
			return 0, fmt.Errorf("core: %s field %s out of range: %d", cb.Base, f.Key, ord)
		}
		idx = idx*f.Type.DomainSize() + ord
	}
	for _, a := range cb.Atoms {
		v, err := cb.checked.EvalExpr(a.Expr, sc, env)
		if err != nil {
			return 0, err
		}
		bit := int64(0)
		if v.B {
			bit = 1
		}
		idx = idx*2 + bit
	}
	return int(cb.Table[idx]), nil
}

// --- helpers ---

type occInfo struct {
	occurrence
	eqAtoms int
	onlyEq  bool
}

func bitsFor(n int64) int {
	b := 0
	for (int64(1) << b) < n {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

func enumerateType(t *rules.Type) []rules.Value {
	switch t.Kind {
	case rules.TInt:
		out := make([]rules.Value, 0, t.DomainSize())
		for v := t.Lo; v <= t.Hi; v++ {
			out = append(out, rules.Value{T: t, I: v})
		}
		return out
	case rules.TSym:
		out := make([]rules.Value, 0, len(t.Symbols))
		for i := range t.Symbols {
			out = append(out, rules.SymVal(t, int64(i)))
		}
		return out
	}
	return nil
}

// isAtomOp reports whether a binary operator forms a premise atom.
func isAtomOp(op string) bool {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=", "IN":
		return true
	}
	return false
}

// collectAtoms walks a quantifier-free premise, registering comparison
// atoms and the signal occurrences they contain.
func collectAtoms(c *rules.Checked, bi *rules.BaseInfo, e rules.Expr,
	atoms map[string]rules.Expr, order *[]string, occs map[string]*occInfo) {
	switch n := e.(type) {
	case *rules.Unary:
		collectAtoms(c, bi, n.X, atoms, order, occs)
	case *rules.Quant:
		// A quantified predicate is one FCFB-computed feature bit.
		addAtom(atoms, order, n)
		// Its occurrences are vector signals; they never become
		// direct index fields.
		for _, o := range occurrencesIn(c, bi, n) {
			if occs[o.key] == nil {
				occs[o.key] = &occInfo{occurrence: o}
			}
			occs[o.key].onlyEq = false
		}
	case *rules.Binary:
		if n.Op == "AND" || n.Op == "OR" {
			collectAtoms(c, bi, n.X, atoms, order, occs)
			collectAtoms(c, bi, n.Y, atoms, order, occs)
			return
		}
		if !isAtomOp(n.Op) {
			return
		}
		addAtom(atoms, order, n)
		occ := occurrencesIn(c, bi, n)
		eqLike := n.Op == "=" || n.Op == "<>" || n.Op == "IN"
		for _, o := range occ {
			oi := occs[o.key]
			if oi == nil {
				oi = &occInfo{occurrence: o, onlyEq: true}
				occs[o.key] = oi
			}
			// An atom with more than one occurrence can only be
			// folded when all of them are direct; treat multi-signal
			// or magnitude atoms as disqualifying for the eq-only
			// heuristic.
			if eqLike && len(occ) == 1 {
				oi.eqAtoms++
			} else {
				oi.onlyEq = false
			}
		}
	}
}

// addAtom registers atom n once, in first-seen order.
func addAtom(atoms map[string]rules.Expr, order *[]string, n rules.Expr) {
	if key := rules.ExprString(n); atoms[key] == nil {
		atoms[key] = n
		*order = append(*order, key)
	}
}

// occurrence is one signal occurrence inside an atom: its canonical
// key, its type (nil for a quantified variable) and its first
// expression.
type occurrence struct {
	key  string
	typ  *rules.Type
	expr rules.Expr
}

// occurrencesIn returns the signal occurrences inside an atom:
// identifiers naming parameters or scalar signals in value position,
// and indexed signal accesses (whose index arguments are treated as
// multiplexer selects, not occurrences).
func occurrencesIn(c *rules.Checked, bi *rules.BaseInfo, e rules.Expr) []occurrence {
	var out []occurrence
	seen := map[string]bool{}
	add := func(n rules.Expr, typ *rules.Type) {
		if key := rules.ExprString(n); !seen[key] {
			seen[key] = true
			out = append(out, occurrence{key, typ, n})
		}
	}
	var walk func(rules.Expr)
	walk = func(e rules.Expr) {
		switch n := e.(type) {
		case *rules.Ident:
			if _, isSym := c.Symbols[n.Name]; isSym {
				return
			}
			if _, isConst := c.NumConsts[n.Name]; isConst {
				return
			}
			var typ *rules.Type
			if info, ok := c.Signals[n.Name]; ok {
				typ = info.Domain
			} else if i := slices.IndexFunc(bi.Params, func(p *rules.SignalInfo) bool { return p.Name == n.Name }); i >= 0 {
				typ = bi.Params[i].Domain
			}
			add(n, typ)
		case *rules.Call:
			if info, isSignal := c.Signals[n.Name]; isSignal {
				add(n, info.Domain)
				return // index args are mux selects
			}
			if sub, isSub := c.Subs[n.Name]; isSub {
				// A subbase invocation is one functional unit: its
				// value is an occurrence, the interior is not re-
				// analysed here.
				add(n, sub.ReturnType)
				return
			}
			for _, a := range n.Args {
				walk(a)
			}
		case *rules.Unary:
			walk(n.X)
		case *rules.Binary:
			walk(n.X)
			walk(n.Y)
		case *rules.SetLit:
			for _, el := range n.Elems {
				walk(el)
			}
		case *rules.Quant:
			walk(n.Body)
		}
	}
	walk(e)
	return out
}

// evalPartial evaluates a quantifier-free premise under an assignment
// of direct-field values and feature-atom truth bits.
func evalPartial(c *rules.Checked, e rules.Expr, fields map[string]rules.Value, feats map[string]bool) (rules.Value, error) {
	key := rules.ExprString(e)
	if b, ok := feats[key]; ok {
		return rules.BoolVal(b), nil
	}
	if v, ok := fields[key]; ok {
		return v, nil
	}
	switch n := e.(type) {
	case *rules.NumLit:
		return rules.IntVal(n.Val), nil
	case *rules.Ident:
		if v, ok := c.Symbols[n.Name]; ok {
			return v, nil
		}
		if v, ok := c.NumConsts[n.Name]; ok {
			return rules.IntVal(v), nil
		}
		return rules.Value{}, fmt.Errorf("signal %s not available during table fill", n.Name)
	case *rules.Unary:
		x, err := evalPartial(c, n.X, fields, feats)
		if err != nil {
			return rules.Value{}, err
		}
		if n.Op == "NOT" {
			return rules.BoolVal(!x.B), nil
		}
		return rules.IntVal(-x.I), nil
	case *rules.Binary:
		return evalPartialBinary(c, n, fields, feats)
	case *rules.SetLit:
		return evalPartialSet(c, n, fields, feats)
	case *rules.Call:
		if _, isSignal := c.Signals[n.Name]; isSignal {
			return rules.Value{}, fmt.Errorf("signal %s not available during table fill", key)
		}
		if _, isSub := c.Subs[n.Name]; isSub {
			return rules.Value{}, fmt.Errorf("subbase %s not available during table fill", key)
		}
		args := make([]rules.Value, len(n.Args))
		for i, a := range n.Args {
			v, err := evalPartial(c, a, fields, feats)
			if err != nil {
				return rules.Value{}, err
			}
			args[i] = v
		}
		return rules.ApplyBuiltin(n.Name, args)
	}
	return rules.Value{}, fmt.Errorf("cannot fold expression %s", key)
}

func evalPartialBinary(c *rules.Checked, n *rules.Binary, fields map[string]rules.Value, feats map[string]bool) (rules.Value, error) {
	x, err := evalPartial(c, n.X, fields, feats)
	if err != nil {
		return rules.Value{}, err
	}
	if n.Op == "AND" && !x.B {
		return rules.BoolVal(false), nil
	}
	if n.Op == "OR" && x.B {
		return rules.BoolVal(true), nil
	}
	y, err := evalPartial(c, n.Y, fields, feats)
	if err != nil {
		return rules.Value{}, err
	}
	return rules.ApplyBinary(n.Op, x, y)
}

func evalPartialSet(c *rules.Checked, n *rules.SetLit, fields map[string]rules.Value, feats map[string]bool) (rules.Value, error) {
	vals := make([]rules.Value, len(n.Elems))
	for i, el := range n.Elems {
		v, err := evalPartial(c, el, fields, feats)
		if err != nil {
			return rules.Value{}, err
		}
		vals[i] = v
	}
	return rules.MakeSet(vals)
}
