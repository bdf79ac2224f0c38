package core

import (
	"fmt"

	"repro/internal/rules"
)

// A premise as the table fill evaluates it: every subtree whose
// canonical key names a feature atom or a direct field is replaced by
// that atom's bit or that field's position, constants are values, and
// what is left — operators, set literals, builtins — is evaluated over
// the two assignment slices the fill's enumeration sets. Keys are
// built once, while resolving, so the fill builds and hashes no string
// per table entry.
//
// A subtree that cannot be evaluated during the fill (a signal that is
// neither a field nor inside an atom, a subbase, a quantifier that is
// not an atom) resolves to its error, which is raised only when the
// evaluation reaches it: behind a false AND or a true OR it never
// does, and the base compiles.
type premise struct {
	kind premiseKind
	at   int         // pAtom: atom bit; pField: field position
	val  rules.Value // pConst
	err  error       // pFail
	op   string      // pUnary, pBinary: operator; pBuiltin: function name
	args []*premise  // operands in evaluation order
}

type premiseKind uint8

const (
	pConst premiseKind = iota
	pAtom
	pField
	pFail
	pUnary
	pBinary
	pSet
	pBuiltin
)

// premiseResolver resolves premises against one table layout: atoms
// and fields map a canonical key to its atom bit or field position
// (both nil to fold constants only).
type premiseResolver struct {
	c      *rules.Checked
	atoms  map[string]int
	fields map[string]int
}

// resolve returns the resolved form of e and e's canonical key. The
// operands are resolved first, so each key is rendered from its
// operands' keys once; a subtree found to be an atom or a field then
// drops its operands. A node whose operands all resolved to constants
// is folded now, its error included (kept as a pFail, so it stays
// lazy).
func (r *premiseResolver) resolve(e rules.Expr) (*premise, string) {
	var pair [2]rules.Expr
	var operands []rules.Expr
	switch n := e.(type) {
	case *rules.Call:
		operands = n.Args
	case *rules.Unary:
		operands = append(pair[:0], n.X)
	case *rules.Binary:
		operands = append(pair[:0], n.X, n.Y)
	case *rules.SetLit:
		operands = n.Elems
	}
	args := make([]*premise, 0, len(operands))
	var keyBuf [4]string
	keys := keyBuf[:0]
	allConst := true
	for _, x := range operands {
		a, k := r.resolve(x)
		args, keys = append(args, a), append(keys, k)
		allConst = allConst && a.kind == pConst
	}
	key := rules.RenderNode(e, keys)
	if i, ok := r.atoms[key]; ok {
		return &premise{kind: pAtom, at: i}, key
	}
	if j, ok := r.fields[key]; ok {
		return &premise{kind: pField, at: j}, key
	}
	var p *premise
	switch n := e.(type) {
	case *rules.NumLit:
		return &premise{kind: pConst, val: rules.IntVal(n.Val)}, key
	case *rules.Ident:
		if v, ok := r.c.Symbols[n.Name]; ok {
			return &premise{kind: pConst, val: v}, key
		}
		if v, ok := r.c.NumConsts[n.Name]; ok {
			return &premise{kind: pConst, val: rules.IntVal(v)}, key
		}
		return failed(fmt.Errorf("signal %s not available during table fill", n.Name)), key
	case *rules.Unary:
		p = &premise{kind: pUnary, op: n.Op, args: args}
	case *rules.Binary:
		p = &premise{kind: pBinary, op: n.Op, args: args}
	case *rules.SetLit:
		p = &premise{kind: pSet, args: args}
	case *rules.Call:
		if _, isSignal := r.c.Signals[n.Name]; isSignal {
			return failed(fmt.Errorf("signal %s not available during table fill", key)), key
		}
		if _, isSub := r.c.Subs[n.Name]; isSub {
			return failed(fmt.Errorf("subbase %s not available during table fill", key)), key
		}
		p = &premise{kind: pBuiltin, op: n.Name, args: args}
	default:
		return failed(fmt.Errorf("cannot fold expression %s", key)), key
	}
	if allConst {
		v, err := p.eval(nil, nil)
		if err != nil {
			*p = premise{kind: pFail, err: err}
		} else {
			*p = premise{kind: pConst, val: v}
		}
	}
	return p, key
}

func failed(err error) *premise { return &premise{kind: pFail, err: err} }

// eval evaluates the premise under atom bits and field values, in the
// reference evaluator's order: operands left to right, AND and OR
// short-circuiting on their left operand.
func (p *premise) eval(bits []bool, fields []rules.Value) (rules.Value, error) {
	switch p.kind {
	case pConst:
		return p.val, nil
	case pAtom:
		return rules.BoolVal(bits[p.at]), nil
	case pField:
		return fields[p.at], nil
	case pFail:
		return rules.Value{}, p.err
	case pUnary:
		x, err := p.args[0].eval(bits, fields)
		if err != nil {
			return rules.Value{}, err
		}
		if p.op == "NOT" {
			return rules.BoolVal(!x.B), nil
		}
		return rules.IntVal(-x.I), nil
	case pBinary:
		x, err := p.args[0].eval(bits, fields)
		if err != nil {
			return rules.Value{}, err
		}
		if p.op == "AND" && !x.B {
			return rules.BoolVal(false), nil
		}
		if p.op == "OR" && x.B {
			return rules.BoolVal(true), nil
		}
		y, err := p.args[1].eval(bits, fields)
		if err != nil {
			return rules.Value{}, err
		}
		return rules.ApplyBinary(p.op, x, y)
	}
	// pSet, pBuiltin: a set literal or a builtin over its evaluated
	// operands.
	var buf [4]rules.Value
	vals := buf[:0]
	for _, a := range p.args {
		v, err := a.eval(bits, fields)
		if err != nil {
			return rules.Value{}, err
		}
		vals = append(vals, v)
	}
	if p.kind == pSet {
		return rules.MakeSet(vals)
	}
	return rules.ApplyBuiltin(p.op, vals)
}

// foldConst evaluates an expression that needs no table input (a set
// literal, a constant RETURN value) with the fill's evaluator.
func foldConst(c *rules.Checked, e rules.Expr) (rules.Value, error) {
	p, _ := (&premiseResolver{c: c}).resolve(e)
	return p.eval(nil, nil)
}
