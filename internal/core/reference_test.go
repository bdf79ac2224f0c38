package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/rules"
)

// ReferenceCompileBase is the string-keyed compiler the resolved fill
// replaced, kept as the oracle of TestCompiledTablesMatchReference: the
// same steps 1 to 5, and a fill that renders every premise subtree
// with rules.ExprString at every table entry and looks the key up in
// map-held field and atom assignments.
var ReferenceCompileBase = referenceCompileBase

func referenceCompileBase(c *rules.Checked, base string, opts CompileOptions) (*CompiledBase, error) {
	opts.defaults()
	bi, ok := c.Bases[base]
	if !ok {
		return nil, fmt.Errorf("core: unknown rule base %s", base)
	}
	cb := &CompiledBase{Base: base, RuleCount: len(bi.RB.Rules), checked: c, params: bi.Params}
	premises := make([]rules.Expr, len(bi.RB.Rules))
	for i, r := range bi.RB.Rules {
		premises[i] = r.Premise
	}
	atomsByKey := map[string]rules.Expr{}
	occByKey := map[string]*occInfo{}
	var atomOrder []string
	for _, p := range premises {
		collectAtoms(c, bi, p, atomsByKey, &atomOrder, occByKey)
	}
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
	for _, key := range atomOrder {
		expr := atomsByKey[key]
		if !slices.ContainsFunc(occurrencesIn(c, bi, expr), func(o occurrence) bool { return !fieldSet[o.key] }) {
			continue
		}
		cb.Atoms = append(cb.Atoms, Atom{Key: key, Expr: expr})
	}
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
	sel := bitsFor(int64(cb.RuleCount) + 1)
	if bi.ReturnType != nil {
		cb.ReturnBits = bi.ReturnType.Bits()
	}
	cb.Width = sel + cb.ReturnBits
	if opts.SizeOnly {
		return cb, nil
	}
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
