package rules

import "fmt"

// ApplyBinary applies a value-level binary operator (everything except
// the short-circuit handling, which callers do themselves).
func ApplyBinary(op string, x, y Value) (Value, error) {
	switch op {
	case "AND", "OR":
		if op == "AND" {
			return BoolVal(x.B && y.B), nil
		}
		return BoolVal(x.B || y.B), nil
	case "=":
		return BoolVal(x.Equal(y)), nil
	case "<>":
		return BoolVal(!x.Equal(y)), nil
	case "<":
		return BoolVal(x.I < y.I), nil
	case "<=":
		return BoolVal(x.I <= y.I), nil
	case ">":
		return BoolVal(x.I > y.I), nil
	case ">=":
		return BoolVal(x.I >= y.I), nil
	case "IN":
		if y.T == nil || y.T.Kind != TSet {
			return Value{}, fmt.Errorf("rules: IN needs a set")
		}
		ord, err := setOrdinal(y.T.Elem, x)
		if err != nil {
			return Value{}, err
		}
		return BoolVal(y.Mask&(1<<ord) != 0), nil
	case "+":
		if x.T != nil && x.T.Kind == TSet {
			return Value{T: x.T, Mask: x.Mask | y.Mask}, nil
		}
		return IntVal(x.I + y.I), nil
	case "-":
		if x.T != nil && x.T.Kind == TSet {
			return Value{T: x.T, Mask: x.Mask &^ y.Mask}, nil
		}
		return IntVal(x.I - y.I), nil
	case "*":
		return IntVal(x.I * y.I), nil
	}
	return Value{}, fmt.Errorf("rules: unhandled operator %s", op)
}

// ApplyBuiltin applies one of the builtin FCFB functions to evaluated
// arguments.
func ApplyBuiltin(name string, args []Value) (Value, error) {
	switch name {
	case "ABS":
		if len(args) != 1 {
			return Value{}, fmt.Errorf("rules: ABS arity")
		}
		v := args[0].I
		if v < 0 {
			v = -v
		}
		return IntVal(v), nil
	case "MIN":
		if len(args) != 2 {
			return Value{}, fmt.Errorf("rules: MIN arity")
		}
		if args[0].I <= args[1].I {
			return args[0], nil
		}
		return args[1], nil
	case "MAX":
		if len(args) != 2 {
			return Value{}, fmt.Errorf("rules: MAX arity")
		}
		if args[0].I >= args[1].I {
			return args[0], nil
		}
		return args[1], nil
	case "DIST":
		if len(args) != 2 {
			return Value{}, fmt.Errorf("rules: DIST arity")
		}
		d := args[0].I - args[1].I
		if d < 0 {
			d = -d
		}
		return IntVal(d), nil
	case "MEET":
		if len(args) != 2 {
			return Value{}, fmt.Errorf("rules: MEET arity")
		}
		if args[0].I >= args[1].I {
			return args[0], nil
		}
		return args[1], nil
	}
	return Value{}, fmt.Errorf("rules: unknown builtin %s", name)
}

// MakeSet builds a set value from element values (integers widen to
// the canonical 0..63 host range).
func MakeSet(vals []Value) (Value, error) {
	if len(vals) == 0 {
		return Value{}, fmt.Errorf("rules: empty set literal has no type")
	}
	var elem *Type
	var mask uint64
	for _, v := range vals {
		if elem == nil {
			if v.T.Kind == TInt {
				elem = IntType(0, 63)
			} else {
				elem = v.T
			}
		}
		ord, err := setOrdinal(elem, v)
		if err != nil {
			return Value{}, err
		}
		if ord >= 64 {
			return Value{}, fmt.Errorf("rules: set element ordinal %d exceeds 63", ord)
		}
		mask |= 1 << ord
	}
	return Value{T: &Type{Kind: TSet, Elem: elem}, Mask: mask}, nil
}
