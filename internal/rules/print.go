package rules

import (
	"fmt"
	"strconv"
	"strings"
)

// ExprString renders an expression in canonical concrete syntax; the
// compiler uses it as a structural identity key for premise atoms and
// signal occurrences.
func ExprString(e Expr) string {
	var sub []string
	switch n := e.(type) {
	case *Call:
		sub = exprStrings(n.Args)
	case *Unary:
		sub = []string{ExprString(n.X)}
	case *Binary:
		sub = []string{ExprString(n.X), ExprString(n.Y)}
	case *SetLit:
		sub = exprStrings(n.Elems)
	}
	return RenderNode(e, sub)
}

func exprStrings(es []Expr) []string {
	out := make([]string, len(es))
	for i, x := range es {
		out[i] = ExprString(x)
	}
	return out
}

// RenderNode renders e given the renderings of its operands — a Call's
// arguments, a Unary's X, a Binary's X and Y, a SetLit's elements, in
// order; other nodes take none — so that a caller walking a tree bottom
// up builds each subexpression's ExprString once instead of once per
// ancestor.
func RenderNode(e Expr, sub []string) string {
	switch n := e.(type) {
	case *NumLit:
		return strconv.FormatInt(n.Val, 10)
	case *Ident:
		return n.Name
	case *Call:
		return n.Name + "(" + strings.Join(sub, ",") + ")"
	case *Unary:
		if n.Op == "NOT" {
			return "NOT " + sub[0]
		}
		return "-" + sub[0]
	case *Binary:
		return "(" + sub[0] + " " + n.Op + " " + sub[1] + ")"
	case *SetLit:
		return "{" + strings.Join(sub, ",") + "}"
	case *Quant:
		return fmt.Sprintf("%s %s IN %s: %s", n.Kind, n.Var, domainString(n.Domain), ExprString(n.Body))
	}
	return fmt.Sprintf("<%T>", e)
}

func domainString(d *DomainExpr) string {
	switch {
	case d == nil:
		return "?"
	case d.Symbols != nil:
		return "{" + strings.Join(d.Symbols, ",") + "}"
	case d.Ref != "":
		return d.Ref
	case d.Count != nil:
		return ExprString(d.Count)
	default:
		return ExprString(d.Lo) + " TO " + ExprString(d.Hi)
	}
}
