package core_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/rulesets"
)

// TestCompiledTablesMatchReference compiles every base of every
// builtin program, and of the ruledsl example, with CompileBase and
// with the string-keyed reference compiler, and requires the same
// index layout and the same filled table from both; then it checks
// that errors stay lazy (see lazyErrors).
func TestCompiledTablesMatchReference(t *testing.T) {
	type load struct {
		name string
		prog func() (*rulesets.Program, error)
	}
	loads := []load{{"nafta", rulesets.LoadNAFTA}, {"nara", rulesets.LoadNARA}}
	for d := 4; d <= 8; d++ {
		loads = append(loads,
			load{fmt.Sprintf("routec-d%d", d), func() (*rulesets.Program, error) { return rulesets.LoadRouteC(d, 2) }},
			load{fmt.Sprintf("routec-nft-d%d", d), func() (*rulesets.Program, error) { return rulesets.LoadRouteCNFT(d, 2) }})
	}
	for _, ports := range []int{4, 6, 8} {
		loads = append(loads, load{fmt.Sprintf("maze-%d", ports), func() (*rulesets.Program, error) { return rulesets.LoadMaze(ports) }})
	}
	for _, l := range loads {
		p, err := l.prog()
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		for _, rb := range p.Checked.Prog.RuleBases {
			compareCompiles(t, l.name, p.Checked, rb.Event)
		}
	}
	c := analyze(t, ruledslSource(t))
	for _, rb := range c.Prog.RuleBases {
		compareCompiles(t, "ruledsl", c, rb.Event)
	}
	lazyErrors(t)
}

// lazyErrors: a premise operand the fill cannot evaluate — a signal
// that is neither a field nor inside an atom — fails the compile only
// when the evaluation reaches it, and then with the reference
// compiler's message.
func lazyErrors(t *testing.T) {
	const src = `
CONSTANT dirs = 4
INPUT free (dirs) IN 0 TO 1
INPUT sig IN 0 TO 3
ON decide(k IN 0 TO 3)
  IF free(k) = 1 AND free(0) = 0 THEN RETURN(0);
  IF free(1) = 1 THEN RETURN(1);
END decide;
`
	num := func(v int64) rules.Expr { return &rules.NumLit{Val: v} }
	eq := func(x, y rules.Expr) rules.Expr { return &rules.Binary{Op: "=", X: x, Y: y} }
	sig := &rules.Ident{Name: "sig"}
	for _, c := range []struct {
		name    string
		premise rules.Expr
		err     string
	}{
		{"behind a false AND", &rules.Binary{Op: "AND", X: eq(num(1), num(2)), Y: sig}, ""},
		{"evaluated", &rules.Binary{Op: "AND", X: eq(num(1), num(1)), Y: sig},
			"core: decide rule 1: signal sig not available during table fill"},
		{"indexed, behind a true OR", &rules.Binary{Op: "OR", X: eq(num(2), num(2)),
			Y: &rules.Call{Name: "free", Args: []rules.Expr{&rules.Ident{Name: "k"}}}}, ""},
		{"indexed, evaluated", &rules.Binary{Op: "OR", X: eq(num(2), num(3)),
			Y: &rules.Call{Name: "free", Args: []rules.Expr{&rules.Ident{Name: "k"}}}},
			"core: decide rule 1: signal free(k) not available during table fill"},
	} {
		t.Run("lazy error/"+c.name, func(t *testing.T) {
			checked := analyze(t, src)
			checked.Bases["decide"].RB.Rules[1].Premise = c.premise
			got, err := core.CompileBase(checked, "decide", core.CompileOptions{})
			if msg := errText(err); msg != c.err {
				t.Fatalf("CompileBase error %q, want %q", msg, c.err)
			}
			want, refErr := core.ReferenceCompileBase(checked, "decide", core.CompileOptions{})
			if errText(refErr) != c.err {
				t.Fatalf("reference error %q, want %q", errText(refErr), c.err)
			}
			if err == nil && !slices.Equal(got.Table, want.Table) {
				t.Fatalf("tables differ:\n%v\n%v", got.Table, want.Table)
			}
		})
	}
}

// compareCompiles compiles one base with both compilers and reports
// every difference in the index layout, the size and the table.
func compareCompiles(t *testing.T, prog string, c *rules.Checked, base string) {
	t.Helper()
	got, err := core.CompileBase(c, base, core.CompileOptions{})
	want, refErr := core.ReferenceCompileBase(c, base, core.CompileOptions{})
	if errText(err) != errText(refErr) {
		t.Fatalf("%s %s: error %q, reference %q", prog, base, errText(err), errText(refErr))
	}
	if err != nil {
		return
	}
	if got.Entries != want.Entries || got.Width != want.Width || got.ReturnBits != want.ReturnBits {
		t.Errorf("%s %s: %s (%d return bits), reference %s (%d)", prog, base, got.Dim(), got.ReturnBits, want.Dim(), want.ReturnBits)
	}
	if !slices.EqualFunc(got.Fields, want.Fields, func(a, b core.Field) bool {
		return a.Key == b.Key && a.Type.String() == b.Type.String() && rules.ExprString(a.Expr) == rules.ExprString(b.Expr)
	}) {
		t.Errorf("%s %s: fields %v, reference %v", prog, base, got.Fields, want.Fields)
	}
	if !slices.EqualFunc(got.Atoms, want.Atoms, func(a, b core.Atom) bool {
		return a.Key == b.Key && rules.ExprString(a.Expr) == rules.ExprString(b.Expr)
	}) {
		t.Errorf("%s %s: atoms %v, reference %v", prog, base, got.Atoms, want.Atoms)
	}
	if !slices.Equal(got.Table, want.Table) {
		t.Errorf("%s %s: the %d-entry tables differ", prog, base, len(got.Table))
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func analyze(t *testing.T, src string) *rules.Checked {
	t.Helper()
	prog, err := rules.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := rules.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// ruledslSource reads the rule program of examples/ruledsl, the
// string constant named source in its main.go.
func ruledslSource(t *testing.T) string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../../examples/ruledsl/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, s := range gd.Specs {
			vs := s.(*ast.ValueSpec)
			if len(vs.Names) == 1 && vs.Names[0].Name == "source" {
				src, err := strconv.Unquote(vs.Values[0].(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				return src
			}
		}
	}
	t.Fatal("examples/ruledsl/main.go declares no const source")
	return ""
}
