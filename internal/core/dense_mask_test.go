package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rules"
)

// The mask step of compileQuant replaces the per-element loop by word
// operations for one body shape and must be invisible otherwise: every
// base is compiled twice, with the step and without it (noMask), and
// the two tables must agree on (rule, ok) for every vector — including
// partially unset ones, where ok depends on which elements the loop
// form's short-circuit evaluation would have read.

// maskDecls is the signal bank of the generated programs: packed 0/1
// vectors (a, b, z shares its name with a quantified variable), a
// three-valued vector, a two-index signal, and vectors at and just
// past the word width.
const maskDecls = `
CONSTANT n = 8
INPUT a (n) IN 0 TO 1
INPUT b (n) IN 0 TO 1
INPUT z (n) IN 0 TO 1
INPUT t (n) IN 0 TO 2
INPUT g (n, 2) IN 0 TO 1
INPUT w (64) IN 0 TO 1
INPUT x (65) IN 0 TO 1
`

// maskGen draws generator choices from a byte string (zero-padded), so
// the fuzzer's mutations steer the program shape directly.
type maskGen struct {
	data []byte
	pos  int
}

func (g *maskGen) intn(n int) int {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return int(b) % n
}

// leaf produces one comparison over element v of the n-element bank:
// the supported sig(v) = 0|1 or, in one of four draws of an impure
// body, one step outside it.
func (g *maskGen) leaf(v string, pure bool) string {
	outside := 6
	if !pure {
		outside = g.intn(24)
	}
	switch outside {
	case 0:
		return fmt.Sprintf("a(p) = %d", g.intn(2)) // wrong index variable
	case 1:
		return fmt.Sprintf("t(%s) = %d", v, g.intn(3)) // not a 0/1 signal
	case 2:
		return fmt.Sprintf("a(%s) = 2", v) // literal outside 0/1
	case 3:
		return fmt.Sprintf("g(%s, %d) = 1", v, g.intn(2)) // two-index signal
	case 4:
		return fmt.Sprintf("(EXISTS j IN 0 TO n - 1: (a(j) = 1 AND b(%s) = 1))", v) // nested quantifier
	case 5:
		return fmt.Sprintf("1 = b(%s)", v) // literal on the left
	default:
		return fmt.Sprintf("%c(%s) = %d", "abz"[g.intn(3)], v, g.intn(2))
	}
}

func (g *maskGen) body(v string, depth int, pure bool) string {
	if depth <= 0 || g.intn(4) == 0 {
		return g.leaf(v, pure)
	}
	switch g.intn(3) {
	case 0:
		return "NOT (" + g.body(v, depth-1, pure) + ")"
	case 1:
		return "(" + g.body(v, depth-1, pure) + " AND " + g.body(v, depth-1, pure) + ")"
	default:
		return "(" + g.body(v, depth-1, pure) + " OR " + g.body(v, depth-1, pure) + ")"
	}
}

// quant produces one quantified premise: two of three bodies stay
// inside the supported shape. Besides the n-element bank it draws the
// 64- and 65-element vectors, a sub-range of the index domain and a
// quantified variable that shadows signal z.
func (g *maskGen) quant() string {
	kind := []string{"EXISTS", "FORALL"}[g.intn(2)]
	pure := g.intn(3) != 0
	switch g.intn(8) {
	case 0:
		return fmt.Sprintf("%s i IN 0 TO 63: (w(i) = %d OR NOT w(i) = 1)", kind, g.intn(2))
	case 1:
		return fmt.Sprintf("%s i IN 0 TO 64: x(i) = %d", kind, g.intn(2))
	case 2:
		return fmt.Sprintf("%s i IN 1 TO n - 2: %s", kind, g.body("i", 2, pure))
	case 3:
		return fmt.Sprintf("%s z IN 0 TO n - 1: %s", kind, g.body("z", 2, pure))
	default:
		return fmt.Sprintf("%s i IN 0 TO n - 1: %s", kind, g.body("i", 3, pure))
	}
}

func (g *maskGen) program() string {
	var sb strings.Builder
	sb.WriteString(maskDecls)
	sb.WriteString("ON decide(p IN 0 TO 7)\n")
	for r := 1; r <= 3; r++ {
		fmt.Fprintf(&sb, "  IF %s THEN RETURN(%d);\n", g.quant(), r)
	}
	sb.WriteString("  IF 1 = 1 THEN RETURN(0);\nEND decide;\n")
	return sb.String()
}

// fillMaskVector sets every input element with a random value, leaving
// each unset with probability 1/unsetOneIn (0 = fully set). Packed
// signals are sometimes stored through the whole-word setter.
func fillMaskVector(iv *InputVector, rng *rand.Rand, unsetOneIn int) {
	iv.Begin()
	for _, s := range iv.layout.byName {
		if s.word >= 0 && rng.Intn(4) == 0 {
			iv.SetWord(s.word, rng.Uint64())
			continue
		}
		for e := 0; e < int(s.info.Slots()); e++ {
			if unsetOneIn > 0 && rng.Intn(unsetOneIn) == 0 {
				continue
			}
			iv.Set(s.off+e, rng.Int63n(s.info.Domain.DomainSize()))
		}
	}
}

// checkMaskDifferential generates one program from data and compares
// the masked and the loop-only dense tables over random vectors. It
// reports whether the program compiled (the generator may draw a
// premise the table compiler rejects for size).
func checkMaskDifferential(t *testing.T, data []byte) bool {
	g := &maskGen{data: data}
	src := g.program()
	prog, err := rules.Parse(src)
	if err != nil {
		t.Fatalf("generated program does not parse: %v\n%s", err, src)
	}
	c, err := rules.Analyze(prog)
	if err != nil {
		t.Fatalf("generated program does not analyse: %v\n%s", err, src)
	}
	cb, err := CompileBase(c, "decide", CompileOptions{})
	if err != nil {
		return false
	}
	layout := NewInputLayout(c)
	masked, err := cb.compileDense(layout, false)
	if err != nil {
		t.Fatalf("dense compile: %v\n%s", err, src)
	}
	loop, err := cb.compileDense(layout, true)
	if err != nil {
		t.Fatalf("dense compile (no mask): %v\n%s", err, src)
	}
	iv := NewInputVector(layout)
	m := NewMachine(c, iv.Provider())
	h := fnv.New64a()
	h.Write(data)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	for trial := 0; trial < 24; trial++ {
		unsetOneIn := []int{0, 0, 40, 6}[trial%4]
		fillMaskVector(iv, rng, unsetOneIn)
		p := rng.Int63n(8)
		gotRule, gotOK := masked.Lookup(iv, p)
		wantRule, wantOK := loop.Lookup(iv, p)
		if gotOK != wantOK || (gotOK && gotRule != wantRule) {
			t.Fatalf("trial %d (p=%d): masked (%d,%v), loop (%d,%v)\n%s", trial, p, gotRule, gotOK, wantRule, wantOK, src)
		}
		if unsetOneIn != 0 {
			continue
		}
		// Fully set: both must stay in the dense regime and agree with
		// the table index the reference evaluator computes.
		if !gotOK {
			t.Fatalf("trial %d: fully set vector fell back\n%s", trial, src)
		}
		ref, err := cb.LookupRule([]rules.Value{{T: rules.IntType(0, 7), I: p}}, m)
		if err != nil {
			t.Fatalf("trial %d: reference lookup: %v\n%s", trial, err, src)
		}
		if ref != gotRule {
			t.Fatalf("trial %d (p=%d): dense rule %d, reference rule %d\n%s", trial, p, gotRule, ref, src)
		}
	}
	return true
}

func TestDenseMaskMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(20261001))
	compiled := 0
	for i := 0; i < 400; i++ {
		data := make([]byte, 96)
		rng.Read(data)
		if checkMaskDifferential(t, data) {
			compiled++
		}
	}
	if compiled < 300 {
		t.Fatalf("only %d of 400 generated programs compiled", compiled)
	}
}

func FuzzDenseMaskDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 7, 1, 1, 6, 1, 2, 7, 0, 1, 9, 0, 1, 3, 2, 1, 7, 1, 6, 0})
	f.Add([]byte{1, 0, 1, 0, 1, 1, 1, 2, 1, 1, 4, 2, 0, 0, 3, 1, 5})
	f.Add([]byte{0, 3, 2, 6, 1, 0, 2, 1, 1, 1, 0, 1, 4, 1, 2, 0, 3, 1, 1, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) { checkMaskDifferential(t, data) })
}

// The mask step must engage on exactly the documented shape — a body
// that silently stayed on the loop would make the differential above
// vacuous, one that wrongly engaged would be caught only by luck.
func TestCompileMaskShape(t *testing.T) {
	for _, tc := range []struct {
		quant string
		mask  bool
	}{
		{"EXISTS i IN 0 TO n - 1: a(i) = 1", true},
		{"FORALL i IN 0 TO n - 1: (a(i) = 0 OR NOT (b(i) = 1 AND z(i) = 1))", true},
		{"EXISTS i IN 0 TO 63: w(i) = 1", true},
		{"EXISTS z IN 0 TO n - 1: (z(z) = 1 AND a(z) = 0)", true},
		{"EXISTS i IN 0 TO 64: x(i) = 1", false},       // 65 elements: not packed
		{"EXISTS i IN 0 TO n - 1: a(p) = 1", false},    // wrong index variable
		{"EXISTS i IN 0 TO n - 1: a(i) = 2", false},    // literal outside 0/1
		{"EXISTS i IN 0 TO n - 1: t(i) = 1", false},    // not a 0/1 signal
		{"EXISTS i IN 0 TO n - 1: g(i, 0) = 1", false}, // two-index signal
		{"EXISTS i IN 1 TO n - 2: a(i) = 1", false},    // not the signal's index domain
		{"EXISTS i IN 0 TO n - 1: 1 = a(i)", false},    // literal on the left
		{"EXISTS i IN 0 TO n - 1: a(i) <> 1", false},   // other comparison
		{"EXISTS i IN 0 TO n - 1: (a(i) = 1 AND (EXISTS j IN 0 TO n - 1: b(j) = 1))", false},
	} {
		src := maskDecls + "ON decide(p IN 0 TO 7)\n  IF " + tc.quant + " THEN RETURN(1);\n  IF 1 = 1 THEN RETURN(0);\nEND decide;\n"
		c := mustAnalyze(t, src)
		q, ok := c.Bases["decide"].RB.Rules[0].Premise.(*rules.Quant)
		if !ok {
			t.Fatalf("%s: premise is %T", tc.quant, c.Bases["decide"].RB.Rules[0].Premise)
		}
		dom, err := c.ResolveDomain(q.Domain)
		if err != nil {
			t.Fatal(err)
		}
		dc := &denseCompiler{c: c, layout: NewInputLayout(c), scope: map[string]int{}}
		if got := dc.compileMask(q.Body, q.Var, dom); got != tc.mask {
			t.Errorf("%s: mask form %v, want %v", tc.quant, got, tc.mask)
		}
	}
}
