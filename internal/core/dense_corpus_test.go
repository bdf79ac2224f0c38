package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rules"
)

// TestFuzzCompiledTableMatchesReference draws premises over VARIABLEs,
// which CompileDense refuses, so none of its programs reaches the dense
// path. This corpus reads INPUTs only: symbol and small-int scalars, a
// vector indexed by constants, by the event parameter and by another
// input, a four-element packed 0/1 line, IN sets, the arithmetic
// builtins, a SUBBASE with a parameter (which may find no rule), both
// quantifier shapes — the word-parallel one over the packed line and
// the loop — and AND/OR/NOT nesting. On vectors with about one input
// element in eight unset, Lookup must answer ok exactly when LookupRule
// answers without error, and then with the same rule; a second Lookup
// of the same vector must repeat the first.

const denseCorpusDecls = `
CONSTANT colors = {red, green, blue}
INPUT s IN colors
INPUT n IN 0 TO 7
INPUT m IN 0 TO 3
INPUT q (4) IN 0 TO 7
INPUT b (4) IN 0 TO 1

SUBBASE near(x IN 0 TO 7)
  IF DIST(x, n) <= 1 THEN RETURN(2);
  IF x IN {0, 7} OR s = blue THEN RETURN(1);
  IF x > m THEN RETURN(0);
END near;
`

func corpusLeaf(rng *rand.Rand) string {
	rel := []string{"=", "<>", "<", "<=", ">", ">="}[rng.Intn(6)]
	i, v, bit := rng.Intn(4), rng.Intn(8), rng.Intn(2)
	switch rng.Intn(17) {
	case 0:
		return "s = " + []string{"red", "green", "blue"}[rng.Intn(3)]
	case 1:
		return "s IN {red, blue}"
	case 2:
		return fmt.Sprintf("n %s %d", rel, v)
	case 3:
		return fmt.Sprintf("m IN {%d, %d}", rng.Intn(4), rng.Intn(4))
	case 4:
		return fmt.Sprintf("q(%d) %s %d", i, rel, v)
	case 5:
		return fmt.Sprintf("q(k) %s %d", rel, v)
	case 6:
		return fmt.Sprintf("q(m) %s n", rel)
	case 7:
		return fmt.Sprintf("b(%d) = %d", i, bit)
	case 8:
		return fmt.Sprintf("MIN(n, q(%d)) %s %d", i, rel, v)
	case 9:
		return fmt.Sprintf("ABS(n - q(%d)) > %d", i, rng.Intn(4))
	case 10:
		return fmt.Sprintf("DIST(q(%d), m) %s %d", i, rel, rng.Intn(4))
	case 11:
		return fmt.Sprintf("near(q(%d)) = %d", i, rng.Intn(3))
	case 12:
		return fmt.Sprintf("near(n + m) %s %d", rel, rng.Intn(3))
	case 13:
		return fmt.Sprintf("k IN {%d, %d}", rng.Intn(4), rng.Intn(4))
	case 14: // word-parallel: a conjunction, or AND/OR/NOT over the line
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("(EXISTS i IN 0 TO 3: (b(i) = %d AND b(i) = %d))", bit, rng.Intn(2))
		}
		return fmt.Sprintf("(FORALL i IN 0 TO 3: (b(i) = %d OR NOT b(i) = %d))", bit, rng.Intn(2))
	case 15: // the loop: a body outside the mask shape
		return fmt.Sprintf("(EXISTS i IN 0 TO 3: (q(i) %s %d AND b(i) = %d))", rel, v, bit)
	default:
		return fmt.Sprintf("(FORALL i IN 1 TO 2: (q(i) > n OR b(i) = %d))", bit)
	}
}

func corpusPremise(rng *rand.Rand, depth int) string {
	if depth <= 0 || rng.Intn(3) == 0 {
		return corpusLeaf(rng)
	}
	switch x := corpusPremise(rng, depth-1); rng.Intn(3) {
	case 0:
		return "(" + x + " AND " + corpusPremise(rng, depth-1) + ")"
	case 1:
		return "(" + x + " OR " + corpusPremise(rng, depth-1) + ")"
	default:
		return "NOT " + x
	}
}

// fillCorpusVector sets every input element to a random value of its
// domain, leaving each unset with probability 1/8 (signals in name
// order, so a seed names one sequence of vectors).
func fillCorpusVector(iv *InputVector, rng *rand.Rand) {
	iv.Begin()
	for _, name := range []string{"b", "m", "n", "q", "s"} {
		s := iv.layout.byName[name]
		for e := 0; e < int(s.info.Slots()); e++ {
			if rng.Intn(8) != 0 {
				iv.Set(s.off+e, rng.Int63n(s.info.Domain.DomainSize()))
			}
		}
	}
}

func TestDenseRandomPremisesMatchLookupRule(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	programs, compiled, agreedOK, agreedFail := 300, 0, 0, 0
	for prog := 0; prog < programs; prog++ {
		var b strings.Builder
		b.WriteString(denseCorpusDecls + "ON decide(k IN 0 TO 3)\n")
		for r, n := 0, 1+rng.Intn(4); r < n; r++ {
			fmt.Fprintf(&b, "  IF %s THEN RETURN(%d);\n", corpusPremise(rng, 2), r)
		}
		b.WriteString("END decide;\n")
		src := b.String()
		c := mustAnalyze(t, src)
		cb, err := CompileBase(c, "decide", CompileOptions{MaxEntries: 1 << 18})
		if err != nil {
			if strings.Contains(err.Error(), "exceeds") {
				continue // an oversized table is a legitimate refusal
			}
			t.Fatalf("program %d: compile: %v\n%s", prog, err, src)
		}
		layout := NewInputLayout(c)
		dt, err := cb.CompileDense(layout)
		if err != nil {
			t.Fatalf("program %d: an INPUT-only base must compile densely: %v\n%s", prog, err, src)
		}
		compiled++
		iv := NewInputVector(layout)
		machine := NewMachine(c, iv.Provider())
		for trial := 0; trial < 60; trial++ {
			fillCorpusVector(iv, rng)
			k := rng.Int63n(4)
			got, ok := dt.Lookup(iv, k)
			want, err := cb.LookupRule([]rules.Value{{T: rules.IntType(0, 3), I: k}}, machine)
			if ok != (err == nil) || ok && got != want {
				t.Fatalf("program %d trial %d (k=%d): dense (%d, %v), reference (%d, %v)\n%s",
					prog, trial, k, got, ok, want, err, src)
			}
			if again, ok2 := dt.Lookup(iv, k); again != got || ok2 != ok {
				t.Fatalf("program %d trial %d: second lookup (%d, %v), first (%d, %v)\n%s",
					prog, trial, again, ok2, got, ok, src)
			}
			if ok {
				agreedOK++
			} else {
				agreedFail++
			}
		}
	}
	t.Logf("%d of %d programs compiled; %d lookups agreed in the dense regime, %d on the fallback",
		compiled, programs, agreedOK, agreedFail)
	if compiled < programs/2 || agreedOK < 3000 || agreedFail < 1000 {
		t.Fatalf("corpus too thin: %d programs, %d ok and %d fallback lookups", compiled, agreedOK, agreedFail)
	}
}
