package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rules"
)

// denseProg exercises every construct the dense compiler supports:
// direct symbol fields, subbase inlining, quantifier loops, constant
// set folding (including set union), builtins and parameters.
const denseProg = `
CONSTANT signs = {neg, zero, pos}
CONSTANT W = 4

INPUT dxsign IN signs
INPUT free (4) IN 0 TO 1
INPUT load (4) IN 0 TO 15
INPUT hops IN 0 TO 7

SUBBASE best(p IN 0 TO 3)
  IF free(p) = 1 AND load(p) < 8 THEN RETURN(2);
  IF free(p) = 1 THEN RETURN(1);
  IF 1 = 1 THEN RETURN(0);
END best;

ON decide(invc IN 0 TO 1)
  IF dxsign = pos AND best(1) = 2 THEN RETURN(1);
  IF dxsign IN {neg, zero} AND EXISTS i IN 0 TO 3: free(i) = 1 THEN RETURN(2);
  IF hops IN ({1} + {3}) THEN RETURN(3);
  IF MIN(load(0), load(2)) >= MAX(load(1), 4) THEN RETURN(0);
  IF ABS(hops - W) > 2 AND invc = 1 THEN RETURN(1);
  IF 1 = 1 THEN RETURN(0);
END decide;
`

func fillDenseInputs(t *testing.T, iv *InputVector, rng *rand.Rand) {
	t.Helper()
	l := iv.layout
	set := func(name string, v int64, idx ...int64) {
		slot, err := l.SlotOf(name, idx...)
		if err != nil {
			t.Fatal(err)
		}
		iv.Set(slot, v)
	}
	iv.Begin()
	set("dxsign", int64(rng.Intn(3)))
	set("hops", int64(rng.Intn(8)))
	for i := int64(0); i < 4; i++ {
		set("free", int64(rng.Intn(2)), i)
		set("load", int64(rng.Intn(16)), i)
	}
}

// The fast path must agree with LookupRule — and therefore with the
// reference interpreter — on fired rule AND folded RETURN value, for
// the same input vector served through both access paths.
func TestDenseTableMatchesLookupRule(t *testing.T) {
	c := mustAnalyze(t, denseProg)
	cb, err := CompileBase(c, "decide", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	layout := NewInputLayout(c)
	dt, err := cb.CompileDense(layout)
	if err != nil {
		t.Fatal(err)
	}
	iv := NewInputVector(layout)
	m := NewMachine(c, iv.Provider())
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 4000; trial++ {
		fillDenseInputs(t, iv, rng)
		invc := int64(rng.Intn(2))
		args := []rules.Value{{T: rules.IntType(0, 1), I: invc}}

		want, err := cb.LookupRule(args, m)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := dt.Lookup(iv, invc)
		if !ok {
			t.Fatalf("trial %d: dense lookup fell back", trial)
		}
		if got != want {
			t.Fatalf("trial %d: dense rule %d, table rule %d", trial, got, want)
		}
		if got == cb.RuleCount {
			continue
		}
		refIdx, eff, err := c.Invoke("decide", args, m)
		if err != nil {
			t.Fatal(err)
		}
		if refIdx != got {
			t.Fatalf("trial %d: dense rule %d, interpreter rule %d", trial, got, refIdx)
		}
		rv, rok := dt.Return(got)
		if !rok {
			t.Fatalf("trial %d: rule %d RETURN did not fold", trial, got)
		}
		if eff.Return == nil || eff.Return.I != rv.I {
			t.Fatalf("trial %d: dense RETURN %v, interpreter %v", trial, rv, eff.Return)
		}
	}
}

// Premises that read VARIABLEs are outside the pure-input regime: the
// dense compiler must refuse, leaving the caller on the interpreter.
func TestDenseRejectsVariablePremise(t *testing.T) {
	src := `
VARIABLE mode IN 0 TO 3
ON decide()
  IF mode = 1 THEN RETURN(1);
  IF 1 = 1 THEN RETURN(0);
END decide;
`
	c := mustAnalyze(t, src)
	cb, err := CompileBase(c, "decide", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cb.CompileDense(NewInputLayout(c)); err == nil {
		t.Fatal("variable premise must not compile to the dense path")
	} else if !strings.Contains(err.Error(), "variable") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// A lookup against an input the adapter did not set reports ok=false
// (fallback), never a stale value from the previous decision.
func TestDenseUnsetInputFallsBack(t *testing.T) {
	c := mustAnalyze(t, denseProg)
	cb, err := CompileBase(c, "decide", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	layout := NewInputLayout(c)
	dt, err := cb.CompileDense(layout)
	if err != nil {
		t.Fatal(err)
	}
	iv := NewInputVector(layout)
	rng := rand.New(rand.NewSource(5))
	fillDenseInputs(t, iv, rng)
	if _, ok := dt.Lookup(iv, 0); !ok {
		t.Fatal("fully set vector should not fall back")
	}
	// A new decision that forgets every input must fail closed.
	iv.Begin()
	if _, ok := dt.Lookup(iv, 0); ok {
		t.Fatal("unset inputs must force the fallback path")
	}
	// And the provider view must agree (the interpreter errors too).
	if _, err := iv.Provider()("dxsign", nil); err == nil {
		t.Fatal("provider must reject unset slots")
	}
}

// The event queue must reuse its backing array across cascades instead
// of abandoning the consumed prefix to the collector (the old
// queue = queue[1:] drain retained it and forced regrowth every run).
func TestMachineQueueReusesBuffer(t *testing.T) {
	src := `
VARIABLE hits IN 0 TO 63
ON ping(k IN 0 TO 15)
  IF k > 0 THEN hits <- hits + 1, !ping(k - 1);
  IF k = 0 THEN hits <- hits + 1;
END ping;
`
	c := mustAnalyze(t, src)
	m := NewMachine(c, nil)
	m.Post("ping", rules.IntVal(15))
	if _, err := m.RunToQuiescence(100); err != nil {
		t.Fatal(err)
	}
	if m.Pending() != 0 || len(m.queue) != 0 || m.qhead != 0 {
		t.Fatalf("queue not recycled: len=%d qhead=%d", len(m.queue), m.qhead)
	}
	if cap(m.queue) == 0 {
		t.Fatal("drained queue should keep its capacity")
	}
	p0 := &m.queue[:1][0]
	for round := 0; round < 8; round++ {
		m.Post("ping", rules.IntVal(15))
		if _, err := m.RunToQuiescence(100); err != nil {
			t.Fatal(err)
		}
	}
	if p1 := &m.queue[:1][0]; p0 != p1 {
		t.Fatal("cascade of equal depth should reuse the queue buffer")
	}
	v, _ := m.Get("hits")
	if v.I != 63 { // 9 rounds × 16, clamped to the domain
		t.Fatalf("hits = %d", v.I)
	}
}

// Pending must account for the consumed prefix while a cascade is in
// flight (observed through the dispatch hook).
func TestMachinePendingDuringCascade(t *testing.T) {
	src := `
VARIABLE hits IN 0 TO 15
ON ping(k IN 0 TO 7)
  IF k > 0 THEN hits <- hits + 1, !ping(k - 1);
  IF k = 0 THEN hits <- hits + 1;
END ping;
`
	c := mustAnalyze(t, src)
	m := NewMachine(c, nil)
	var pendings []int
	m.OnDispatch = func(_ string, pending int) { pendings = append(pendings, pending) }
	m.Post("ping", rules.IntVal(2))
	if _, err := m.RunToQuiescence(100); err != nil {
		t.Fatal(err)
	}
	// Each dispatch sees an empty queue (the cascade posts the next
	// event only after the hook runs).
	for i, p := range pendings {
		if p != 0 {
			t.Fatalf("dispatch %d: pending = %d", i, p)
		}
	}
	if len(pendings) != 3 {
		t.Fatalf("dispatches = %d", len(pendings))
	}
}

// Reset must return a pooled machine to the hardware reset state while
// keeping its allocations, so the residual slow path can reuse one
// scratch machine per decision.
func TestMachineReset(t *testing.T) {
	c := mustAnalyze(t, `
VARIABLE hits IN 0 TO 15
ON ping(k IN 0 TO 7)
  IF k > 0 THEN hits <- hits + 1, !ping(k - 1), !tell(k);
  IF k = 0 THEN hits <- hits + 1;
END ping;
`)
	m := NewMachine(c, nil)
	run := func() int64 {
		m.Post("ping", rules.IntVal(5))
		if _, err := m.RunToQuiescence(100); err != nil {
			t.Fatal(err)
		}
		v, _ := m.Get("hits")
		return v.I
	}
	first := run()
	if first != 6 {
		t.Fatalf("hits = %d", first)
	}
	if len(m.External) == 0 {
		t.Fatal("!tell should collect external events")
	}
	m.Reset()
	if v, _ := m.Get("hits"); v.I != 0 {
		t.Fatalf("Reset left hits = %d", v.I)
	}
	if m.Pending() != 0 || len(m.External) != 0 {
		t.Fatal("Reset left queued state")
	}
	if second := run(); second != first {
		t.Fatalf("post-Reset run diverged: %d vs %d", second, first)
	}
}

// A SUBBASE argument that itself calls a SUBBASE must not overwrite
// the arguments evaluated before it: pick(n, inc(m)) compares n with
// m+1, never m with m+1, on every input pair.
func TestDenseNestedSubbaseArguments(t *testing.T) {
	c := mustAnalyze(t, `
INPUT n IN 0 TO 7
INPUT m IN 0 TO 7
SUBBASE inc(x IN 0 TO 7)
  IF x < 7 THEN RETURN(x + 1);
  IF 1 = 1 THEN RETURN(0);
END inc;
SUBBASE pick(a IN 0 TO 7, b IN 0 TO 7)
  IF a > b THEN RETURN(1);
  IF 1 = 1 THEN RETURN(0);
END pick;
ON decide()
  IF pick(n, inc(m)) = 1 THEN RETURN(1);
  IF 1 = 1 THEN RETURN(0);
END decide;
`)
	cb, err := CompileBase(c, "decide", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	layout := NewInputLayout(c)
	dt, err := cb.CompileDense(layout)
	if err != nil {
		t.Fatal(err)
	}
	iv := NewInputVector(layout)
	machine := NewMachine(c, iv.Provider())
	sn, _ := layout.SlotOf("n")
	sm, _ := layout.SlotOf("m")
	for n := int64(0); n < 8; n++ {
		for m := int64(0); m < 8; m++ {
			iv.Begin()
			iv.Set(sn, n)
			iv.Set(sm, m)
			got, ok := dt.Lookup(iv)
			want, err := cb.LookupRule(nil, machine)
			if err != nil || !ok || got != want {
				t.Fatalf("n=%d m=%d: dense (%d, %v), reference (%d, %v)", n, m, got, ok, want, err)
			}
		}
	}
}

// A SUBBASE sees only its parameters: the caller's quantifier variable
// m must not stand in for the INPUT m that near reads, so FORALL m:
// near(m) = 1 is false here for every value of the input.
func TestDenseSubbaseScopeIsItsParameters(t *testing.T) {
	c := mustAnalyze(t, `
INPUT m IN 0 TO 3
SUBBASE near(x IN 0 TO 3)
  IF m = x THEN RETURN(1);
  IF 1 = 1 THEN RETURN(0);
END near;
ON decide()
  IF FORALL m IN 0 TO 3: near(m) = 1 THEN RETURN(1);
  IF 1 = 1 THEN RETURN(0);
END decide;
`)
	cb, err := CompileBase(c, "decide", CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	layout := NewInputLayout(c)
	dt, err := cb.CompileDense(layout)
	if err != nil {
		t.Fatal(err)
	}
	iv := NewInputVector(layout)
	machine := NewMachine(c, iv.Provider())
	sm, _ := layout.SlotOf("m")
	for m := int64(0); m < 4; m++ {
		iv.Begin()
		iv.Set(sm, m)
		got, ok := dt.Lookup(iv)
		want, err := cb.LookupRule(nil, machine)
		if err != nil || !ok || got != want || got != 1 {
			t.Fatalf("m=%d: dense (%d, %v), reference (%d, %v), want rule 1", m, got, ok, want, err)
		}
	}
}
