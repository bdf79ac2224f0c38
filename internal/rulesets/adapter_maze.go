package rulesets

import (
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/rules"
	"repro/internal/topology"
)

// RuleMaze is a routing.Algorithm whose Maze-routing decisions are made
// by the compiled maze rule program: maze_move selects the VC0 maze
// move (productive / traversal entry / exit / wall-follow) and
// maze_escape the VC1 up*/down* escape hop offered alongside it. The
// native routing.Maze instance plays the Information Units — it digests
// graph geometry, fault knowledge and the header state machine into the
// program's input signals and keeps owning NoteHop, fault fixpoints and
// the unreachable verdict — while every per-message candidate flows
// through the rule tables, mirroring the RuleNAFTA execution model.
//
// Decisions run on the compiled dense fast path; decisions that leave
// the pure table regime fall back transparently to the interpreted
// reference path, and DisableFast forces that path everywhere (the
// differential and fuzz tests drive both and assert identical
// decisions).
type RuleMaze struct {
	g      topology.Graph
	native *routing.Maze
	prog   *Program
	move   *core.CompiledBase // maze_move
	esc    *core.CompiledBase // maze_escape
	faults *fault.Set

	// Fast-path state (see RuleNAFTA).
	iv          *core.InputVector
	moveD, escD *core.DenseTable
	scratch     *core.Machine
	slots       mazeSlots
	args        []rules.Value // constant [invc=0], reused across decisions
	dargs       []int64       // the same in fast-path convention

	// DisableFast forces every decision onto the interpreted reference
	// path (the oracle the differential tests compare against).
	DisableFast bool

	// Lookups counts table lookups (interpretation steps actually
	// executed).
	Lookups int64
	// OnRuleFired, when non-nil, observes every successful rule-table
	// lookup (deciding node, base name, fired rule index).
	OnRuleFired func(node topology.NodeID, base string, rule int)
}

// mazeSlots holds the input-vector slots of every signal the decision
// bases read, resolved once at construction. The per-port arrays are
// sized to the routing.MazeMaxPorts cap; only the first Ports() entries
// are live.
type mazeSlots struct {
	mode, done, exitok, wall int
	prod, escok              [routing.MazeMaxPorts]int
}

// NewRuleMaze builds the native maze engine for g, compiles the maze
// program for g's port count and binds the two.
func NewRuleMaze(g topology.Graph) (*RuleMaze, error) {
	p, err := LoadMaze(g.Ports())
	if err != nil {
		return nil, err
	}
	return NewRuleMazeFromProgram(g, p, nil)
}

// NewRuleMazeFromProgram binds an already analysed maze program (which
// must have been generated for g's port count) to graph g. tables
// optionally supplies precompiled decision tables keyed by base name
// (e.g. from a reconfiguration artifact); missing entries are compiled
// in-process.
func NewRuleMazeFromProgram(g topology.Graph, p *Program, tables map[string]*core.CompiledBase) (*RuleMaze, error) {
	native, err := routing.NewMaze(g)
	if err != nil {
		return nil, err
	}
	r := &RuleMaze{
		g:      g,
		native: native,
		prog:   p,
		faults: fault.NewSet(),
		args:   []rules.Value{rules.IntVal(0)},
		dargs:  []int64{0},
	}
	for _, b := range []struct {
		name string
		dst  **core.CompiledBase
	}{
		{MazeDecisionBases[0], &r.move},
		{MazeDecisionBases[1], &r.esc},
	} {
		cb := tables[b.name]
		if cb == nil {
			if cb, err = core.CompileBase(p.Checked, b.name, core.CompileOptions{}); err != nil {
				return nil, err
			}
		}
		*b.dst = cb
	}
	layout := core.NewInputLayout(p.Checked)
	r.iv = core.NewInputVector(layout)
	r.scratch = core.NewMachine(p.Checked, r.iv.Provider())
	// Dense compilation is best-effort: a nil table keeps the base on
	// the interpreter (same decisions, just slower).
	for _, b := range []struct {
		cb   *core.CompiledBase
		fast **core.DenseTable
	}{{r.move, &r.moveD}, {r.esc, &r.escD}} {
		if dt, err := b.cb.CompileDense(layout); err == nil {
			*b.fast = dt
		}
	}
	s := &r.slots
	for _, e := range []struct {
		name string
		dst  *int
	}{
		{"mode", &s.mode}, {"done", &s.done}, {"exitok", &s.exitok}, {"wall", &s.wall},
	} {
		if *e.dst, err = layout.SlotOf(e.name); err != nil {
			return nil, err
		}
	}
	for p := 0; p < g.Ports(); p++ {
		if s.prod[p], err = layout.SlotOf("prod", int64(p)); err != nil {
			return nil, err
		}
		if s.escok[p], err = layout.SlotOf("escok", int64(p)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// DeadlockRegime tags the adapter with the native maze discipline:
// rule and native engines implement the same VC scheme and are mutually
// hot-swappable.
func (r *RuleMaze) DeadlockRegime() string { return r.native.DeadlockRegime() }

// InvalidateTables retires the adapter's dense tables (see RuleNAFTA).
func (r *RuleMaze) InvalidateTables() {
	for _, dt := range []*core.DenseTable{r.moveD, r.escD} {
		if dt != nil {
			dt.Invalidate()
		}
	}
}

// FastPathActive reports whether both decision bases compiled to the
// dense fast path.
func (r *RuleMaze) FastPathActive() bool {
	return r.moveD != nil && r.escD != nil
}

func (r *RuleMaze) Name() string { return "rule-maze" }
func (r *RuleMaze) NumVCs() int  { return r.native.NumVCs() }

func (r *RuleMaze) Steps(req routing.Request) int { return r.native.Steps(req) }

func (r *RuleMaze) NoteHop(req routing.Request, chosen routing.Candidate) {
	r.native.NoteHop(req, chosen)
}

func (r *RuleMaze) UpdateFaults(f *fault.Set) {
	r.faults = f
	r.native.UpdateFaults(f)
}

// UnreachableVerdict forwards the native engine's component-table
// verdict (routing.UnreachableJudge): the rule tables decide moves, the
// information units certify disconnection.
func (r *RuleMaze) UnreachableVerdict(req routing.Request) bool {
	return r.native.UnreachableVerdict(req)
}

// AllocNeedsCredit forwards the native engine's credit-gated
// allocation requirement (routing.CreditGatedVA).
func (r *RuleMaze) AllocNeedsCredit() bool { return r.native.AllocNeedsCredit() }

// FlushOnFault forwards the native engine's reconfiguration flush
// (routing.ReconfigFlusher).
func (r *RuleMaze) FlushOnFault(h *routing.Header) bool { return r.native.FlushOnFault(h) }

// fillInputs digests one decision into the program's input signals via
// the native engine's fact computation (no allocation).
func (r *RuleMaze) fillInputs(req routing.Request) {
	facts := r.native.Facts(req)
	iv, s := r.iv, &r.slots
	iv.Begin()
	iv.Set(s.mode, int64(facts.Mode))
	iv.Set(s.done, int64(facts.Done))
	iv.Set(s.exitok, int64(facts.ExitOK))
	iv.Set(s.wall, int64(facts.Wall))
	for p := 0; p < facts.Ports; p++ {
		iv.Set(s.prod[p], int64(facts.Prod[p]))
		iv.Set(s.escok[p], int64(facts.EscOK[p]))
	}
}

// decide runs one rule base over the input vector (see decideBase).
func (r *RuleMaze) decide(req routing.Request, cb *core.CompiledBase, dt *core.DenseTable) (int, bool) {
	r.Lookups++
	if r.DisableFast {
		dt = nil
	}
	v, ok := decideBase(r.prog.Checked, cb, dt, r.iv, r.scratch, r.args, r.dargs, req.Node, r.OnRuleFired)
	return int(v), ok
}

// Route performs the decision through the compiled rule tables. An
// empty result means unroutable — for this family, a certified
// unreachable verdict (see UnreachableVerdict).
func (r *RuleMaze) Route(req routing.Request) []routing.Candidate {
	return r.RouteAppend(req, nil)
}

// RouteAppend is the allocation-free form of Route (BufferedAlgorithm).
func (r *RuleMaze) RouteAppend(req routing.Request, buf []routing.Candidate) []routing.Candidate {
	r.fillInputs(req)
	if port, ok := r.decide(req, r.move, r.moveD); ok {
		buf = append(buf, routing.Candidate{Port: port, VC: 0})
	}
	if port, ok := r.decide(req, r.esc, r.escD); ok {
		buf = append(buf, routing.Candidate{Port: port, VC: 1})
	}
	return buf
}

var _ routing.Algorithm = (*RuleMaze)(nil)
var _ routing.BufferedAlgorithm = (*RuleMaze)(nil)
var _ routing.UnreachableJudge = (*RuleMaze)(nil)
