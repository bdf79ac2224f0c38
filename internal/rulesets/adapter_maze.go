package rulesets

import (
	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/topology"
)

// RuleMaze is a routing.Algorithm whose Maze-routing decisions are made
// by the compiled maze rule program: maze_move selects the VC0 maze
// move (productive / traversal entry / exit / wall-follow) and
// maze_escape the VC1 up*/down* escape hop offered alongside it. The
// native routing.Maze instance plays the Information Units — it digests
// graph geometry, fault knowledge and the header state machine into the
// program's input signals and keeps owning fault fixpoints and the
// unreachable verdict — while every per-message candidate flows through
// the rule tables, mirroring the RuleNAFTA execution model; the facts
// the inputs were filled from give each candidate's header update.
//
// Decisions run on the embedded Engine.
type RuleMaze struct {
	Engine
	native *routing.Maze
	slots  mazeSlots // immutable after construction
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

// NewRuleMazeFromProgram binds an already analysed maze program to
// graph g; one generated for another port count than g's is refused.
// tables optionally supplies precompiled decision tables keyed by base
// name (e.g. from a reconfiguration artifact); missing entries are
// compiled in-process.
func NewRuleMazeFromProgram(g topology.Graph, p *Program, tables map[string]*core.CompiledBase) (*RuleMaze, error) {
	native, err := routing.NewMaze(g)
	if err != nil {
		return nil, err
	}
	r := &RuleMaze{native: native}
	s, ports := &r.slots, g.Ports()
	err = r.bind(native, p, tables, MazeDecisionBases, []place{
		{name: "mode", at: &s.mode}, {name: "done", at: &s.done},
		{name: "exitok", at: &s.exitok}, {name: "wall", at: &s.wall},
		{name: "prod", elems: ports, each: s.prod[:]},
		{name: "escok", elems: ports, each: s.escok[:]},
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

func (r *RuleMaze) Name() string { return "rule-maze" }

// fillInputs digests one decision into the program's input signals via
// the native engine's fact computation (no allocation), returning them.
func (r *RuleMaze) fillInputs(req routing.Request) routing.MazeFacts {
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
	return facts
}

// RouteAppend performs the decision through the compiled rule tables.
// An empty result means unroutable — for this family, a certified
// unreachable verdict (the native's UnreachableVerdict: the rule tables
// decide moves, the information units certify disconnection).
func (r *RuleMaze) RouteAppend(req routing.Request, buf []routing.Candidate) []routing.Candidate {
	facts := r.fillInputs(req)
	if port, ok := r.decide(req.Node, mazeMove, invc0, invc0D); ok {
		buf = append(buf, routing.Candidate{Port: int(port), VC: 0, Hop: facts.Hop(int(port), 0)})
	}
	if port, ok := r.decide(req.Node, mazeEscape, invc0, invc0D); ok {
		buf = append(buf, routing.Candidate{Port: int(port), VC: 1, Hop: facts.Hop(int(port), 1)})
	}
	return buf
}

var _ routing.Algorithm = (*RuleMaze)(nil)
