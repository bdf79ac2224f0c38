package rulesets

import (
	"fmt"
	"strings"
)

// The Maze-routing rule program. Unlike NAFTA (fixed 2-D mesh
// directions) the maze family runs on meshes, tori and irregular
// graphs, so the program is generated for the bound graph's port count.
// All geometric work — productive-port computation, the right-hand
// wall-follow rule, the traversal loop/budget heuristic and the
// up*/down* escape legality — happens in the native engine's
// information units (routing.Maze.Facts); the rule bases see the
// paper-style pre-digested signals and make the actual decision:
//
//	mode    per-message state machine: 0 normal, 1 traversal, 2 escape
//	done    traversal declared disconnection (loop heuristic or budget)
//	exitok  traversal may exit to normal mode (strictly closer + productive)
//	wall    the wall-follow port of this decision (dirs = no usable port)
//	prod    per-port: usable and strictly productive toward the destination
//	escok   per-port: legal up*/down* escape hop under the current phase
//
// maze_move picks the VC0 maze move; maze_escape picks the VC1 escape
// hop offered alongside every move (Duato). Every rule returns a
// constant port, so both bases fold completely into dense tables.
func mazeDecls(ports int) string {
	return fmt.Sprintf(`
-- Maze-routing for arbitrary graphs of %d ports: declarations
CONSTANT dirs = %d

-- message interface (header state machine, pre-digested)
INPUT mode IN 0 TO 2
INPUT done IN 0 TO 1
INPUT exitok IN 0 TO 1
INPUT wall IN 0 TO %d

-- information units (per-port geometry and escape knowledge)
INPUT prod (dirs) IN 0 TO 1
INPUT escok (dirs) IN 0 TO 1
`, ports, ports, ports)
}

// mazeBases enumerates the decision rules per port, in strict priority
// order; the native engine mirrors this order exactly (see
// routing.Maze), which the differential and fuzz tests lean on.
func mazeBases(ports int) string {
	var b strings.Builder
	b.WriteString(`
-- The VC0 maze move: normal-mode productive moves first, then the
-- traversal entry (the wall port when nothing is productive), then the
-- traversal exit back to normal mode, then the wall-follow
-- continuation. A declared disconnection (done = 1) and escape mode
-- offer no move at all.
ON maze_move(invc IN 0 TO 1)
`)
	for p := 0; p < ports; p++ {
		fmt.Fprintf(&b, "  IF mode = 0 AND prod(%d) = 1 THEN RETURN(%d);\n", p, p)
	}
	for p := 0; p < ports; p++ {
		fmt.Fprintf(&b, "  IF mode = 0 AND wall = %d THEN RETURN(%d);\n", p, p)
	}
	for p := 0; p < ports; p++ {
		fmt.Fprintf(&b, "  IF mode = 1 AND done = 0 AND exitok = 1 AND prod(%d) = 1 THEN RETURN(%d);\n", p, p)
	}
	for p := 0; p < ports; p++ {
		fmt.Fprintf(&b, "  IF mode = 1 AND done = 0 AND wall = %d THEN RETURN(%d);\n", p, p)
	}
	b.WriteString("END maze_move;\n")
	b.WriteString(`
-- The VC1 escape hop, offered alongside every move: the first legal
-- up*/down* continuation in port order.
ON maze_escape(invc IN 0 TO 1)
`)
	for p := 0; p < ports; p++ {
		fmt.Fprintf(&b, "  IF escok(%d) = 1 THEN RETURN(%d);\n", p, p)
	}
	b.WriteString("END maze_escape;\n")
	return b.String()
}

// MazeSource is the complete Maze-routing rule program for a graph
// with the given port count.
func MazeSource(ports int) string { return mazeDecls(ports) + mazeBases(ports) }

// MazeMeta describes the maze rule bases in the Table-1 style.
var MazeMeta = []BaseMeta{
	{Name: "maze_move", Meaning: "maze move: productive, traversal entry/exit or wall-follow"},
	{Name: "maze_escape", Meaning: "up*/down* escape hop offered with every move"},
}

// MazeDecisionBases lists the rule bases the maze adapter consults per
// routing decision — the bases a reconfiguration artifact must carry
// tables for.
var MazeDecisionBases = []string{"maze_move", "maze_escape"}

// The Engine's indices of MazeDecisionBases.
const (
	mazeMove = iota
	mazeEscape
)

// LoadMaze parses and analyses the maze program for a port count.
func LoadMaze(ports int) (*Program, error) {
	return Load("MAZE", MazeSource(ports), MazeMeta)
}
