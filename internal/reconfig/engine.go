package reconfig

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/rulesets"
	"repro/internal/topology"
)

// The regime tags artifacts are stamped with (kept as package-local
// aliases so artifact.go does not need the routing import).
const (
	routingRegimeNAFTA  = routing.RegimeNAFTA
	routingRegimeRouteC = routing.RegimeRouteC
	routingRegimeMaze   = routing.RegimeMaze
	mazeMaxPorts        = routing.MazeMaxPorts
)

// NewEngine binds an artifact's tables to topology g and returns the
// decision engine: the rule-table adapter of the artifact's family,
// its ARON tables loaded from the serialized configuration data
// instead of an in-process table fill. The rule program source ships
// inside the artifact and is re-analysed here, so the loaded tables
// are validated against the exact program they were compiled from
// (core.LoadConfig re-derives the index layout and refuses any
// mismatch).
func NewEngine(art *Artifact, g topology.Graph) (routing.Algorithm, error) {
	if err := art.Validate(); err != nil {
		return nil, err
	}
	var meta []rulesets.BaseMeta
	switch art.Algorithm {
	case "nafta":
		if _, ok := g.(*topology.Mesh); !ok {
			return nil, fmt.Errorf("reconfig: nafta artifact needs a mesh topology, got %T", g)
		}
		meta = rulesets.NAFTAMeta
	case "routec":
		h, ok := g.(*topology.Hypercube)
		if !ok {
			return nil, fmt.Errorf("reconfig: routec artifact needs a hypercube topology, got %T", g)
		}
		if art.CubeDim != h.Dim {
			return nil, fmt.Errorf("reconfig: artifact compiled for a %d-cube, topology is a %d-cube", art.CubeDim, h.Dim)
		}
		meta = rulesets.RouteCMeta
	case "maze":
		if g.Ports() != art.Ports {
			return nil, fmt.Errorf("reconfig: maze artifact compiled for %d ports, %s has %d", art.Ports, g.Name(), g.Ports())
		}
		meta = rulesets.MazeMeta
	default:
		return nil, fmt.Errorf("reconfig: unknown algorithm %q", art.Algorithm)
	}
	prog, err := rulesets.Load(art.Name, art.Source, meta)
	if err != nil {
		return nil, fmt.Errorf("reconfig: artifact program: %w", err)
	}
	tables, err := art.bindTables(prog)
	if err != nil {
		return nil, err
	}
	switch art.Algorithm {
	case "nafta":
		return rulesets.NewRuleNAFTAFromProgram(g.(*topology.Mesh), prog, tables)
	case "routec":
		return rulesets.NewRuleRouteCFromProgram(g.(*topology.Hypercube), prog, tables)
	}
	return rulesets.NewRuleMazeFromProgram(g, prog, tables)
}

// bindTables loads every serialized decision table against the
// artifact's own analysed program.
func (a *Artifact) bindTables(prog *rulesets.Program) (map[string]*core.CompiledBase, error) {
	out := make(map[string]*core.CompiledBase, len(a.Bases))
	for _, bt := range a.Bases {
		cb, err := core.LoadConfig(prog.Checked, bytes.NewReader(bt.Data))
		if err != nil {
			return nil, fmt.Errorf("reconfig: table %s: %w", bt.Name, err)
		}
		if cb.Base != bt.Name {
			return nil, fmt.Errorf("reconfig: table slot %s holds configuration for %s", bt.Name, cb.Base)
		}
		out[bt.Name] = cb
	}
	return out, nil
}
