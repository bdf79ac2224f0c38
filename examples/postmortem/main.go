// Post-mortem example: attach the flight recorder (internal/trace) to
// a network, force a real wormhole deadlock, and let the watchdog's
// automatic post-mortem name the channel-wait cycle and the blocked
// packets. The same report plumbing powers `ftsim -postmortem DIR`.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

// clockwiseRing routes every message clockwise around the outer ring
// of a mesh on a single virtual channel — the textbook deadlock-prone
// discipline (a cyclic channel dependency with nothing to break it).
type clockwiseRing struct {
	routing.Defaults
	m *topology.Mesh
}

func (r *clockwiseRing) Name() string              { return "clockwise-ring" }
func (r *clockwiseRing) NumVCs() int               { return 1 }
func (r *clockwiseRing) Steps(routing.Request) int { return 1 }
func (r *clockwiseRing) UpdateFaults(*fault.Set)   {}

func (r *clockwiseRing) RouteAppend(req routing.Request, buf []routing.Candidate) []routing.Candidate {
	x, y := r.m.XY(req.Node)
	w, h := r.m.W, r.m.H
	var port int
	switch {
	case y == 0 && x < w-1:
		port = topology.East
	case x == w-1 && y < h-1:
		port = topology.North
	case y == h-1 && x > 0:
		port = topology.West
	default:
		port = topology.South
	}
	return append(buf, routing.Candidate{Port: port, VC: 0})
}

func main() {
	mesh := topology.NewMesh(3, 3)

	// 1. A flight recorder: one small ring buffer per node. Recording
	// is observation only — with a nil recorder the network runs the
	// exact same simulation.
	rec := trace.New(mesh.Nodes(), 64)

	// 2. The network, with the recorder attached and an automatic
	// post-mortem hook. The watchdog certifies a deadlock when no flit
	// moves for WatchdogCycles.
	var report *trace.Report
	net := network.New(network.Config{
		Graph:          mesh,
		Algorithm:      &clockwiseRing{m: mesh},
		BufDepth:       2,
		WatchdogCycles: 200,
		Recorder:       rec,
		OnPostMortem:   func(r *trace.Report) { report = r },
	})

	// 3. One long worm injected at each ring corner, each destined
	// "around its corner", so all four ring segments are claimed at
	// once and every head waits on the next worm's tail: a certain
	// circular wait.
	corners := []struct{ src, dst topology.NodeID }{
		{mesh.Node(0, 0), mesh.Node(2, 1)},
		{mesh.Node(2, 0), mesh.Node(1, 2)},
		{mesh.Node(2, 2), mesh.Node(0, 1)},
		{mesh.Node(0, 2), mesh.Node(1, 0)},
	}
	for _, c := range corners {
		net.Inject(c.src, c.dst, 24)
	}

	for i := 0; i < 600 && report == nil; i++ {
		net.Step()
	}
	if report == nil {
		log.Fatal("expected a deadlock post-mortem")
	}

	// 4. The human-readable summary names the circular wait and each
	// blocked packet's position, age and wait-for edges...
	fmt.Print(report.String())

	// ...and the full report (router snapshots plus the recorder's
	// event tail) serialises to JSON for offline analysis.
	f, err := os.CreateTemp("", "postmortem-*.json")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := report.WriteJSON(f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfull report (%d recorded events) written to %s\n",
		len(report.Events), f.Name())
}
