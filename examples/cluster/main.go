// Cluster: the paper's opening setting — a workstation cluster wired
// as an irregular switched network ("the nodes of clusters are
// distributed throughout rooms, so faults in the network may not be as
// rare as for dedicated parallel machines"). A random 24-switch fabric
// is routed with table-based up*/down* (the Spider-style approach the
// introduction contrasts with) and with the spanning-tree strawman; a
// switch dies mid-run and both must reconfigure.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func main() {
	fabric, err := topology.RandomIrregular(24, 12, 2026)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fabric: %s, %d switches, %d links, max degree %d\n",
		fabric.Name(), fabric.Nodes(), len(topology.Links(fabric)), fabric.Ports())

	victim := topology.NodeID(13)
	tb := metrics.NewTable("Irregular cluster fabric, 0.10 flits/node/cycle, switch 13 dies at cycle 1500",
		"algorithm", "reconfigurations", "killed", "delivered", "avg latency", "links used")

	tree, updown := routing.NewTree(fabric), routing.NewUpDown(fabric)
	for _, run := range []struct {
		alg      routing.Algorithm
		rebuilds *int // global reconfigurations so far
	}{{tree, &tree.Rebuilds}, {updown, &updown.Rebuilds}} {
		alg := run.alg
		net := network.New(network.Config{Graph: fabric, Algorithm: alg})
		f := fault.NewSet()
		gen := &traffic.Generator{
			Graph:   fabric,
			Pattern: traffic.Uniform{Nodes: fabric.Nodes()},
			Rate:    0.10,
			Length:  8,
			Rng:     rand.New(rand.NewSource(4)),
			Exclude: func(n topology.NodeID) bool { return f.NodeFaulty(n) },
		}
		for cycle := 0; cycle < 4000; cycle++ {
			if cycle == 1500 {
				f.FailNode(victim)
				net.ApplyFaults(f) // diagnosis + table rebuild
			}
			gen.Tick(net)
			net.Step()
		}
		if !net.Drain(200000) {
			log.Fatalf("%s: network did not drain", alg.Name())
		}
		st := net.Stats()
		u := net.Utilization()
		tb.AddRow(alg.Name(), *run.rebuilds, st.Killed,
			fmt.Sprintf("%.3f", st.DeliveredRatio()),
			fmt.Sprintf("%.1f", st.AvgLatency()),
			fmt.Sprintf("%d/%d", u.UsedLinks, u.Links))
		if st.DeadlockSuspected {
			log.Fatalf("%s: deadlock suspected", alg.Name())
		}
	}
	fmt.Println(tb.String())
	fmt.Println("Both designs survive the dead switch only by global reconfiguration —")
	fmt.Println("the table rebuild the paper's flexible rule-based router avoids (its")
	fmt.Println("algorithms update local state; see examples/meshfaults and cmd/tables -exp E12).")
}
