package network

import "sort"

// Deadlock analysis: the watchdog in Step flags missing progress; this
// file provides the precise check used by the test suite. A wormhole
// deadlock is a set of messages that are all "stuck" (none of their
// admissible next resources can ever free up without one of the others
// moving) and mutually wait on each other. We build the wait-for graph
// between messages and search for a cycle consisting solely of stuck
// messages — a certificate that the routing algorithm's channel
// dependency discipline was violated.

// waitEdges returns, for the message whose head sits at input (p,v) of
// node, the set of messages it currently waits on:
//
//   - unallocated head: the owners of every candidate output VC (the
//     head can proceed once ANY candidate frees, so the message only
//     counts as stuck when every candidate is owned or credit-less);
//   - allocated head without credits: the message whose flits sit at
//     the front of the full downstream buffer.
//
// stuck reports that the head cannot advance this cycle for want of a
// VC or a credit, and not merely behind its own worm. It is the one
// wait relation: FindDeadlockCycle searches its edges, and PostMortem
// lists every stuck head.
func (n *Network) waitEdges(node, p, v int) (edges []*Message, stuck bool) {
	lay := &n.lay
	i := lay.inIdx(node, p, v)
	ivc := &n.ins[i]
	if !ivc.routed() || ivc.eject() || ivc.unroutable() || ivc.n == 0 {
		return nil, false
	}
	me := ivc.curMsg
	if ivc.outPort < 0 {
		needCredit := n.alg.AllocNeedsCredit()
		for _, c := range n.candidates(i) {
			oi := lay.outIdx(node, c.Port, c.VC)
			out := &n.outs[oi]
			if out.free() {
				if !needCredit || out.credits > 0 {
					// A claimable candidate: not stuck (merely waiting
					// for switch allocation).
					return nil, false
				}
				// Free but credit-starved under a gated regime: VA will
				// not grant it; the head waits on the worm filling the
				// downstream buffer.
				if front := n.downstreamFront(node, c.Port, c.VC); front != nil && front != me {
					edges = append(edges, front)
				}
				continue
			}
			if out.ownerMsg != nil && out.ownerMsg != me {
				edges = append(edges, out.ownerMsg)
			}
		}
		return edges, true
	}
	if n.outs[lay.outIdx(node, int(ivc.outPort), int(ivc.outVC))].credits > 0 {
		return nil, false
	}
	// Blocked on a full downstream buffer: wait on the worm at its
	// front.
	front := n.downstreamFront(node, int(ivc.outPort), int(ivc.outVC))
	if front == me {
		// Blocked behind our own worm: pipeline backpressure, not a
		// deadlock by itself (the head has its own entry downstream).
		return nil, false
	}
	if front != nil {
		edges = []*Message{front}
	}
	return edges, true
}

// downstreamFront returns the message at the front of the input buffer
// fed by output (port, vc) of node, or nil when the port has no usable
// downstream buffer.
func (n *Network) downstreamFront(node, port, vc int) *Message {
	end := n.links[node*n.lay.ports+port]
	if end == noLink {
		return nil
	}
	return n.frontMsg(n.lay.inIdx(end.node(), end.port(), vc))
}

// FindDeadlockCycle searches the wait-for graph for a cycle of stuck
// messages and returns their IDs (nil when none exists). The check is
// conservative: a reported cycle is a real circular wait among
// messages none of which has a free alternative this cycle.
func (n *Network) FindDeadlockCycle() []int64 {
	// Collect the stuck-wait edges (cold path: full arena scan).
	adj := map[*Message][]*Message{}
	for node := 0; node < n.lay.nodes; node++ {
		for p := 0; p < n.lay.inPorts; p++ {
			for v := 0; v < n.lay.vcs; v++ {
				edges, stuck := n.waitEdges(node, p, v)
				if !stuck || len(edges) == 0 {
					continue
				}
				m := n.ins[n.lay.inIdx(node, p, v)].curMsg
				adj[m] = append(adj[m], edges...)
			}
		}
	}
	// DFS cycle search restricted to stuck messages.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[*Message]int{}
	var stack []*Message
	var cycle []*Message
	var dfs func(m *Message) bool
	dfs = func(m *Message) bool {
		color[m] = grey
		stack = append(stack, m)
		for _, w := range adj[m] {
			if _, isStuck := adj[w]; !isStuck {
				continue // waits on a message that can still move
			}
			switch color[w] {
			case white:
				if dfs(w) {
					return true
				}
			case grey:
				// Found a cycle: slice it out of the stack.
				for i := len(stack) - 1; i >= 0; i-- {
					cycle = append(cycle, stack[i])
					if stack[i] == w {
						break
					}
				}
				return true
			}
		}
		stack = stack[:len(stack)-1]
		color[m] = black
		return false
	}
	msgs := make([]*Message, 0, len(adj))
	for m := range adj {
		msgs = append(msgs, m)
	}
	sort.Slice(msgs, func(i, j int) bool { return msgs[i].ID < msgs[j].ID })
	for _, m := range msgs {
		if color[m] == white && dfs(m) {
			ids := make([]int64, len(cycle))
			for i, c := range cycle {
				ids[i] = c.ID
			}
			return ids
		}
	}
	return nil
}
