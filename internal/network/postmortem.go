package network

import "repro/internal/trace"

// livelockCheckInterval is how often (in cycles) the livelock age
// bound of Config.LivelockAgeCycles is evaluated. Sampling keeps the
// check off the per-cycle hot path; an age bound is always coarse, so
// detection latency of at most one interval is immaterial.
const livelockCheckInterval = 256

// PostMortem assembles a structured report of the current stall
// state: the certified channel-wait cycle (if any), every packet that
// cannot move, the full router/VC/credit snapshot of occupied
// channels and the flight-recorder tail. Reason is recorded verbatim
// ("deadlock", "livelock", "manual", ...).
func (n *Network) PostMortem(reason string) *trace.Report {
	rep := &trace.Report{
		Reason:    reason,
		Cycle:     n.now,
		WaitCycle: n.FindDeadlockCycle(),
	}
	// Blocked packets: every head the wait relation of
	// FindDeadlockCycle calls stuck, with the messages it waits on.
	lay := &n.lay
	for node := 0; node < lay.nodes; node++ {
		for p := 0; p < lay.inPorts; p++ {
			for v := 0; v < lay.vcs; v++ {
				waits, stuck := n.waitEdges(node, p, v)
				if !stuck {
					continue
				}
				ivc := &n.ins[lay.inIdx(node, p, v)]
				m := ivc.curMsg
				why := "no-credit"
				if ivc.outPort < 0 {
					why = "no-free-vc"
				}
				bp := trace.BlockedPacket{
					Msg: m.ID, Src: int64(m.Hdr.Src), Dst: int64(m.Hdr.Dst),
					Node: int64(node), InPort: p, InVC: v,
					OutPort: int(ivc.outPort), OutVC: int(ivc.outVC),
					Age: n.now - m.StartTime, Why: why,
				}
				for _, w := range waits {
					bp.WaitsOn = append(bp.WaitsOn, w.ID)
				}
				rep.Blocked = append(rep.Blocked, bp)
			}
		}
	}
	// Router snapshots: only routers holding flits or owned outputs,
	// and only their occupied channels — a full 16x16x5-VC dump would
	// bury the signal.
	for node := 0; node < lay.nodes; node++ {
		var rs trace.RouterState
		rs.Node = int64(node)
		for p := 0; p < lay.inPorts; p++ {
			for v := 0; v < lay.vcs; v++ {
				i := lay.inIdx(node, p, v)
				ivc := &n.ins[i]
				if ivc.n == 0 && !ivc.routed() {
					continue
				}
				st := trace.VCState{
					Port: p, VC: v, Flits: ivc.len(), Msg: -1,
					Routed: ivc.routed(), OutPort: int(ivc.outPort), OutVC: int(ivc.outVC),
					Eject: ivc.eject(), Unroutable: ivc.unroutable(),
				}
				if ivc.curMsg != nil {
					st.Msg = ivc.curMsg.ID
				} else if fm := n.frontMsg(i); fm != nil {
					st.Msg = fm.ID
				}
				rs.Inputs = append(rs.Inputs, st)
			}
		}
		for p := 0; p < lay.ports; p++ {
			for v := 0; v < lay.vcs; v++ {
				oi := lay.outIdx(node, p, v)
				out := &n.outs[oi]
				credits := int(out.credits)
				if out.ownerMsg == nil && credits == n.cfg.BufDepth {
					continue
				}
				st := trace.OutState{
					Port: p, VC: v, Owner: -1,
					Credits: credits, Remaining: int(out.remaining),
				}
				if out.ownerMsg != nil {
					st.Owner = out.ownerMsg.ID
				}
				rs.Outputs = append(rs.Outputs, st)
			}
		}
		if len(rs.Inputs) > 0 || len(rs.Outputs) > 0 {
			rep.Routers = append(rep.Routers, rs)
		}
	}
	if n.rec != nil {
		// The flight-recorder tail: everything still retained in the
		// rings (the last N events per node).
		rep.Events = n.rec.Events()
	}
	return rep
}

// deadlockPostMortem fires the automatic deadlock report (at most
// once per run) when the watchdog trips.
func (n *Network) deadlockPostMortem() {
	if n.rec != nil {
		cyc := n.FindDeadlockCycle()
		n.rec.Record(trace.Event{Cycle: n.now, Kind: trace.KDeadlock,
			Node: -1, Msg: -1, Port: -1, VC: -1, Arg: int32(len(cyc))})
	}
	if n.cfg.OnPostMortem == nil || n.pmFired {
		return
	}
	n.pmFired = true
	n.cfg.OnPostMortem(n.PostMortem("deadlock"))
}

// checkLivelock scans the in-network messages for one older than the
// configured age bound and fires the livelock post-mortem.
func (n *Network) checkLivelock() {
	bound := n.cfg.LivelockAgeCycles
	var oldest *Message
	var oldestNode int32
	for node := 0; node < n.lay.nodes; node++ {
		base := node * n.lay.inStride
		for slot := 0; slot < n.lay.inStride; slot++ {
			m := n.ins[base+slot].curMsg
			if m == nil {
				m = n.frontMsg(base + slot)
			}
			if m == nil || m.StartTime < 0 {
				continue
			}
			if n.now-m.StartTime > bound && (oldest == nil || m.StartTime < oldest.StartTime) {
				oldest = m
				oldestNode = int32(node)
			}
		}
	}
	if oldest == nil {
		return
	}
	if n.rec != nil {
		n.rec.Record(trace.Event{Cycle: n.now, Kind: trace.KLivelock,
			Node: oldestNode, Msg: oldest.ID, Port: -1, VC: -1,
			Arg: int32(n.now - oldest.StartTime)})
	}
	if n.cfg.OnPostMortem == nil || n.pmFired {
		return
	}
	n.pmFired = true
	n.cfg.OnPostMortem(n.PostMortem("livelock"))
}
