package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Report is a structured post-mortem: everything needed to understand
// why a network stopped making progress, assembled at detection time.
// internal/network builds one automatically when its invariant checker
// detects a deadlock or a livelocked packet (see
// network.Config.OnPostMortem), and cmd/ftsim -postmortem persists it.
type Report struct {
	// Reason is "deadlock", "livelock" or "manual".
	Reason string `json:"reason"`
	// Cycle is the simulation cycle of detection.
	Cycle int64 `json:"cycle"`
	// WaitCycle lists the message IDs forming the certified circular
	// wait (deadlocks only; empty when only the watchdog fired). Each
	// member waits on the one listed before it, and the first on the
	// last.
	WaitCycle []int64 `json:"wait_cycle,omitempty"`
	// Blocked describes every packet that cannot currently move.
	Blocked []BlockedPacket `json:"blocked"`
	// Routers snapshots the per-router VC/credit state of all routers
	// holding flits or owned outputs.
	Routers []RouterState `json:"routers"`
	// Events is the flight-recorder tail (the last N cycles of
	// activity), empty when no recorder was attached.
	Events []Event `json:"events,omitempty"`
}

// BlockedPacket describes one packet that cannot advance.
type BlockedPacket struct {
	Msg     int64 `json:"msg"`
	Src     int64 `json:"src"`
	Dst     int64 `json:"dst"`
	Node    int64 `json:"node"` // router holding the head
	InPort  int   `json:"in_port"`
	InVC    int   `json:"in_vc"`
	OutPort int   `json:"out_port"` // -1 when VA has not granted yet
	OutVC   int   `json:"out_vc"`
	Age     int64 `json:"age"` // cycles since the head left the source queue
	// WaitsOn lists the message IDs this packet waits for (owners of
	// its candidate outputs, or the worm at the front of the full
	// downstream buffer).
	WaitsOn []int64 `json:"waits_on,omitempty"`
	// Why is "no-free-vc" (blocked in VA) or "no-credit" (allocated
	// but the downstream buffer is full).
	Why string `json:"why"`
}

// VCState snapshots one input virtual channel.
type VCState struct {
	Port       int   `json:"port"`
	VC         int   `json:"vc"`
	Flits      int   `json:"flits"`
	Msg        int64 `json:"msg"` // -1 when empty
	Routed     bool  `json:"routed"`
	OutPort    int   `json:"out_port"`
	OutVC      int   `json:"out_vc"`
	Eject      bool  `json:"eject,omitempty"`
	Unroutable bool  `json:"unroutable,omitempty"`
}

// OutState snapshots one output virtual channel.
type OutState struct {
	Port      int   `json:"port"`
	VC        int   `json:"vc"`
	Owner     int64 `json:"owner"` // owning message ID, -1 when free
	Credits   int   `json:"credits"`
	Remaining int   `json:"remaining"`
}

// RouterState snapshots one router's occupied channels.
type RouterState struct {
	Node    int64      `json:"node"`
	Inputs  []VCState  `json:"inputs,omitempty"`
	Outputs []OutState `json:"outputs,omitempty"`
}

// WriteJSON writes the report as indented JSON (event kinds appear by
// name; see Event.MarshalJSON).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// DecodeReport parses a report previously written with WriteJSON.
func DecodeReport(r io.Reader) (*Report, error) {
	rep := &Report{}
	if err := json.NewDecoder(r).Decode(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// String renders a human-readable post-mortem summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "POST-MORTEM: %s at cycle %d\n", r.Reason, r.Cycle)
	if len(r.WaitCycle) > 0 {
		fmt.Fprintf(&b, "circular wait among messages %v\n", r.WaitCycle)
	}
	fmt.Fprintf(&b, "%d blocked packet(s):\n", len(r.Blocked))
	blocked := append([]BlockedPacket(nil), r.Blocked...)
	sort.Slice(blocked, func(i, j int) bool { return blocked[i].Msg < blocked[j].Msg })
	for _, p := range blocked {
		fmt.Fprintf(&b, "  msg %d (%d->%d) at node %d in(%d,%d)", p.Msg, p.Src, p.Dst, p.Node, p.InPort, p.InVC)
		if p.OutPort >= 0 {
			fmt.Fprintf(&b, " out(%d,%d)", p.OutPort, p.OutVC)
		}
		fmt.Fprintf(&b, " age %d: %s", p.Age, p.Why)
		if len(p.WaitsOn) > 0 {
			fmt.Fprintf(&b, ", waits on %v", p.WaitsOn)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%d router(s) with occupied channels, %d recorded event(s)\n",
		len(r.Routers), len(r.Events))
	return b.String()
}
