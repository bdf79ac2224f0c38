package network

import (
	"fmt"
	"math/bits"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Config parameterises a Network.
type Config struct {
	Graph     topology.Graph
	Algorithm routing.Algorithm
	// Selector picks among admissible outputs (default MinQueue, the
	// NAFTA adaptivity criterion).
	Selector routing.Selector
	// VCs is the number of virtual channels per physical link
	// (default Algorithm.NumVCs()).
	VCs int
	// BufDepth is the per-VC input buffer depth in flits (default 4, at
	// most 9: the ring lives in the VC's 64-byte slot record).
	BufDepth int
	// DecisionCyclesPerStep converts rule-interpretation steps into
	// router pipeline cycles (default 1); experiment E9 sweeps it.
	DecisionCyclesPerStep int
	// RecordMessages keeps every Message record for post-analysis
	// (costs memory on long runs).
	RecordMessages bool
	// WatchdogCycles flags a suspected deadlock after this many
	// cycles without any flit movement while messages are in flight
	// (default 10000).
	WatchdogCycles int64
	// FavorMarked biases the switch-allocation grant toward messages
	// marked as fault-detoured, compensating "the double disadvantage
	// of the longer path and higher loaded links" (paper, Section 3,
	// Scheduling and Fairness).
	FavorMarked bool
	// Recorder, when non-nil, attaches a flight recorder: every
	// pipeline, credit and fault event is recorded into its per-node
	// rings (and streamed to its sink, if any). With a nil Recorder
	// the simulator pays one nil-check per would-be event.
	Recorder *trace.Recorder
	// OnPostMortem, when non-nil, is invoked (at most once per run)
	// with a structured report when the watchdog suspects a deadlock
	// or a packet exceeds LivelockAgeCycles.
	OnPostMortem func(*trace.Report)
	// LivelockAgeCycles, when > 0, bounds the in-network age of any
	// packet: a packet older than this triggers the livelock
	// post-mortem. Checked every livelockCheckInterval cycles.
	LivelockAgeCycles int64

	// Compatibility block: Workers, ParallelActive and Close are kept for
	// bench/, which this PR may not edit; remove together with
	// network.par_step_ratio's second pass in the next benchmark PR. No
	// other package may use them. Workers is accepted and ignored: there
	// is one stepping path.
	Workers int
}

// ParallelActive always reports false (compatibility block).
func (n *Network) ParallelActive() bool { return false }

// Close is a no-op (compatibility block).
func (n *Network) Close() {}

// Stats aggregates network-level results.
type Stats struct {
	Cycles         int64
	Injected       int64
	Delivered      int64
	Dropped        int64
	Killed         int64
	FlitsDelivered int64
	HopsSum        int64
	StepsSum       int64
	MisroutesSum   int64
	MarkedCount    int64
	LatencySum     int64 // total latency (queue + network) of delivered
	NetLatencySum  int64 // network-only latency of delivered
	MaxLatency     int64
	// Unreachable counts dropped messages whose drop was a certified
	// unreachability verdict: the routing algorithm's
	// UnreachableVerdict confirmed, at the failing decision, that the
	// destination is disconnected from the deciding node on the
	// post-fault graph. The guaranteed-delivery campaign oracle
	// requires Dropped == Unreachable for the maze family (zero
	// sacrifices).
	Unreachable int64
	// DeadlockSuspected is set by the watchdog; the test suite treats
	// it as a failure.
	DeadlockSuspected bool
}

// AvgLatency returns the mean total latency of delivered messages.
func (s *Stats) AvgLatency() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.Delivered)
}

// AvgNetLatency returns the mean network latency of delivered
// messages.
func (s *Stats) AvgNetLatency() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.NetLatencySum) / float64(s.Delivered)
}

// Throughput returns delivered flits per node per cycle.
func (s *Stats) Throughput(nodes int) float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.FlitsDelivered) / float64(s.Cycles) / float64(nodes)
}

// AvgSteps returns mean interpreter steps per delivered message.
func (s *Stats) AvgSteps() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.StepsSum) / float64(s.Delivered)
}

// DeliveredRatio returns delivered/(delivered+dropped).
func (s *Stats) DeliveredRatio() float64 {
	t := s.Delivered + s.Dropped
	if t == 0 {
		return 1
	}
	return float64(s.Delivered) / float64(t)
}

// send describes one flit movement decided in the allocation phase and
// applied atomically at the end of the cycle.
type send struct {
	from int32 // source node
	slot int32 // its input slot; the output is the slot's allocation
}

// Network is the cycle-driven simulator instance.
type Network struct {
	cfg    Config
	g      topology.Graph
	alg    routing.Algorithm
	sel    routing.Selector
	faults *fault.Set
	// dead has bit node&63 of word node>>6 set for every failed node of
	// faults: the stages skip dead routers with one load instead of a
	// map lookup. ApplyFaults rebuilds it, and deadLinks (bit
	// node*ports+port for both ends of every failed link).
	dead      []uint64
	deadLinks []uint64
	now       int64
	nextID    int64

	// lay precomputes the record strides (see arena.go).
	lay layout
	// ins[lay.inIdx(node, port, vc)] are the slot records: port
	// 0..Ports()-1 are links, port Ports() is the injection pseudo-port
	// (its own VC array so an injected message can claim any VC class).
	ins []inputVC
	// cands[inIdx] are each slot's routing candidates from RC (empty +
	// routed means unroutable -> absorb); VA retries consume them.
	// candMore holds the lists too long to pack (candSet).
	cands    []candSet
	candMore map[int][]routing.Candidate
	// outs[lay.outIdx(node, port, vc)] are the output records, for the
	// link ports only.
	outs []outputVC
	// rtr holds the router records, lay.rStride words per node.
	rtr []uint64
	// msgs is the message table: msgs[i] is the in-flight message whose
	// flits carry index i; freeMsgs lists the unused indices.
	msgs     []*Message
	freeMsgs []int32
	// injQ[node] is the source queue of not-yet-started messages.
	injQ []msgQueue
	// links[node*lay.ports+port] is the far end of each output port:
	// the downstream node and the input port the link arrives at
	// there, noLink for an unconnected port. The topology is fixed, so
	// the cold paths read this table instead of asking the graph; the
	// per-flit stages read the copies in the slot and output records.
	links []linkEnd

	// Per-stage active sets (arena.go): exactly the slots with live
	// work, maintained incrementally via noteInput; their mask words are
	// in the router records.
	routeSet vcSet
	vaSet    vcSet
	saSet    vcSet
	drainSet vcSet
	injNodes nodeSet
	// ownNodes holds the nodes with at least one owned output VC (fault
	// surgery's walk).
	ownNodes nodeSet
	peaks    ActiveSetPeaks

	// epochs is non-nil when the algorithm hands out table epochs
	// (reconfig.Swapper); messages pin their admission epoch on
	// materialisation and release it when they leave the network.
	epochs epochSource

	inFlight int // messages materialised but not yet finished
	queued   int // messages waiting in injection queues

	lastProgress int64
	stats        Stats
	// rec mirrors cfg.Recorder; the hot-path guard is `rec != nil`.
	rec *trace.Recorder
	// pmFired ensures at most one automatic post-mortem per run.
	pmFired bool
	// Messages holds all records when cfg.RecordMessages is set.
	Messages []*Message
	// candScratch backs RC's RouteAppend, unpacked Network.candidates;
	// freeScratch allocStage's free-candidate filter; moveScratch
	// the per-cycle send list; nomVC[inPort] and reqScratch[outPort]
	// (input-port bits, left zeroed) switchNode's nominees.
	candScratch []routing.Candidate
	unpacked    []routing.Candidate
	freeScratch []routing.Candidate
	moveScratch []send
	nomVC       []int
	reqScratch  []uint64
}

// linkEnd is the far end of one output port, packed into one word
// (node<<8 | port); noLink marks an unconnected port.
type linkEnd uint32

const noLink = ^linkEnd(0)

func (l linkEnd) node() int { return int(l >> 8) }
func (l linkEnd) port() int { return int(l & 0xFF) }

// nodeDead reports whether node has failed (the dead mask's bit).
func (n *Network) nodeDead(node int) bool { return n.dead[node>>6]&(1<<(node&63)) != 0 }

// New builds a network simulator from cfg, applying defaults.
func New(cfg Config) *Network {
	if cfg.Graph == nil || cfg.Algorithm == nil {
		panic("network: Config needs Graph and Algorithm")
	}
	if cfg.VCs == 0 {
		cfg.VCs = cfg.Algorithm.NumVCs()
	}
	if cfg.VCs < cfg.Algorithm.NumVCs() {
		panic(fmt.Sprintf("network: %s needs %d VCs, config provides %d",
			cfg.Algorithm.Name(), cfg.Algorithm.NumVCs(), cfg.VCs))
	}
	if cfg.BufDepth == 0 {
		cfg.BufDepth = 4
	}
	if cfg.BufDepth < 0 || cfg.BufDepth > ringCap {
		panic(fmt.Sprintf("network: BufDepth %d out of range [1, %d] (a VC's ring lives in its 64-byte slot record)",
			cfg.BufDepth, ringCap))
	}
	if cfg.DecisionCyclesPerStep == 0 {
		cfg.DecisionCyclesPerStep = 1
	}
	if cfg.Selector == nil {
		cfg.Selector = routing.MinQueue{}
	}
	if cfg.WatchdogCycles == 0 {
		cfg.WatchdogCycles = 10000
	}
	n := &Network{
		cfg:    cfg,
		g:      cfg.Graph,
		alg:    cfg.Algorithm,
		sel:    cfg.Selector,
		faults: fault.NewSet(),
		rec:    cfg.Recorder,
	}
	n.lay = newLayout(cfg.Graph.Nodes(), cfg.Graph.Ports(), cfg.VCs)
	lay := &n.lay
	n.ins = make([]inputVC, lay.nodes*lay.inStride)
	n.outs = make([]outputVC, lay.nodes*lay.outStride)
	n.rtr = make([]uint64, lay.nodes*lay.rStride)
	n.injQ = make([]msgQueue, lay.nodes)
	n.dead = make([]uint64, (lay.nodes+63)/64)
	n.deadLinks = make([]uint64, (lay.nodes*lay.ports+63)/64)
	if lay.ports > 1<<8 || lay.nodes >= 1<<24 {
		panic(fmt.Sprintf("network: %s has %d nodes of %d ports, the link table packs 2^24-1 nodes of 256 ports",
			n.g.Name(), lay.nodes, lay.ports))
	}
	n.links = make([]linkEnd, lay.nodes*lay.ports)
	for node := 0; node < lay.nodes; node++ {
		for p := 0; p < lay.ports; p++ {
			down := n.g.Neighbor(topology.NodeID(node), p)
			if down == topology.Invalid {
				n.links[node*lay.ports+p] = noLink
				continue
			}
			dp, ok := n.g.PortTo(down, topology.NodeID(node))
			if !ok {
				panic(fmt.Sprintf("network: inconsistent topology %s: port %d of node %d leads to node %d, which has no port back",
					n.g.Name(), p, node, down))
			}
			n.links[node*lay.ports+p] = linkEnd(down)<<8 | linkEnd(dp)
		}
	}
	for i := range n.ins {
		n.ins[i].resetRoute()
		n.ins[i].up = -1
	}
	for node := 0; node < lay.nodes; node++ {
		for v := 0; v < lay.vcs; v++ {
			n.ins[lay.inIdx(node, lay.ports, v)].flags = vcInject
		}
	}
	// Each output record names its downstream slot, and that slot names
	// the output back: the per-flit stages never read the link table.
	for node := 0; node < lay.nodes; node++ {
		for p := 0; p < lay.ports; p++ {
			end := n.links[node*lay.ports+p]
			for v := 0; v < lay.vcs; v++ {
				oi := lay.outIdx(node, p, v)
				out := &n.outs[oi]
				out.owner = -1
				out.credits = int16(cfg.BufDepth)
				out.downNode = -1
				n.setCredit(node, p*lay.vcs+v, true)
				if end == noLink {
					continue
				}
				out.downNode = int32(end.node())
				out.downSlot = int16(end.port()*lay.vcs + v)
				n.ins[lay.inIdx(end.node(), end.port(), v)].up = int32(oi)
			}
		}
	}
	n.cands = make([]candSet, len(n.ins))
	n.routeSet = newVCSet(n.rtr, lay, kRoute)
	n.vaSet = newVCSet(n.rtr, lay, kVA)
	n.saSet = newVCSet(n.rtr, lay, kSA)
	n.drainSet = newVCSet(n.rtr, lay, kDrain)
	n.injNodes = newNodeSet(lay.nodes)
	n.ownNodes = newNodeSet(lay.nodes)
	n.nomVC = make([]int, lay.inPorts)
	n.reqScratch = make([]uint64, lay.ports)
	if n.rec != nil {
		n.rec.SetClock(n.Now)
	}
	n.attachEngine(cfg.Algorithm)
	return n
}

// admit gives a materialising message its message-table index.
func (n *Network) admit(m *Message) int32 {
	if k := len(n.freeMsgs); k > 0 {
		m.idx = n.freeMsgs[k-1]
		n.freeMsgs = n.freeMsgs[:k-1]
		n.msgs[m.idx] = m
	} else {
		m.idx = int32(len(n.msgs))
		n.msgs = append(n.msgs, m)
	}
	return m.idx
}

// retire frees the table index of a message that left the network.
func (n *Network) retire(m *Message) {
	n.msgs[m.idx] = nil
	n.freeMsgs = append(n.freeMsgs, m.idx)
}

// frontMsg returns the message of input i's front flit, or nil.
func (n *Network) frontMsg(i int) *Message {
	if n.ins[i].n == 0 {
		return nil
	}
	return n.msgs[n.ins[i].front().msg()]
}

// resetRoute clears input i's route state and candidates.
func (n *Network) resetRoute(i int) {
	n.ins[i].resetRoute()
	n.cands[i].pv[0] = 0
}

// candSet is one slot's routing candidates, packed so that RC and VA
// touch 36 bytes rather than a slice header and its array: pv[0] is the
// count, pv[1:pv[0]+1] the candidates as port<<8|vc, ops[:pv[0]] their
// header updates' Ops and stamp the Stamp of the decision (one per
// decision, see routing.Hop). A decision with more than candInline
// candidates keeps them in Network.candMore instead.
type candSet struct {
	pv    [candInline + 1]uint16
	ops   [candInline]routing.HopOps
	stamp uint32
}

const candInline = 7

// setCands stores cs as input i's candidates.
func (n *Network) setCands(i int, cs []routing.Candidate) {
	c := &n.cands[i]
	c.pv[0] = uint16(len(cs))
	if len(cs) > candInline {
		if n.candMore == nil {
			n.candMore = map[int][]routing.Candidate{}
		}
		n.candMore[i] = append(n.candMore[i][:0], cs...)
		return
	}
	for k, cand := range cs {
		c.pv[k+1] = uint16(cand.Port<<8 | cand.VC)
		c.ops[k], c.stamp = cand.Hop.Ops, cand.Hop.Stamp
	}
}

// candidates returns input i's candidates, unpacked into a scratch
// buffer that the next call reuses; the caller must not write to it.
func (n *Network) candidates(i int) []routing.Candidate {
	c := &n.cands[i]
	if c.pv[0] > candInline {
		return n.candMore[i]
	}
	buf := n.unpacked[:0]
	for k, pv := range c.pv[1 : c.pv[0]+1] {
		buf = append(buf, routing.Candidate{Port: int(pv >> 8), VC: int(pv & 0xFF),
			Hop: routing.Hop{Ops: c.ops[k], Stamp: c.stamp}})
	}
	n.unpacked = buf
	return buf
}

// Now returns the current cycle.
func (n *Network) Now() int64 { return n.now }

// Stats returns a snapshot of the aggregated statistics.
func (n *Network) Stats() Stats {
	s := n.stats
	s.Cycles = n.now
	return s
}

// InFlight returns the number of messages materialised in the network.
func (n *Network) InFlight() int { return n.inFlight }

// Queued returns the number of messages waiting in injection queues.
func (n *Network) Queued() int { return n.queued }

// Idle reports whether no messages are queued or in flight.
func (n *Network) Idle() bool { return n.inFlight == 0 && n.queued == 0 }

// Inject enqueues a new message at src destined to dst with the given
// flit length (>= 2). It returns the message record.
func (n *Network) Inject(src, dst topology.NodeID, length int) *Message {
	if length < 2 {
		length = 2
	}
	m := &Message{
		ID:         n.nextID,
		Hdr:        routing.Header{Src: src, Dst: dst, Length: length},
		InjectTime: n.now,
		StartTime:  -1,
		DoneTime:   -1,
		DropInPort: -1,
		DropInVC:   -1,
		State:      StateQueued,
	}
	n.nextID++
	n.stats.Injected++
	n.injQ[src].buf = append(n.injQ[src].buf, m)
	n.injNodes.set(int(src), true)
	n.queued++
	if n.cfg.RecordMessages {
		n.Messages = append(n.Messages, m)
	}
	return m
}

// LoadView implementation (the Information Units of the router
// architecture: buffer exploitation per output).

// Credits returns the free downstream buffer slots of output
// (port,vc).
func (n *Network) Credits(node topology.NodeID, port, vc int) int {
	return int(n.outs[n.lay.outIdx(int(node), port, vc)].credits)
}

// QueuedFlits returns the data volume still to pass output (port,vc).
func (n *Network) QueuedFlits(node topology.NodeID, port, vc int) int {
	total := 0
	base := n.lay.outIdx(int(node), port, 0)
	for v := 0; v < n.cfg.VCs; v++ {
		total += int(n.outs[base+v].remaining)
	}
	return total
}

var _ routing.LoadView = (*Network)(nil)

// Step advances the simulation by one cycle.
func (n *Network) Step() {
	n.injectStage()
	n.routeStage()
	n.allocStage()
	moves := n.switchStage()
	progress := n.applyMoves(moves)
	if n.drainStage() {
		progress = true
	}
	if progress {
		n.lastProgress = n.now
	} else if n.inFlight > 0 && n.now-n.lastProgress > n.cfg.WatchdogCycles {
		if !n.stats.DeadlockSuspected {
			n.stats.DeadlockSuspected = true
			n.deadlockPostMortem()
		}
	}
	if n.cfg.LivelockAgeCycles > 0 && n.now%livelockCheckInterval == 0 {
		n.checkLivelock()
	}
	if n.now&63 == 0 {
		n.samplePeaks()
	}
	n.now++
}

// Run advances the simulation by the given number of cycles.
func (n *Network) Run(cycles int64) {
	for i := int64(0); i < cycles; i++ {
		n.Step()
	}
}

// Drain runs until the network is idle or maxCycles elapse; it returns
// true when fully drained.
func (n *Network) Drain(maxCycles int64) bool {
	for i := int64(0); i < maxCycles; i++ {
		if n.Idle() {
			return true
		}
		n.Step()
	}
	return n.Idle()
}

// injectStage materialises the next queued message of every node with
// a non-empty injection queue into its injection pseudo-port when that
// port is empty.
func (n *Network) injectStage() {
	n.injNodes.forEach(func(node int) {
		if n.nodeDead(node) {
			return // killed separately in ApplyFaults
		}
		injSlot := n.lay.ports * n.lay.vcs // (injection pseudo-port, VC 0)
		idx := node*n.lay.inStride + injSlot
		ivc := &n.ins[idx]
		if ivc.n > 0 {
			return // previous message still streaming
		}
		m := n.injQ[node].popFront()
		if len(n.injQ[node].pending()) == 0 {
			n.injNodes.set(node, false)
		}
		m.StartTime = n.now
		m.State = StateInFlight
		if n.epochs != nil {
			m.Hdr.Epoch = n.epochs.AdmitEpoch()
		}
		ivc.load(n.admit(m), m.Hdr.Length)
		n.resetRoute(idx)
		n.noteInput(node, injSlot)
		n.queued--
		n.inFlight++
		if n.rec != nil {
			n.rec.Record(trace.Event{Cycle: n.now, Kind: trace.KFlitInjected,
				Node: int32(node), Msg: m.ID, Port: -1, VC: -1, Arg: int32(m.Hdr.Length)})
		}
	})
}

// routeStage performs RC for every input VC whose front flit is an
// unrouted head — exactly the routeSet membership.
func (n *Network) routeStage() {
	n.routeSet.forEach(func(node, slot int) {
		if n.nodeDead(node) {
			return
		}
		idx := node*n.lay.inStride + slot
		ivc := &n.ins[idx]
		m := n.msgs[ivc.front().msg()]
		ivc.curMsg = m
		if m.Hdr.Dst == topology.NodeID(node) {
			ivc.flags |= vcRouted | vcEject
			ivc.decisionReady = n.now
			n.noteInput(node, slot)
			return
		}
		p, v := n.lay.portVC(slot)
		inPort := p
		if p == n.lay.ports {
			inPort = routing.InjectionPort
		}
		req := routing.Request{Node: topology.NodeID(node), InPort: inPort, InVC: v, Hdr: &m.Hdr}
		steps := n.alg.Steps(req)
		m.Steps += steps
		cands := n.alg.RouteAppend(req, n.candScratch[:0])
		n.candScratch = cands[:0]
		n.setCands(idx, cands)
		unroutable := len(cands) == 0
		ivc.flags |= vcRouted // unroutable is clear: the slot was unrouted
		if unroutable {
			ivc.flags |= vcUnroutable
		}
		if unroutable && n.alg.UnreachableVerdict(req) {
			m.Unreachable = true
		}
		ivc.decisionReady = n.now + int64(steps*n.cfg.DecisionCyclesPerStep)
		n.noteInput(node, slot)
		if n.rec != nil {
			kind := trace.KRouteComputed
			if unroutable {
				kind = trace.KUnroutable
			}
			n.rec.Record(trace.Event{Cycle: n.now, Kind: kind,
				Node: int32(node), Msg: m.ID, Port: int16(p), VC: int16(v),
				Arg: int32(len(cands))})
		}
	})
}

// allocStage performs VA: routed-but-unallocated inputs (the vaSet)
// try to claim a free output VC among their candidates, guided by the
// selector. A head that finds every candidate owned sleeps (its wait
// bit) until an output VC of its node is released.
func (n *Network) allocStage() {
	// Credit-gated regimes (Algorithm.AllocNeedsCredit) must not
	// commit a head to an output VC with no downstream credit: their
	// escape argument needs blocked heads to keep re-arbitrating.
	needCredit := n.alg.AllocNeedsCredit()
	n.vaSet.forEachExcept(n.lay.maskOff[kWait], func(node, slot int) {
		if n.nodeDead(node) {
			return
		}
		idx := node*n.lay.inStride + slot
		ivc := &n.ins[idx]
		if n.now < ivc.decisionReady {
			return
		}
		free := n.freeScratch[:0]
		unowned := false
		for _, c := range n.candidates(idx) {
			// The owned mask sits in the router record VA already reads;
			// the output records stay untouched until the claim.
			if o := c.Port*n.lay.vcs + c.VC; !n.owned(node, o) {
				unowned = true
				if !needCredit || n.hasCredit(node, o) {
					free = append(free, c)
				}
			}
		}
		n.freeScratch = free[:0] // selectors do not retain the slice
		if len(free) == 0 {
			if !unowned {
				n.rtr[n.lay.mask(kWait, node, slot)] |= 1 << (slot & 63)
			}
			return
		}
		m := n.frontMsg(idx)
		chosen := n.sel.Select(n, topology.NodeID(node), free, &m.Hdr)
		routing.ApplyHop(&m.Hdr, topology.NodeID(node), chosen)
		ivc.outPort, ivc.outVC = int8(chosen.Port), int8(chosen.VC)
		n.claimOutput(node, slot, chosen.Port*n.lay.vcs+chosen.VC, m)
		n.noteInput(node, slot)
		if n.rec != nil {
			n.rec.Record(trace.Event{Cycle: n.now, Kind: trace.KVCAllocated,
				Node: int32(node), Msg: m.ID, Port: int16(chosen.Port), VC: int16(chosen.VC)})
		}
	})
}

// switchStage performs SA: each input port nominates one VC, each
// output port grants one nominee; the result is the list of flit
// movements of this cycle. Only nodes in the saSet (some input holds
// an allocated output with flits queued) can nominate, so inactive
// routers are skipped wholesale.
func (n *Network) switchStage() []send {
	moves := n.moveScratch[:0]
	n.saSet.forEachNode(func(node int) {
		if n.nodeDead(node) {
			return
		}
		moves = n.switchNode(node, moves)
	})
	n.moveScratch = moves
	return moves
}

// switchNode runs nomination and grant for one active router,
// appending the granted movements to moves. Each input port nominates
// the first ready VC at or after its round-robin pointer: its field of
// the ready mask rotated by rrIn, lowest set bit. The credit-less SA
// members a VC-by-VC walk would pass before that nominee (all of them
// when nothing is ready) are the SA bits below it in the same rotation;
// the recorder's once-per-episode KFlitBlocked events come from those.
func (n *Network) switchNode(node int, moves []send) []send {
	lay := &n.lay
	vcs := lay.vcs
	inBase := node * lay.inStride
	rBase := node * lay.rStride
	readyBase := rBase + lay.maskOff[kReady]
	saBase := rBase + lay.maskOff[kSA]
	var opMask uint64 // output ports with at least one nominee
	// Visit the input ports with a ready member; with a recorder every
	// SA member's port, to note the blocking episodes.
	walkBase := readyBase
	if n.rec != nil {
		walkBase = saBase
	}
	for p := lay.nextPort(n.rtr, walkBase, 0); p >= 0; p = lay.nextPort(n.rtr, walkBase, p+1) {
		rr := n.rrIn(node, p)
		rot := lay.vcField(n.rtr, readyBase, p, rr)
		if n.rec != nil {
			blocked := lay.vcField(n.rtr, saBase, p, rr) &^ rot
			if rot != 0 {
				blocked &= rot&-rot - 1
			}
			for ; blocked != 0; blocked &= blocked - 1 {
				v := rr + bits.TrailingZeros64(blocked)
				if v >= vcs {
					v -= vcs
				}
				if ivc := &n.ins[inBase+p*vcs+v]; ivc.flags&vcBlockedNoted == 0 {
					ivc.flags |= vcBlockedNoted
					n.rec.Record(trace.Event{Cycle: n.now, Kind: trace.KFlitBlocked,
						Node: int32(node), Msg: ivc.curMsg.ID,
						Port: int16(ivc.outPort), VC: int16(ivc.outVC)})
				}
			}
			if rot == 0 {
				continue
			}
		}
		v := rr + bits.TrailingZeros64(rot)
		if v >= vcs {
			v -= vcs
		}
		n.nomVC[p] = v
		op := n.ins[inBase+p*vcs+v].outPort
		n.reqScratch[op] |= 1 << uint(p)
		opMask |= 1 << uint(op)
		if v++; v == vcs {
			v = 0
		}
		n.setRRIn(node, p, v)
	}
	// Grant: one input per output port, ascending.
	for ; opMask != 0; opMask &= opMask - 1 {
		op := bits.TrailingZeros64(opMask)
		req := n.reqScratch[op]
		n.reqScratch[op] = 0
		rr := n.rrOut(node, op)
		n.setRROut(node, op, rr+1)
		p := bits.TrailingZeros64(req)
		if req&(req-1) != 0 {
			p = n.pickNominee(req, rr, inBase)
		}
		moves = append(moves, send{int32(node), int32(p*vcs + n.nomVC[p])})
	}
	return moves
}

// pickNominee grants among several requesting input ports (the bits of
// req): the (rr mod count)-th in port order or, with FavorMarked, the
// first at or cyclically after it that carries a fault-detoured message
// (Section 3, Scheduling and Fairness).
func (n *Network) pickNominee(req uint64, rr, inBase int) int {
	hi := req // req without its (rr mod count) lowest ports
	for i := rr % bits.OnesCount64(req); i > 0; i-- {
		hi &= hi - 1
	}
	if n.cfg.FavorMarked {
		for _, part := range [2]uint64{hi, req &^ hi} {
			for ; part != 0; part &= part - 1 {
				p := bits.TrailingZeros64(part)
				if m := n.ins[inBase+p*n.lay.vcs+n.nomVC[p]].curMsg; m != nil && m.Hdr.Marked {
					return p
				}
			}
		}
	}
	return bits.TrailingZeros64(hi)
}

// applyMoves executes the collected sends: pop at the source, push at
// the downstream router, and maintain credits, ownership and message
// accounting. It reports whether any flit moved.
func (n *Network) applyMoves(moves []send) bool {
	lay := &n.lay
	for _, mv := range moves {
		node, srcSlot := int(mv.from), int(mv.slot)
		idx := node*lay.inStride + srcSlot
		ivc := &n.ins[idx]
		f := ivc.popFront()
		ivc.flags &^= vcBlockedNoted
		n.creditReturn(ivc)
		outPort, outVC := int(ivc.outPort), int(ivc.outVC)
		o := outPort*lay.vcs + outVC
		out := &n.outs[node*lay.outStride+o]
		if out.credits--; out.credits == 0 {
			n.setCredit(node, o, false)
		}
		out.remaining--
		out.sent++
		if f.head() {
			n.msgs[f.msg()].Hops++
		}
		// Deliver into the downstream input buffer. A push behind queued
		// flits changes no predicate of the slot; into an empty slot
		// that the worm's head has already allocated it can only make
		// the slot an SA member, ready if its output has a credit.
		downNode, downSlot := int(out.downNode), int(out.downSlot)
		dvc := &n.ins[downNode*lay.inStride+downSlot]
		dvc.pushBack(f)
		if dvc.n == 1 {
			if dvc.outPort >= 0 {
				n.saSet.set(downNode, downSlot, true)
				n.setReady(downNode, downSlot, n.hasCredit(downNode, int(dvc.outPort)*lay.vcs+int(dvc.outVC)))
			} else {
				n.noteInput(downNode, downSlot)
			}
		}
		if f.tail() {
			// The worm has fully left: release input route state and
			// output ownership, and wake the node's heads asleep in VA.
			n.resetRoute(idx)
			n.releaseOutput(node, o)
			wait := node*lay.rStride + lay.maskOff[kWait]
			clear(n.rtr[wait : wait+lay.wpn])
			if n.rec != nil {
				n.rec.Record(trace.Event{Cycle: n.now, Kind: trace.KVCFreed,
					Node: int32(node), Msg: n.msgs[f.msg()].ID,
					Port: int16(outPort), VC: int16(outVC)})
			}
			n.noteInput(node, srcSlot)
		} else if ivc.n == 0 {
			// Mid-worm the slot stays routed and allocated: it can only
			// leave SA (queue emptied) or lose readiness (last credit).
			n.saSet.set(node, srcSlot, false)
			n.setReady(node, srcSlot, false)
		} else if out.credits == 0 {
			n.setReady(node, srcSlot, false)
		}
	}
	return len(moves) > 0
}

// creditReturn gives one credit back, in the same cycle, to the
// upstream output of ivc (none for the injection pseudo-port and an
// unconnected port), from which a flit was just popped.
func (n *Network) creditReturn(ivc *inputVC) {
	up := ivc.up
	if up < 0 {
		return
	}
	if n.rec != nil {
		upNode := int(up) / n.lay.outStride
		upPort, v := n.lay.portVC(int(up) - upNode*n.lay.outStride)
		n.rec.Record(trace.Event{Cycle: n.now, Kind: trace.KCreditSent,
			Node: int32(upNode), Msg: -1, Port: int16(upPort), VC: int16(v)})
	}
	n.creditArrived(int(up))
}

// drainStage ejects delivered flits and absorbs unroutable messages
// (one flit per input VC per cycle) — exactly the drainSet membership,
// gated live on decisionReady. It reports whether anything drained.
func (n *Network) drainStage() bool {
	progress := false
	n.drainSet.forEach(func(node, slot int) {
		if n.nodeDead(node) {
			return
		}
		idx := node*n.lay.inStride + slot
		ivc := &n.ins[idx]
		if n.now < ivc.decisionReady {
			return
		}
		p, v := n.lay.portVC(slot)
		f := ivc.popFront()
		n.creditReturn(ivc)
		progress = true
		eject := ivc.eject()
		m := n.msgs[f.msg()]
		if eject {
			n.stats.FlitsDelivered++
			m.flitsEjected++
		}
		if f.tail() {
			m.DoneTime = n.now
			if n.rec != nil {
				kind := trace.KFlitDelivered
				if !eject {
					kind = trace.KFlitDropped
				}
				n.rec.Record(trace.Event{Cycle: n.now, Kind: kind,
					Node: int32(node), Msg: m.ID, Port: int16(p), VC: int16(v),
					Arg: int32(n.now - m.InjectTime)})
			}
			if eject {
				m.State = StateDelivered
				n.stats.Delivered++
				n.stats.HopsSum += int64(m.Hops)
				n.stats.StepsSum += int64(m.Steps)
				n.stats.MisroutesSum += int64(m.Hdr.Misroutes)
				if m.Hdr.Marked {
					n.stats.MarkedCount++
				}
				lat := m.Latency()
				n.stats.LatencySum += lat
				n.stats.NetLatencySum += m.NetworkLatency()
				if lat > n.stats.MaxLatency {
					n.stats.MaxLatency = lat
				}
			} else {
				m.State = StateDropped
				m.DropNode = topology.NodeID(node)
				m.DropInPort = p
				if p == n.lay.ports {
					m.DropInPort = routing.InjectionPort
				}
				m.DropInVC = v
				n.stats.Dropped++
				if m.Unreachable {
					n.stats.Unreachable++
				}
			}
			n.inFlight--
			if n.epochs != nil {
				n.epochs.ReleaseEpoch(m.Hdr.Epoch)
			}
			n.retire(m)
			n.resetRoute(idx)
		}
		n.noteInput(node, slot)
	})
	return progress
}
