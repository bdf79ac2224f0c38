// Package campaign is the randomized fault-injection conformance
// harness: it generates seeded fault scenarios per algorithm family,
// executes them in parallel on the internal/sim worker machinery, and
// checks a battery of oracles after each run — simulator invariants,
// flit conservation, justified-drop auditing against the native
// reference algorithm, watchdog/livelock cleanliness and fast-path vs
// interpreted-path agreement. When a scenario violates an oracle, a
// deterministic delta-debugging shrinker minimizes the fault set and
// schedule, and the result is emitted as a replayable JSON artifact.
//
// The drop oracle is deliberately local: a fault-tolerant algorithm
// like NAFTA legitimately sacrifices a small fraction of node pairs
// (the paper accepts ~1% undeliverable pairs under convex fault-block
// completion), so "every reachable pair delivers" would be a false
// oracle. Instead, every dropped message carries the exact decision
// site that absorbed it (node, in-port, in-VC and the final header);
// the oracle replays that single decision on the native reference
// implementation under the fault state reconstructed at drop time. A
// drop is a violation only when the reference still finds a candidate
// — which is precisely the signature of a broken rule table or
// adapter, never of a legitimate sacrifice.
package campaign

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/rulesets"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Algorithm family names accepted by Options.Algo and Scenario.Algo.
const (
	AlgoMaze   = "maze"
	AlgoNAFTA  = "nafta"
	AlgoRouteC = "routec"
)

// Algos lists the valid algorithm families (for CLI validation).
var Algos = []string{AlgoMaze, AlgoNAFTA, AlgoRouteC}

// TimedFault is one mid-run fault event of a scenario, in the
// JSON-friendly form the replay artifact stores.
type TimedFault struct {
	Time int64  `json:"time"`
	Kind string `json:"kind"` // "node" or "link"
	Node int    `json:"node,omitempty"`
	A    int    `json:"a,omitempty"`
	B    int    `json:"b,omitempty"`
}

// Scenario is one self-contained, replayable campaign case: topology,
// traffic parameters and the complete fault story (initial set plus
// timed events). Everything is plain data so a violating scenario
// round-trips through the JSON artifact byte-identically.
type Scenario struct {
	ID   int    `json:"id"`
	Algo string `json:"algo"`

	// Mesh dimensions (NAFTA family) or hypercube dimension (ROUTE_C
	// family); exactly one pair is set. The maze family additionally
	// runs on tori (TorusW/TorusH) and random irregular graphs
	// (IrrNodes/IrrExtra/IrrSeed) — exactly one topology group is set
	// per scenario.
	MeshW    int   `json:"mesh_w,omitempty"`
	MeshH    int   `json:"mesh_h,omitempty"`
	CubeDim  int   `json:"cube_dim,omitempty"`
	TorusW   int   `json:"torus_w,omitempty"`
	TorusH   int   `json:"torus_h,omitempty"`
	IrrNodes int   `json:"irr_nodes,omitempty"`
	IrrExtra int   `json:"irr_extra,omitempty"`
	IrrSeed  int64 `json:"irr_seed,omitempty"`

	Seed   int64   `json:"seed"` // traffic PRNG seed
	Rate   float64 `json:"rate"`
	Length int     `json:"length"`

	Warmup      int64 `json:"warmup"`
	Measure     int64 `json:"measure"`
	Drain       int64 `json:"drain"`
	LivelockAge int64 `json:"livelock_age"`

	FaultNodes []int        `json:"fault_nodes,omitempty"`
	FaultLinks [][2]int     `json:"fault_links,omitempty"`
	Events     []TimedFault `json:"events,omitempty"`

	// Swaps lists cycles (from simulation start) at which the decision
	// engine is hot-swapped for a freshly built engine of the same
	// family. A same-algorithm swap must be statistically invisible, so
	// the full oracle battery (and the differential check) runs across
	// the swaps unchanged.
	Swaps []int64 `json:"swaps,omitempty"`
}

// Graph builds the scenario's topology.
func (s *Scenario) Graph() (topology.Graph, error) {
	switch s.Algo {
	case AlgoNAFTA:
		if s.MeshW < 2 || s.MeshH < 2 {
			return nil, fmt.Errorf("campaign: scenario %d: bad mesh %dx%d", s.ID, s.MeshW, s.MeshH)
		}
		return topology.NewMesh(s.MeshW, s.MeshH), nil
	case AlgoRouteC:
		if s.CubeDim < 2 {
			return nil, fmt.Errorf("campaign: scenario %d: bad cube dim %d", s.ID, s.CubeDim)
		}
		return topology.NewHypercube(s.CubeDim), nil
	case AlgoMaze:
		switch {
		case s.TorusW >= 3 && s.TorusH >= 3:
			return topology.NewTorus(s.TorusW, s.TorusH), nil
		case s.IrrNodes > 0:
			return topology.RandomIrregular(s.IrrNodes, s.IrrExtra, s.IrrSeed)
		case s.MeshW >= 2 && s.MeshH >= 2:
			return topology.NewMesh(s.MeshW, s.MeshH), nil
		}
		return nil, fmt.Errorf("campaign: scenario %d: maze scenario without a topology", s.ID)
	}
	return nil, fmt.Errorf("campaign: scenario %d: unknown algo %q (valid: %v)", s.ID, s.Algo, Algos)
}

// FaultSet builds the initial fault set.
func (s *Scenario) FaultSet() *fault.Set {
	f := fault.NewSet()
	for _, n := range s.FaultNodes {
		f.FailNode(topology.NodeID(n))
	}
	for _, l := range s.FaultLinks {
		f.FailLink(topology.NodeID(l[0]), topology.NodeID(l[1]))
	}
	return f
}

// Schedule builds the mid-run fault schedule, or nil when the scenario
// has no timed events.
func (s *Scenario) Schedule() *fault.Schedule {
	if len(s.Events) == 0 {
		return nil
	}
	sc := fault.NewSchedule(nil)
	for _, e := range s.Events {
		switch e.Kind {
		case "node":
			sc.AddNodeFault(e.Time, topology.NodeID(e.Node))
		case "link":
			sc.AddLinkFault(e.Time, topology.NodeID(e.A), topology.NodeID(e.B))
		}
	}
	return sc
}

// FaultStateAt reconstructs the cumulative fault set at cycle t:
// the initial set plus every timed event with Time <= t. The drop
// oracle replays decisions under this state.
func (s *Scenario) FaultStateAt(t int64) *fault.Set {
	f := s.FaultSet()
	for _, e := range s.Events {
		if e.Time > t {
			continue
		}
		switch e.Kind {
		case "node":
			f.FailNode(topology.NodeID(e.Node))
		case "link":
			f.FailLink(topology.NodeID(e.A), topology.NodeID(e.B))
		}
	}
	return f
}

// atoms decomposes the scenario's fault story into independently
// removable units for the shrinker: each initial node fault, each
// initial link fault and each timed event is one atom.
func (s *Scenario) atoms() int { return len(s.FaultNodes) + len(s.FaultLinks) + len(s.Events) }

// withAtoms returns a copy of s keeping only the fault atoms whose
// index (in FaultNodes ++ FaultLinks ++ Events order) is in keep.
func (s *Scenario) withAtoms(keep []int) Scenario {
	c := *s
	c.FaultNodes = nil
	c.FaultLinks = nil
	c.Events = nil
	nn, nl := len(s.FaultNodes), len(s.FaultLinks)
	for _, i := range keep {
		switch {
		case i < nn:
			c.FaultNodes = append(c.FaultNodes, s.FaultNodes[i])
		case i < nn+nl:
			c.FaultLinks = append(c.FaultLinks, s.FaultLinks[i-nn])
		default:
			c.Events = append(c.Events, s.Events[i-nn-nl])
		}
	}
	return c
}

// AlgFactory builds the algorithm under test for one run. Tests inject
// deliberately broken wrappers here; the default factory builds the
// rule-table adapters (RuleNAFTA / RuleRouteC), with oracle selecting
// the interpreted reference path (DisableFast).
type AlgFactory func(s *Scenario, oracle bool) (routing.Algorithm, error)

// DefaultFactory is the production AlgFactory: the compiled rule-table
// adapter of the scenario's family, fast path on (oracle=false) or
// pinned to the interpreter (oracle=true).
func DefaultFactory(s *Scenario, oracle bool) (routing.Algorithm, error) {
	g, err := s.Graph()
	if err != nil {
		return nil, err
	}
	var alg rulesets.Adapter
	switch s.Algo {
	case AlgoNAFTA:
		alg, err = rulesets.NewRuleNAFTA(g.(*topology.Mesh))
	case AlgoRouteC:
		alg, err = rulesets.NewRuleRouteC(g.(*topology.Hypercube))
	case AlgoMaze:
		alg, err = rulesets.NewRuleMaze(g)
	default:
		return nil, fmt.Errorf("campaign: unknown algo %q (valid: %v)", s.Algo, Algos)
	}
	if err != nil {
		return nil, err
	}
	alg.RuleEngine().DisableFast = oracle
	return alg, nil
}

// reference builds the native reference implementation the drop oracle
// replays decisions on.
func reference(s *Scenario) (routing.Algorithm, error) {
	g, err := s.Graph()
	if err != nil {
		return nil, err
	}
	switch s.Algo {
	case AlgoNAFTA:
		return routing.NewNAFTA(g.(*topology.Mesh)), nil
	case AlgoRouteC:
		return routing.NewRouteC(g.(*topology.Hypercube)), nil
	case AlgoMaze:
		return routing.NewMaze(g)
	}
	return nil, fmt.Errorf("campaign: unknown algo %q", s.Algo)
}

// Options configures a campaign run.
type Options struct {
	Algo      string
	Scenarios int
	Seed      int64
	// Workers bounds the sim worker pool (<=0 selects GOMAXPROCS).
	Workers int
	// Differential additionally runs every scenario with the
	// interpreted oracle path and requires bit-identical statistics.
	Differential bool
	// Shrink runs the delta-debugging minimizer on every violating
	// scenario.
	Shrink bool
	// Factory overrides the algorithm construction (tests inject
	// broken wrappers); nil selects DefaultFactory.
	Factory AlgFactory
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

func (o *Options) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

func (o *Options) factory() AlgFactory {
	if o.Factory != nil {
		return o.Factory
	}
	return DefaultFactory
}

// Violation is one oracle failure of a scenario run.
type Violation struct {
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

func (v Violation) String() string { return v.Kind + ": " + v.Detail }

// ScenarioReport is the full account of one violating scenario.
type ScenarioReport struct {
	Scenario   Scenario    `json:"scenario"`
	Violations []Violation `json:"violations"`
	// Shrunk is the minimized scenario (nil when shrinking was off or
	// the violation vanished under re-execution).
	Shrunk *Scenario `json:"shrunk,omitempty"`
	// ShrunkViolations are the oracle failures of the minimized
	// scenario.
	ShrunkViolations []Violation `json:"shrunk_violations,omitempty"`
	// PostMortem is the stall report of the (unshrunk) run, when the
	// watchdog or livelock bound fired.
	PostMortem *trace.Report `json:"post_mortem,omitempty"`
}

// Outcome summarises a campaign.
type Outcome struct {
	Scenarios int              `json:"scenarios"`
	Reports   []ScenarioReport `json:"reports,omitempty"`
}

// Failed reports whether any scenario violated an oracle.
func (o *Outcome) Failed() bool { return len(o.Reports) > 0 }

// buildConfig assembles the sim.Config of one scenario run. The
// returned netSlot is filled with the run's network handle (via
// Config.OnNetwork) so the oracle pass can inspect the final state.
func buildConfig(s *Scenario, oracle bool, factory AlgFactory, netSlot **network.Network) (sim.Config, error) {
	g, err := s.Graph()
	if err != nil {
		return sim.Config{}, err
	}
	alg, err := factory(s, oracle)
	if err != nil {
		return sim.Config{}, err
	}
	// Hot-swap scenarios wrap the engine in the epoch swapper; each
	// swap installs a freshly built engine of the same family (the
	// swapper replays fault state and load view onto it).
	var reconfigs []sim.Reconfig
	if len(s.Swaps) > 0 {
		alg = reconfig.NewSwapper(alg)
		for _, at := range s.Swaps {
			reconfigs = append(reconfigs, sim.Reconfig{
				At:   at,
				Make: func() (routing.Algorithm, error) { return factory(s, oracle) },
			})
		}
	}
	cfg := sim.Config{
		Graph:             g,
		Algorithm:         alg,
		Rate:              s.Rate,
		Length:            s.Length,
		Seed:              s.Seed,
		Faults:            s.FaultSet(),
		FaultSchedule:     s.Schedule(),
		WarmupCycles:      s.Warmup,
		MeasureCycles:     s.Measure,
		DrainCycles:       s.Drain,
		LivelockAgeCycles: s.LivelockAge,
		Reconfigs:         reconfigs,
		TrackLatencies:    true, // the oracles audit per-message records
		Recorder:          trace.New(g.Nodes(), 64),
		OnNetwork: func(n *network.Network) {
			if netSlot != nil {
				*netSlot = n
			}
		},
	}
	return cfg, nil
}

// Evaluate runs one scenario through the full oracle battery and
// returns its violations (empty when clean). It is the sequential
// building block the shrinker's predicate and the replay path share
// with the parallel campaign driver.
func Evaluate(s *Scenario, opts *Options) ([]Violation, *trace.Report, error) {
	var net *network.Network
	cfg, err := buildConfig(s, false, opts.factory(), &net)
	if err != nil {
		return nil, nil, err
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	vio := checkRun(s, &res, net)
	if opts.Differential {
		vio = append(vio, checkDifferential(s, &res, net, opts.factory())...)
	}
	return vio, res.PostMortem, nil
}

// checkRun applies the post-run oracles to one completed simulation.
func checkRun(s *Scenario, res *sim.Result, net *network.Network) []Violation {
	var vio []Violation
	add := func(kind, format string, args ...any) {
		vio = append(vio, Violation{Kind: kind, Detail: fmt.Sprintf(format, args...)})
	}
	if net == nil {
		add("internal", "OnNetwork never fired; no network handle")
		return vio
	}
	if res.Stats.DeadlockSuspected {
		add("deadlock", "watchdog suspected a deadlock")
	}
	if res.PostMortem != nil {
		add("postmortem", "automatic %s report at cycle %d (%d blocked)",
			res.PostMortem.Reason, res.PostMortem.Cycle, len(res.PostMortem.Blocked))
	}
	if !res.Drained {
		add("not-drained", "network failed to empty within %d drain cycles (in-flight %d, queued %d)",
			s.Drain, net.InFlight(), net.Queued())
	}
	if err := net.CheckInvariants(); err != nil {
		add("invariants", "%v", err)
	}
	final := net.Stats()
	if res.Drained {
		if got := final.Delivered + final.Dropped + final.Killed; got != final.Injected {
			add("conservation", "injected %d != delivered %d + dropped %d + killed %d",
				final.Injected, final.Delivered, final.Dropped, final.Killed)
		}
	}
	var flits int64
	for _, m := range net.Messages {
		if m.State == network.StateDelivered {
			flits += int64(m.Hdr.Length)
		}
	}
	if flits != final.FlitsDelivered {
		add("flit-conservation", "delivered messages carry %d flits, stats say %d", flits, final.FlitsDelivered)
	}
	vio = append(vio, auditMessages(s, res, net)...)
	if s.Algo == AlgoMaze {
		vio = append(vio, checkDelivery(s, res, net)...)
	}
	return vio
}

// checkDelivery is the maze family's guaranteed-delivery oracle. Maze
// routing promises delivery-or-verdict: unlike NAFTA there are no
// tolerated sacrifices, so every dropped message must carry the
// explicit unreachability verdict, and the verdict must be true — the
// destination really is disconnected from the drop site under the
// fault state at drop time. Faults only accumulate, so unreachability
// at drop time implies unreachability at the decision that produced
// the verdict; a reachable destination at drop time therefore proves
// the verdict wrong. Killed messages are the livelock killer's, not
// the router's, and are already flagged by the post-mortem oracle.
func checkDelivery(s *Scenario, res *sim.Result, net *network.Network) []Violation {
	var vio []Violation
	g, err := s.Graph()
	if err != nil {
		return []Violation{{Kind: "internal", Detail: err.Error()}}
	}
	drops := make([]*network.Message, 0)
	for _, m := range net.Messages {
		if m.State == network.StateDropped {
			drops = append(drops, m)
		}
	}
	sort.SliceStable(drops, func(i, j int) bool { return drops[i].DoneTime < drops[j].DoneTime })
	var fs *fault.Set
	lastT := int64(-1)
	for _, m := range drops {
		if !m.Unreachable {
			vio = append(vio, Violation{Kind: "sacrifice",
				Detail: fmt.Sprintf("message %d (%d->%d) dropped at node %d cycle %d without an unreachability verdict",
					m.ID, m.Hdr.Src, m.Hdr.Dst, m.DropNode, m.DoneTime)})
			continue
		}
		if fs == nil || m.DoneTime != lastT {
			fs = s.FaultStateAt(m.DoneTime)
			lastT = m.DoneTime
		}
		if topology.Reachable(g, m.DropNode, m.Hdr.Dst, fs.Filter()) {
			vio = append(vio, Violation{Kind: "false-verdict",
				Detail: fmt.Sprintf("message %d (%d->%d) certified unreachable at node %d cycle %d, but the destination is reachable",
					m.ID, m.Hdr.Src, m.Hdr.Dst, m.DropNode, m.DoneTime)})
		}
	}
	if final := net.Stats(); final.Unreachable != final.Dropped {
		vio = append(vio, Violation{Kind: "verdict-accounting",
			Detail: fmt.Sprintf("%d drops but %d unreachability verdicts", final.Dropped, final.Unreachable)})
	}
	return vio
}

// auditMessages checks every message record: terminal state after a
// successful drain, and reference-justified drops.
func auditMessages(s *Scenario, res *sim.Result, net *network.Network) []Violation {
	var vio []Violation
	ref, err := reference(s)
	if err != nil {
		return []Violation{{Kind: "internal", Detail: err.Error()}}
	}
	// Group drops by drop time so the reference fault state is
	// recomputed once per distinct time, not once per message.
	drops := make([]*network.Message, 0)
	for _, m := range net.Messages {
		switch m.State {
		case network.StateDelivered, network.StateKilled:
		case network.StateDropped:
			drops = append(drops, m)
		default:
			if res.Drained {
				vio = append(vio, Violation{Kind: "stuck",
					Detail: fmt.Sprintf("message %d (%d->%d) non-terminal after drain (state %d)",
						m.ID, m.Hdr.Src, m.Hdr.Dst, m.State)})
			}
		}
	}
	sort.SliceStable(drops, func(i, j int) bool { return drops[i].DoneTime < drops[j].DoneTime })
	lastT := int64(-1)
	for _, m := range drops {
		if m.DoneTime != lastT {
			ref.UpdateFaults(s.FaultStateAt(m.DoneTime))
			lastT = m.DoneTime
		}
		hdr := m.Hdr // replay on a copy; RouteAppend must not mutate it anyway
		req := routing.Request{Node: m.DropNode, InPort: m.DropInPort, InVC: m.DropInVC, Hdr: &hdr}
		if s.Algo == AlgoMaze {
			// The maze family certifies unreachability, so a drop is
			// justified exactly by that verdict. (Replaying the route
			// would be wrong here: the maze header's traversal state is guarded
			// by an engine-local epoch stamp, which a freshly built
			// reference — whose own epoch counter advanced differently —
			// would misread as stale.)
			if !ref.UnreachableVerdict(req) {
				vio = append(vio, Violation{Kind: "unjustified-drop",
					Detail: fmt.Sprintf("message %d (%d->%d) dropped at node %d in=(%d,%d) cycle %d, but reference %s certifies the destination reachable",
						m.ID, m.Hdr.Src, m.Hdr.Dst, m.DropNode, m.DropInPort, m.DropInVC, m.DoneTime, ref.Name())})
			}
			continue
		}
		cands := ref.RouteAppend(req, nil)
		if len(cands) > 0 {
			vio = append(vio, Violation{Kind: "unjustified-drop",
				Detail: fmt.Sprintf("message %d (%d->%d) dropped at node %d in=(%d,%d) cycle %d, but reference %s offers %d candidate(s)",
					m.ID, m.Hdr.Src, m.Hdr.Dst, m.DropNode, m.DropInPort, m.DropInVC, m.DoneTime, ref.Name(), len(cands))})
		}
	}
	return vio
}

// checkDifferential re-runs the scenario on the interpreted oracle
// path and requires bit-identical statistics — the fast path must be
// an optimisation, never a behaviour change.
func checkDifferential(s *Scenario, fast *sim.Result, fastNet *network.Network, factory AlgFactory) []Violation {
	var net *network.Network
	cfg, err := buildConfig(s, true, factory, &net)
	if err != nil {
		return []Violation{{Kind: "internal", Detail: err.Error()}}
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return []Violation{{Kind: "sim-error", Detail: "oracle run: " + err.Error()}}
	}
	var vio []Violation
	if res.Stats != fast.Stats {
		vio = append(vio, Violation{Kind: "differential",
			Detail: fmt.Sprintf("measurement stats diverge: fast %+v vs interpreted %+v", fast.Stats, res.Stats)})
	}
	if fastNet != nil && net != nil {
		if a, b := fastNet.Stats(), net.Stats(); a != b {
			vio = append(vio, Violation{Kind: "differential",
				Detail: fmt.Sprintf("final stats diverge: fast %+v vs interpreted %+v", a, b)})
		}
	}
	return vio
}

// Run executes a full campaign: generate, simulate in parallel, check
// oracles, shrink violations.
func Run(opts Options) (*Outcome, error) {
	if opts.Scenarios <= 0 {
		return nil, fmt.Errorf("campaign: Scenarios must be positive")
	}
	scenarios, err := Generate(&opts)
	if err != nil {
		return nil, err
	}
	opts.logf("campaign: %d %s scenarios (seed %d, differential=%v)",
		len(scenarios), opts.Algo, opts.Seed, opts.Differential)

	// Fan the simulations out on the sim worker pool. Each job builds
	// its own algorithm instance and flight recorder inside Make (the
	// pool's one-instance-per-job rule) and deposits its network
	// handle in a private slot for the sequential oracle pass below.
	runsPer := 1
	if opts.Differential {
		runsPer++ // the interpreted run follows the fast one
	}
	jobs := make([]sim.Job, len(scenarios)*runsPer)
	nets := make([]*network.Network, len(jobs))
	factory := opts.factory()
	for i := range scenarios {
		s := &scenarios[i]
		for k := 0; k < runsPer; k++ {
			k := k
			idx := i*runsPer + k
			variant := "fast"
			if k == 1 {
				variant = "interp"
			}
			jobs[idx] = sim.Job{
				Label: fmt.Sprintf("s%03d/%s", s.ID, variant),
				Make: func() sim.Config {
					cfg, err := buildConfig(s, k == 1, factory, &nets[idx])
					if err != nil {
						panic(err) // surfaces as the job's error
					}
					return cfg
				},
			}
		}
	}
	results := sim.RunParallel(jobs, opts.Workers)

	out := &Outcome{Scenarios: len(scenarios)}
	for i := range scenarios {
		s := &scenarios[i]
		var vio []Violation
		var pm *trace.Report
		fast := results[i*runsPer]
		if fast.Err != nil {
			vio = append(vio, Violation{Kind: "sim-error", Detail: fast.Err.Error()})
		} else {
			vio = checkRun(s, &fast.Result, nets[i*runsPer])
			pm = fast.Result.PostMortem
			if opts.Differential {
				or := results[i*runsPer+1]
				if or.Err != nil {
					vio = append(vio, Violation{Kind: "sim-error", Detail: "oracle run: " + or.Err.Error()})
				} else {
					if or.Result.Stats != fast.Result.Stats {
						vio = append(vio, Violation{Kind: "differential",
							Detail: fmt.Sprintf("measurement stats diverge: fast %+v vs interpreted %+v",
								fast.Result.Stats, or.Result.Stats)})
					}
					if a, b := nets[i*runsPer], nets[i*runsPer+1]; a != nil && b != nil {
						if sa, sb := a.Stats(), b.Stats(); sa != sb {
							vio = append(vio, Violation{Kind: "differential",
								Detail: fmt.Sprintf("final stats diverge: fast %+v vs interpreted %+v", sa, sb)})
						}
					}
				}
			}
		}
		if len(vio) == 0 {
			continue
		}
		opts.logf("campaign: scenario %d FAILED: %s", s.ID, vio[0])
		rep := ScenarioReport{Scenario: *s, Violations: vio, PostMortem: pm}
		if opts.Shrink {
			if shrunk, svio, ok := Shrink(s, &opts); ok {
				rep.Shrunk = &shrunk
				rep.ShrunkViolations = svio
				opts.logf("campaign: scenario %d shrunk from %d to %d fault atoms",
					s.ID, s.atoms(), shrunk.atoms())
			}
		}
		out.Reports = append(out.Reports, rep)
	}
	return out, nil
}
