package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/rulesets"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// simSpec is one simulator workload: fixed work on the serial engine,
// as ftsim defaults. One repetition is sized to about half a second on
// the reference host, so a run of --seconds holds a dozen or more.
type simSpec struct {
	mesh       [2]int // width, height; zero when cube is set
	cube       int
	alg        string // "nafta", "rule-nafta" or "rule-routec"
	nodeFaults int    // applied before warm-up
	linkFaults int    // scheduled across the measurement window
	rate       float64
	measure    int64
}

const (
	simWarmup = 1000
	simLength = 8
	simDrain  = 50000
)

// simBuild is everything one sim.Run needs, built fresh for every run
// because an algorithm instance accumulates the fault state.
type simBuild struct {
	g     topology.Graph
	alg   routing.Algorithm
	cfg   sim.Config
	final *fault.Set // fault state once the schedule has fired
}

func (s simSpec) graph() topology.Graph {
	if s.cube > 0 {
		return topology.NewHypercube(s.cube)
	}
	return topology.NewMesh(s.mesh[0], s.mesh[1])
}

func (s simSpec) algorithm(g topology.Graph) (routing.Algorithm, error) {
	switch s.alg {
	case "nafta":
		return routing.NewNAFTA(g.(*topology.Mesh)), nil
	case "rule-nafta":
		return rulesets.NewRuleNAFTA(g.(*topology.Mesh))
	case "rule-routec":
		return rulesets.NewRuleRouteC(g.(*topology.Hypercube))
	}
	return nil, fmt.Errorf("unknown algorithm %q", s.alg)
}

// build makes the inputs of one run from the seed: the fault pattern,
// when its link faults fire, and the traffic seed.
func (s simSpec) build(seed int64, quick bool) (*simBuild, error) {
	g := s.graph()
	alg, err := s.algorithm(g)
	if err != nil {
		return nil, err
	}
	warmup, measure := int64(simWarmup), s.measure
	if quick {
		warmup, measure = warmup/10, measure/20
	}
	b := &simBuild{g: g, alg: alg, final: fault.NewSet()}
	b.cfg = sim.Config{
		Graph: g, Algorithm: alg,
		Pattern: traffic.Uniform{Nodes: g.Nodes()},
		Rate:    s.rate, Length: simLength, Seed: seed,
		WarmupCycles: warmup, MeasureCycles: measure, DrainCycles: simDrain,
	}
	if s.nodeFaults+s.linkFaults > 0 {
		all, err := fault.Random(g, fault.RandomOptions{
			Nodes: s.nodeFaults, Links: s.linkFaults, Seed: seed, KeepConnected: true,
		})
		if err != nil {
			return nil, err
		}
		b.final = all
		initial := fault.NewSet()
		for _, n := range all.FaultyNodes() {
			initial.FailNode(n)
		}
		b.cfg.Faults = initial
		// Link faults fire at 25/45/65/85 % of the window (and on in
		// steps of 20 % should a spec ever ask for more than four).
		var events []fault.Event
		for i, l := range all.FaultyLinks() {
			at := warmup + measure*int64(25+20*i)/100
			events = append(events, fault.Event{Time: at, Kind: fault.LinkFault, Link: l})
		}
		b.cfg.FaultSchedule = fault.NewSchedule(events)
	}
	return b, nil
}

// simRun is one sim.Run with what the checks and the metrics need
// from the network it built.
type simRun struct {
	res    sim.Result
	wall   time.Duration
	cycles int64 // every cycle stepped: warm-up + measure + drain
	final  network.Stats
}

func (b *simBuild) run() (simRun, []string, error) {
	var net *network.Network
	cfg := b.cfg
	cfg.OnNetwork = func(n *network.Network) { net = n }
	start := time.Now()
	res, err := sim.Run(cfg)
	wall := time.Since(start)
	if err != nil {
		return simRun{}, nil, err
	}
	r := simRun{res: res, wall: wall, cycles: net.Now(), final: net.Stats()}
	return r, checkSim(&res, net, r.final), nil
}

// checkSim holds one finished simulation to the output checks; the
// returned strings are the ones that failed.
func checkSim(res *sim.Result, net *network.Network, final network.Stats) []string {
	var bad []string
	if res.Stats.DeadlockSuspected || final.DeadlockSuspected {
		bad = append(bad, "deadlock watchdog fired")
	}
	if res.PostMortem != nil {
		bad = append(bad, fmt.Sprintf("automatic %s post-mortem at cycle %d", res.PostMortem.Reason, res.PostMortem.Cycle))
	}
	if !res.Drained {
		bad = append(bad, fmt.Sprintf("network did not drain (in flight %d, queued %d)", net.InFlight(), net.Queued()))
	}
	if err := net.CheckInvariants(); err != nil {
		bad = append(bad, fmt.Sprintf("invariants: %v", err))
	}
	if lost := unaccounted(final); res.Drained && lost != 0 {
		bad = append(bad, fmt.Sprintf("message conservation: injected %d != delivered %d + dropped %d + killed %d",
			final.Injected, final.Delivered, final.Dropped, final.Killed))
	}
	if final.FlitsDelivered != final.Delivered*simLength {
		bad = append(bad, fmt.Sprintf("flit conservation: %d flits for %d messages of %d", final.FlitsDelivered, final.Delivered, simLength))
	}
	return bad
}

// unaccounted counts messages that were injected and are neither
// delivered nor removed by a declared event (fault surgery, an
// unroutable verdict). It is the simulator's count of failed
// operations; losses the fault model causes are sim.loss_ratio.
func unaccounted(final network.Stats) int64 {
	d := final.Injected - final.Delivered - final.Dropped - final.Killed
	if d < 0 {
		d = -d
	}
	return d
}

// sameResult compares everything sim.Run reports about the simulated
// system.
func sameResult(a, b *sim.Result) bool {
	return a.Stats == b.Stats && a.OfferedMessages == b.OfferedMessages &&
		a.QueueGrowth == b.QueueGrowth && a.Drained == b.Drained && a.Nodes == b.Nodes
}

// driveOpts configure the benchmark's own copy of sim.Run's loop.
type driveOpts struct {
	workers int
	rec     *trace.Recorder // counting recorder of the traced run
	log     *spanLog        // spans per phase and per ApplyFaults
	parent  int32
}

// driven is what the loop measured from outside the public calls.
type driven struct {
	res    sim.Result
	final  network.Stats
	peaks  network.ActiveSetPeaks
	cycles int64
	wall   time.Duration

	warmup, measure, drain time.Duration
	stepNs                 *samples // one network.Step each
	tickTotal              int64
	applyMax               int64
	mallocs                uint64
	parallel               bool
	problems               []string
}

// drive repeats sim.Run's warm-up / measure / drain protocol through
// the public network, traffic and fault API, timing each call from
// outside. It must produce sim.Run's Result bit for bit; callers
// check that it does.
func (b *simBuild) drive(o driveOpts) (*driven, error) {
	cfg := b.cfg
	total := cfg.WarmupCycles + cfg.MeasureCycles
	d := &driven{stepNs: newSamples(int(total))}
	span := func(name string, parent int32) (int32, func()) {
		if o.log == nil {
			return -1, func() {}
		}
		id := o.log.begin(name, parent, 0)
		return id, func() { o.log.end(id) }
	}
	root, endRoot := span("sim/run", o.parent)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	begin := time.Now()

	_, endNew := span("network/New", root)
	net := network.New(network.Config{
		Graph: cfg.Graph, Algorithm: cfg.Algorithm, Workers: o.workers, Recorder: o.rec,
		OnPostMortem: func(r *trace.Report) { d.res.PostMortem = r },
	})
	defer net.Close()
	endNew()
	d.parallel = net.ParallelActive()
	f := fault.NewSet()
	if cfg.Faults != nil {
		f = cfg.Faults.Clone()
	}
	var sched *fault.Schedule
	if cfg.FaultSchedule != nil {
		sched = cfg.FaultSchedule.Clone()
	}
	applyFaults := func(parent int32) {
		_, end := span("network/ApplyFaults", parent)
		t := time.Now()
		net.ApplyFaults(f)
		d.applyMax = max(d.applyMax, int64(time.Since(t)))
		end()
	}
	applyFaults(root)

	type blocker interface{ Blocks() *fault.BlockInfo }
	exclude := func(n topology.NodeID) bool {
		if f.NodeFaulty(n) {
			return true
		}
		if bl, ok := cfg.Algorithm.(blocker); ok {
			if blocks := bl.Blocks(); blocks != nil && blocks.DisabledNode(n) {
				return true
			}
		}
		return false
	}
	gen := &traffic.Generator{
		Graph: cfg.Graph, Pattern: cfg.Pattern, Rate: cfg.Rate, Length: cfg.Length,
		Rng: rand.New(rand.NewSource(cfg.Seed)), Exclude: exclude,
	}
	if err := gen.Validate(); err != nil {
		return nil, err
	}

	loop := func(name string, cycles int64) time.Duration {
		id, end := span(name, root)
		start := time.Now()
		var tick, step int64
		for i := int64(0); i < cycles; i++ {
			if sched != nil {
				if fired := sched.ApplyUpTo(net.Now(), f); len(fired) > 0 {
					applyFaults(id)
				}
			}
			t1 := time.Now()
			gen.Tick(net)
			t2 := time.Now()
			net.Step()
			t3 := time.Now()
			tick += int64(t2.Sub(t1))
			step += int64(t3.Sub(t2))
			d.stepNs.add(int64(t3.Sub(t2)))
		}
		wall := time.Since(start)
		d.tickTotal += tick
		if o.log != nil {
			o.log.addAggregate(id, "traffic/Tick", cycles, tick)
			o.log.addAggregate(id, "network/Step", cycles, step)
		}
		end()
		return wall
	}

	d.warmup = loop("sim/warmup", cfg.WarmupCycles)
	before := net.Stats()
	offeredBefore := gen.Offered
	queueBefore := net.Queued() + net.InFlight()
	d.measure = loop("sim/measure", cfg.MeasureCycles)
	queueAfter := net.Queued() + net.InFlight()
	after := net.Stats()

	drainStart := time.Now()
	drainID, endDrain := span("sim/drain", root)
	_, endCall := span("network/Drain", drainID)
	d.res.Drained = net.Drain(cfg.DrainCycles)
	endCall()
	endDrain()
	d.drain = time.Since(drainStart)
	d.wall = time.Since(begin)
	endRoot()
	runtime.ReadMemStats(&ms)
	d.mallocs = ms.Mallocs - mallocs0

	d.final = net.Stats()
	d.peaks = net.Peaks()
	d.cycles = net.Now()
	d.res.OfferedRate = cfg.Rate
	d.res.OfferedMessages = gen.Offered - offeredBefore
	d.res.QueueGrowth = queueAfter - queueBefore
	d.res.Nodes = cfg.Graph.Nodes()
	d.res.Stats = network.Stats{
		Cycles:            cfg.MeasureCycles,
		Injected:          after.Injected - before.Injected,
		Delivered:         after.Delivered - before.Delivered,
		Dropped:           after.Dropped - before.Dropped,
		Unreachable:       after.Unreachable - before.Unreachable,
		Killed:            after.Killed - before.Killed,
		FlitsDelivered:    after.FlitsDelivered - before.FlitsDelivered,
		HopsSum:           after.HopsSum - before.HopsSum,
		StepsSum:          after.StepsSum - before.StepsSum,
		MisroutesSum:      after.MisroutesSum - before.MisroutesSum,
		MarkedCount:       after.MarkedCount - before.MarkedCount,
		LatencySum:        after.LatencySum - before.LatencySum,
		NetLatencySum:     after.NetLatencySum - before.NetLatencySum,
		MaxLatency:        after.MaxLatency,
		DeadlockSuspected: d.final.DeadlockSuspected,
	}
	d.problems = checkSim(&d.res, net, d.final)
	return d, nil
}

// countingSink counts the network's events by kind; it is the
// benchmark's own trace.Sink, so the counts are taken at the layer
// boundary without touching the program.
type countingSink struct{ n [32]int64 }

func (c *countingSink) Emit(ev trace.Event) error {
	if int(ev.Kind) < len(c.n) {
		c.n[ev.Kind]++
	}
	return nil
}

func (c *countingSink) Close() error { return nil }

// roundsPerSlice is how many consecutive sim.Run rounds make one slice
// of a simulator run (about a second and a half).
const roundsPerSlice = 3

// simUntraced is the --trace 0 run: sim.Run, on inputs built afresh
// each time (which is also the set-up sample), as often as the window
// allows. One sim.Run is one operation and its time is given per
// simulated cycle, so the operation times are sim.Run's own and read on
// the scale of network.step_ns_*; the benchmark's copy of the loop
// belongs to the traced run alone. As a fleet window is, the run is cut
// into slices, here of roundsPerSlice rounds, and each timing metric is
// the best decile over the slices of the slice's median and 90th
// percentile (see bestDecile): the rounds do identical work, so what
// differs between them is the host.
func simUntraced(s simSpec, seed int64, seconds float64, quick bool) (*outcome, error) {
	out := &outcome{metrics: metricSet{}}
	window := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	minRounds := 3
	if quick {
		minRounds = 1
	}
	var first simRun
	var setups, perSec []float64
	var perCycle []int64 // ns per simulated cycle, one per round
	var lastRound time.Duration
	for round := 0; round < minRounds || time.Since(start)+lastRound <= window; round++ {
		// Every round starts from a collected heap, as a fresh ftsim
		// process would: otherwise how much of the last round's garbage
		// is still around decides the peak RSS (36 to 53 MB over ten
		// runs of sim-mesh64-low).
		runtime.GC()
		roundStart := time.Now()
		b, err := s.build(seed, quick)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(roundStart).Seconds())
		r, bad, err := b.run()
		if err != nil {
			return nil, err
		}
		for _, p := range bad {
			out.failf("round %d: %s", round, p)
		}
		if round == 0 {
			first = r
		} else if !sameResult(&first.res, &r.res) || first.cycles != r.cycles {
			out.failf("round %d differs from round 0 on the same seed", round)
		}
		out.attempted += r.final.Injected
		out.failed += unaccounted(r.final)
		perSec = append(perSec, float64(r.cycles)/r.wall.Seconds())
		perCycle = append(perCycle, int64(r.wall)/r.cycles)
		lastRound = time.Since(roundStart)
	}
	// Rounds left over at the end belong to no slice; a run shorter
	// than one slice is one slice.
	var p50s, p90s []float64
	for i := 0; i+roundsPerSlice <= len(perCycle) || i == 0; i += roundsPerSlice {
		slice := &samples{ns: perCycle[i:min(i+roundsPerSlice, len(perCycle))]}
		p50s = append(p50s, us(slice.quantile(0.50)))
		p90s = append(p90s, us(slice.quantile(0.90))) // of three rounds, the slowest
	}
	out.metrics["throughput_per_s"] = bestDecile(perSec, true)
	out.metrics["op_p50_us"] = bestDecile(p50s, false)
	out.metrics["op_p90_us"] = bestDecile(p90s, false)
	out.metrics["setup_s"] = bestDecile(setups, false)
	out.metrics["peak_rss_mb"] = peakRSSMB()
	out.notef("%d rounds of %d cycles in %d slices; cycles/s %.0f; set-up median %.5f s",
		len(perSec), first.cycles, len(p50s), perSec, median(setups))
	return out, nil
}

// simTraced is the --trace 1 run: sim.Run untraced as the reference,
// the outside loop with a counting recorder and spans, the outside
// loop plain on the serial and on the parallel engine for their step
// ratio, and the decision and table probes.
func simTraced(name string, s simSpec, seed int64, quick bool, outDir string) (*outcome, error) {
	out := &outcome{metrics: metricSet{}}
	m := out.metrics

	b, err := s.build(seed, quick)
	if err != nil {
		return nil, err
	}
	ref, bad, err := b.run()
	if err != nil {
		return nil, err
	}
	for _, p := range bad {
		out.failf("sim.Run: %s", p)
	}
	out.attempted, out.failed = ref.final.Injected, unaccounted(ref.final)

	// Traced pass.
	if b, err = s.build(seed, quick); err != nil {
		return nil, err
	}
	sink := &countingSink{}
	rec := trace.New(b.g.Nodes(), 16)
	rec.SetSink(sink)
	switch a := b.alg.(type) {
	case *rulesets.RuleNAFTA:
		a.OnRuleFired, _ = rulesets.TraceRules(rec)
	case *rulesets.RuleRouteC:
		a.OnRuleFired, _ = rulesets.TraceRules(rec)
	}
	log := newSpanLog(64)
	before := takeProcSnapshot()
	td, err := b.drive(driveOpts{rec: rec, log: log, parent: -1})
	if err != nil {
		return nil, err
	}
	after := takeProcSnapshot()
	for _, p := range td.problems {
		out.failf("traced loop: %s", p)
	}
	if !sameResult(&td.res, &ref.res) || td.cycles != ref.cycles {
		out.failf("traced loop and sim.Run disagree: %+v vs %+v", td.res.Stats, ref.res.Stats)
	}

	// Serial against parallel stepping, both untraced.
	if b, err = s.build(seed, quick); err != nil {
		return nil, err
	}
	serial, err := b.drive(driveOpts{})
	if err != nil {
		return nil, err
	}
	if b, err = s.build(seed, quick); err != nil {
		return nil, err
	}
	par, err := b.drive(driveOpts{workers: runtime.NumCPU()})
	if err != nil {
		return nil, err
	}
	for _, p := range par.problems {
		out.failf("parallel loop: %s", p)
	}
	if !sameResult(&serial.res, &ref.res) || !sameResult(&par.res, &ref.res) || par.final != serial.final {
		out.failf("parallel stepping changed the statistics: %+v vs %+v", par.final, serial.final)
	}
	if ps := par.stepNs.sum(); ps > 0 {
		m["network.par_step_ratio"] = float64(serial.stepNs.sum()) / float64(ps)
	}
	if !par.parallel {
		out.notef("the parallel engine fell back to serial stepping on this host")
	}

	st := ref.res.Stats
	m["sim.msgs_per_s"] = float64(ref.final.Delivered) / ref.wall.Seconds()
	m["sim.latency_cycles"] = st.AvgLatency()
	m["sim.accepted_flits"] = ref.res.Throughput()
	if st.Injected > 0 {
		m["sim.loss_ratio"] = float64(st.Dropped+st.Killed) / float64(st.Injected)
	}
	m["sim.warmup_s"] = td.warmup.Seconds()
	m["sim.measure_s"] = td.measure.Seconds()
	m["sim.drain_s"] = td.drain.Seconds()
	m["traffic.tick_ns_per_cycle"] = float64(td.tickTotal) / float64(td.stepNs.count())
	m["traffic.offered_msgs"] = float64(td.res.OfferedMessages)

	stepSum := td.stepNs.sum()
	k := &sink.n
	routes := k[trace.KRouteComputed] + k[trace.KUnroutable]
	m["network.step_ns_p50"] = float64(td.stepNs.quantile(0.50))
	m["network.step_ns_p99"] = float64(td.stepNs.quantile(0.99))
	m["network.step_busy_share"] = float64(stepSum) / float64(td.warmup+td.measure)
	if hops := k[trace.KCreditSent]; hops > 0 {
		m["network.ns_per_flit_hop"] = float64(stepSum) / float64(hops)
	}
	m["network.route_decisions"] = float64(routes)
	m["network.vc_allocs"] = float64(k[trace.KVCAllocated])
	m["network.flit_hops"] = float64(k[trace.KCreditSent])
	m["network.blocked_episodes"] = float64(k[trace.KFlitBlocked])
	m["network.unroutable"] = float64(k[trace.KUnroutable])
	m["network.active_peak_route"] = float64(td.peaks.Route)
	m["network.active_peak_alloc"] = float64(td.peaks.Alloc)
	m["network.active_peak_switch"] = float64(td.peaks.Switch)
	m["network.active_peak_drain"] = float64(td.peaks.Drain)
	m["network.active_peak_inject"] = float64(td.peaks.InjectNodes)
	// Allocations are counted on the plain serial pass: the recorder's
	// rings would otherwise be charged to the network.
	m["network.allocs_per_cycle"] = float64(serial.mallocs) / float64(serial.cycles)
	m["network.apply_faults_us_max"] = us(td.applyMax)
	m["network.apply_faults_events"] = float64(k[trace.KFaultPropagated])
	m["network.msgs_killed"] = float64(k[trace.KMsgKilled])

	if err := decisionProbe(m, s, b.final, seed, quick); err != nil {
		return nil, err
	}
	if routes > 0 {
		m["rulesets.rule_fires_per_decision"] = float64(k[trace.KRuleFired]) / float64(routes)
	}
	if s.alg != "nafta" {
		m["rulesets.decide_share_est"] = m["rulesets.decide_ns"] * float64(routes) / float64(td.wall)
	}
	procCost(m, before, after, routes)
	m["trace.overhead_ratio"] = td.wall.Seconds() / ref.wall.Seconds()

	log = log.freeze()
	bud := log.selfTimes(0)
	m["trace.self_sum_ratio"] = bud.SumRatio
	if bud.SumRatio < 0.95 || bud.SumRatio > 1.05 {
		out.failf("layer self times sum to %.3f of the root span", bud.SumRatio)
	}
	path, err := log.write(outDir, name, seed, bud)
	if err != nil {
		return nil, err
	}
	out.notef("spans written to %s", path)
	return out, nil
}
