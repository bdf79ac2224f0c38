package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/topology"
)

// fleetSpec is one fleet workload. All of them serve the nafta
// artifact on a 32x32 mesh with six node faults from two in-process
// replicas on loopback listeners, driven by two client goroutines with
// one connection each per replica: the load a 2-CPU host can generate
// from one process without the generator becoming the bottleneck. The
// load is closed loop: a router blocks on the answer before it asks
// again. The requests are the ones the routers of a simulated 32x32
// mesh, loaded with the same artifact under the same faults, put to
// their engines (see harvest).
type fleetSpec struct {
	batch int
	// openRate > 0 adds an open-loop window at that many decisions per
	// second over both senders to the traced run. Its latencies are
	// per-layer metrics only: between requests the host's CPUs go idle,
	// and how fast this virtual machine wakes them moved the median by
	// half from run to run, far beyond any bound a gate could use.
	openRate float64
	// cold walks the whole harvest, a fresh key every request, instead
	// of drawing from the pool that fits the cache.
	cold bool
	// churn runs the control goroutine beside the load.
	churn bool
}

const (
	fleetReplicas     = 2
	fleetClients      = 2
	fleetCacheEntries = 65536
	fleetPoolSize     = 4096
	fleetNodeFaults   = 6
	fleetWarmBatch    = 256
	churnInterval     = 250 * time.Millisecond
	// fleetHarvest is how many distinct requests are taken from the
	// simulation; with the message lengths below it is 1.8 million keys,
	// fourteen times what the two caches hold.
	fleetHarvest = 131072
	// Message lengths run from minLength to minLength+lengths-1 flits.
	// The length is part of the memoization key and of nothing else, so
	// the cold stream can give a harvested state another length on each
	// pass and never repeat a key while the caches could still hold it.
	minLength = 2
	lengths   = 14
	// harvestRate is the load of the simulation the requests come from,
	// the headline simulator workload's.
	harvestRate = 0.05
)

// fleetInputs is what the seed decides: the fault states and the
// requests. It is made once per run, before and outside set-up.
type fleetInputs struct {
	faults  *fault.Set // the state set-up applies and every run ends in
	faultsB *fault.Set // churn's second state: faults plus one node
	pool    []reconfig.DecisionRequest
	fresh   []reconfig.DecisionRequest // the harvest outside the pool
}

func fleetMesh(quick bool) string {
	if quick {
		return "12x12"
	}
	return "32x32"
}

func genFleetInputs(seed int64, quick bool) (*fleetInputs, error) {
	art, err := reconfig.Build("nafta", reconfig.BuildOptions{Epoch: 1})
	if err != nil {
		return nil, err
	}
	g, err := fleet.TopologyFor(art, fleetMesh(quick))
	if err != nil {
		return nil, err
	}
	in := &fleetInputs{}
	if in.faults, err = fault.Random(g, fault.RandomOptions{Nodes: fleetNodeFaults, Seed: seed, KeepConnected: true}); err != nil {
		return nil, err
	}
	in.faultsB = in.faults.Clone()
	for n := 0; n < g.Nodes(); n++ {
		if !in.faults.NodeFaulty(topology.NodeID(n)) {
			in.faultsB.FailNode(topology.NodeID(n))
			if len(topology.Components(g, in.faultsB.Filter())) == 1 {
				break
			}
			in.faultsB.RepairNode(topology.NodeID(n))
		}
	}

	router, err := reconfig.NewEngine(art, g)
	if err != nil {
		return nil, err
	}
	want := fleetHarvest
	if quick {
		want = 2 * fleetPoolSize
	}
	states, err := harvest(g, router, in.faults, harvestRate, seed, want, true)
	if err != nil {
		return nil, err
	}
	// The harvest is in simulation order (injections first); the pool
	// must be a fair sample of it, so shuffle before cutting.
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(states), func(i, j int) { states[i], states[j] = states[j], states[i] })
	for i := range states {
		states[i].Length = minLength + rng.Intn(lengths)
	}
	in.pool, in.fresh = states[:fleetPoolSize], states[fleetPoolSize:]
	return in, nil
}

// fleetEnv is a running fleet plus what the load and the checks need.
type fleetEnv struct {
	spec fleetSpec
	*fleetInputs
	art     *reconfig.Artifact
	g       topology.Graph
	servers []*fleet.Server
	https   []*http.Server
	serving sync.WaitGroup
	idle    *http.Transport
	client  *fleet.Client
	tr      *fleetTracer
	// drawn counts the cold requests each lane has taken; it runs on
	// over the windows of a run so that none starts the walk again.
	drawn [fleetClients]int
}

// setupFleet builds and warms a fleet: compile the artifact, bind two
// shard-owning replicas, listen, connect, apply the faults over HTTP
// and send the request pool once. tr is nil for a run that is never
// traced.
func setupFleet(spec fleetSpec, in *fleetInputs, quick bool, tr *fleetTracer) (*fleetEnv, error) {
	e := &fleetEnv{spec: spec, fleetInputs: in, tr: tr}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	var err error
	if e.art, err = reconfig.Build("nafta", reconfig.BuildOptions{Epoch: 1}); err != nil {
		return nil, err
	}
	if e.g, err = fleet.TopologyFor(e.art, fleetMesh(quick)); err != nil {
		return nil, err
	}

	urls := make([]string, 0, fleetReplicas)
	for i := 0; i < fleetReplicas; i++ {
		srv, err := fleet.NewServer(e.art, nil, e.g, fleet.Options{
			CacheEntries: fleetCacheEntries,
			Shard:        fleet.ShardInfo{Index: i, Count: fleetReplicas},
		})
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		var h http.Handler = srv.Mux()
		if tr != nil {
			h = tr.handler(h)
		}
		hs := &http.Server{Handler: h}
		e.serving.Add(1)
		go func() {
			defer e.serving.Done()
			_ = hs.Serve(ln) // returns ErrServerClosed from close()
		}()
		e.servers = append(e.servers, srv)
		e.https = append(e.https, hs)
		urls = append(urls, "http://"+ln.Addr().String())
	}

	e.idle = http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = e.idle
	if tr != nil {
		rt = &spanTransport{base: e.idle, tr: tr}
	}
	e.client, err = fleet.NewClient(urls, fleet.ClientOptions{
		HTTPClient: &http.Client{Transport: rt, Timeout: 30 * time.Second},
	})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if err := e.applyFaults(ctx, e.faults); err != nil {
		return nil, err
	}

	for i := 0; i < len(e.pool); i += fleetWarmBatch {
		out, err := e.client.DecideBatch(ctx, e.pool[i:min(i+fleetWarmBatch, len(e.pool))])
		if err != nil {
			return nil, fmt.Errorf("warm pass: %w", err)
		}
		for j := range out {
			if out[j].Error != "" {
				return nil, fmt.Errorf("warm pass: request %+v: %s", e.pool[i+j], out[j].Error)
			}
		}
	}
	ok = true
	return e, nil
}

func (e *fleetEnv) applyFaults(ctx context.Context, f *fault.Set) error {
	var fr fleet.FaultRequest
	for _, n := range f.FaultyNodes() {
		fr.Nodes = append(fr.Nodes, int(n))
	}
	payload, err := json.Marshal(fr)
	if err != nil {
		return err
	}
	_, err = e.client.Broadcast(ctx, "/fault", payload)
	return err
}

// close stops the listeners and waits for the serving goroutines.
func (e *fleetEnv) close() {
	if e.idle != nil {
		e.idle.CloseIdleConnections()
	}
	for _, hs := range e.https {
		_ = hs.Close()
	}
	e.serving.Wait()
}

// laneResult is what one client goroutine saw in a window.
type laneResult struct {
	rtt       *samples
	doneAt    *samples // when each round trip ended, from the window's start
	lateness  *samples
	attempted int64
	failed    int64
	// unroutable counts answers without a candidate: legal, but a path
	// of its own through the engine and a smaller response.
	unroutable int64
}

// windowResult is one timed window over all lanes.
type windowResult struct {
	rtt        *samples
	slices     []sliceStat
	lateness   *samples
	control    *samples
	attempted  int64
	failed     int64
	unroutable int64
	wall       time.Duration
	lanes      []int32 // lane root spans of a traced window
	cycles     int     // churn cycles completed
	problems   []string
}

func (w *windowResult) perSecond() float64 {
	return float64(w.attempted-w.failed) / w.wall.Seconds()
}

// sliceStat is one slice of a window; the end-to-end metrics are the
// best decile over the slices (see bestDecile).
type sliceStat struct {
	perSecond float64
	p50, p90  float64 // µs
}

// sliceWidth is a quarter of a second, except under churn: there a
// slice is one whole rollout (churnCycle), so that every slice holds
// every control operation once and picking the best slices cannot pick
// the ones the write side left alone.
func (s fleetSpec) sliceWidth() time.Duration {
	if s.churn {
		return churnCycle
	}
	return 250 * time.Millisecond
}

// sliceWindow cuts the lanes' round trips into slices of the given
// width by when they ended. What is left over at the end of the window
// belongs to no slice; a window shorter than one slice is one slice.
func sliceWindow(lanes []laneResult, d, width time.Duration, batch int) []sliceStat {
	n := int(d / width)
	if n == 0 {
		n, width = 1, d
	}
	per := make([]*samples, n)
	for i := range per {
		per[i] = newSamples(0)
	}
	for _, l := range lanes {
		for i, at := range l.doneAt.ns {
			if k := at / int64(width); k < int64(n) {
				per[k].add(l.rtt.ns[i])
			}
		}
	}
	out := make([]sliceStat, n)
	for i, s := range per {
		out[i] = sliceStat{
			perSecond: float64(s.count()*batch) / (float64(width) / 1e9),
			p50:       us(s.quantile(0.50)),
			p90:       us(s.quantile(0.90)),
		}
	}
	return out
}

// fieldOf lists one field over the slices.
func fieldOf(slices []sliceStat, field func(sliceStat) float64) []float64 {
	v := make([]float64, len(slices))
	for i, s := range slices {
		v[i] = field(s)
	}
	return v
}

// window drives the load for d and returns what the clients saw. seed
// and the lane number fix each lane's request stream. open paces the
// lanes at the spec's rate instead of letting each wait for its reply.
func (e *fleetEnv) window(seed int64, d time.Duration, traced, open bool) *windowResult {
	ctx := context.Background()
	if e.tr != nil {
		e.tr.on.Store(traced)
		defer e.tr.on.Store(false)
	}
	// Room for 400k decisions/s or 40k round trips/s per lane,
	// whichever is fewer; a faster fleet only costs a slice growth.
	perLane := int(d.Seconds()*min(400000/float64(e.spec.batch), 40000)) + 1024
	late := 0
	if open {
		perLane = int(d.Seconds()*e.spec.openRate) + 1024
		late = perLane
	}
	lanes := make([]laneResult, fleetClients)
	res := &windowResult{control: newSamples(256), lanes: make([]int32, fleetClients)}
	start := time.Now()
	end := start.Add(d)

	var ctl sync.WaitGroup
	if e.spec.churn {
		ctl.Add(1)
		go func() {
			defer ctl.Done()
			e.churn(ctx, start, end, res)
		}()
	}
	var wg sync.WaitGroup
	for c := 0; c < fleetClients; c++ {
		lanes[c] = laneResult{rtt: newSamples(perLane), doneAt: newSamples(perLane), lateness: newSamples(late)}
		res.lanes[c] = -1
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			e.lane(ctx, c, seed, start, end, traced, open, &lanes[c], &res.lanes[c])
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	ctl.Wait()

	res.slices = sliceWindow(lanes, d, e.spec.sliceWidth(), e.spec.batch)
	res.rtt = newSamples(0)
	res.lateness = newSamples(0)
	for c := range lanes {
		res.rtt.merge(lanes[c].rtt)
		res.lateness.merge(lanes[c].lateness)
		res.attempted += lanes[c].attempted
		res.failed += lanes[c].failed
		res.unroutable += lanes[c].unroutable
	}
	return res
}

// laneSeed separates the lanes' streams and keeps them a function of
// the run's seed alone.
func laneSeed(seed int64, lane int) int64 { return seed*1000003 + int64(lane) + 1 }

// lane is one client goroutine.
func (e *fleetEnv) lane(ctx context.Context, c int, seed int64, start, end time.Time, traced, open bool,
	out *laneResult, rootOut *int32) {
	rng := rand.New(rand.NewSource(laneSeed(seed, c)))
	reqs := make([]reconfig.DecisionRequest, e.spec.batch)
	root := int32(-1)
	var log *spanLog
	if traced {
		log = e.tr.log
		root = log.begin("fleet.gen/lane", -1, 0)
		*rootOut = root
		defer log.end(root)
	}
	var seq int64
	send := func() {
		if e.spec.cold {
			// Lane c takes every fleetClients-th state of the harvest
			// and, each time round, the next message length.
			for i := range reqs {
				k := e.drawn[c]*fleetClients + c
				e.drawn[c]++
				r := e.fresh[k%len(e.fresh)]
				r.Length = minLength + (r.Length-minLength+k/len(e.fresh))%lengths
				reqs[i] = r
			}
		} else {
			for i := range reqs {
				reqs[i] = e.pool[rng.Intn(len(e.pool))]
			}
		}
		callCtx := ctx
		id := int32(-1)
		if traced {
			seq++
			req := int64(c+1)<<40 | seq
			id = log.begin("fleet.client/DecideBatch", root, req)
			callCtx = context.WithValue(ctx, spanKey{}, spanRef{parent: id, req: req})
		}
		ds, err := e.client.DecideBatch(callCtx, reqs)
		if traced {
			log.end(id)
		}
		out.attempted += int64(len(reqs))
		if err != nil {
			out.failed += int64(len(reqs)) // a refused batch fails whole
			return
		}
		for i := range ds {
			if ds[i].Error != "" {
				out.failed++
			} else if ds[i].Unroutable {
				out.unroutable++
			}
		}
	}

	if !open {
		for time.Now().Before(end) {
			t0 := time.Now()
			send()
			t1 := time.Now()
			out.rtt.add(int64(t1.Sub(t0)))
			out.doneAt.add(int64(t1.Sub(start)))
		}
		return
	}
	interval := time.Duration(float64(time.Second) * float64(e.spec.batch) * fleetClients / e.spec.openRate)
	idle := sleepUntil
	if traced {
		idle = func(due time.Time) {
			id := log.begin("bench/idle", root, 0)
			sleepUntil(due)
			log.end(id)
		}
	}
	// The lanes start half an interval apart so the fleet sees an even
	// arrival stream rather than pairs.
	laneStart := start.Add(time.Duration(c) * interval / fleetClients)
	do := func(int) {
		send()
		out.doneAt.add(int64(time.Since(start)))
	}
	openLoop(time.Now, idle, laneStart, end, interval, do, out.rtt, out.lateness)
}

// churnCycle is one rollout: the eight operations of churn.
const churnCycle = 8 * churnInterval

// churn is the control goroutine: one operation every churnInterval,
// alternating a fault-state toggle with the next step of a push →
// canary → promote → rollback rollout, eight operations to the cycle.
// Operation n is due half an interval into the n-th interval of the
// window, so each slice of churnCycle holds one whole rollout well
// inside its edges. When the window ends it finishes the cycle it is in
// without waiting, so every run ends on fault state A serving version 1.
func (e *fleetEnv) churn(ctx context.Context, start, end time.Time, res *windowResult) {
	var artBytes bytes.Buffer
	next := *e.art
	if err := next.Encode(&artBytes); err != nil {
		res.problems = append(res.problems, fmt.Sprintf("churn: encoding artifact: %v", err))
		return
	}
	version := 0
	timed := func(f func() error) func() error {
		return func() error {
			t0 := time.Now()
			err := f()
			res.control.add(int64(time.Since(t0)))
			return err
		}
	}
	ops := []func() error{
		timed(func() error { return e.applyFaults(ctx, e.faultsB) }),
		timed(func() (err error) { version, err = e.client.Push(ctx, artBytes.Bytes()); return }),
		timed(func() error { return e.applyFaults(ctx, e.faults) }),
		timed(func() error { return e.client.Canary(ctx, version, 0.5) }),
		timed(func() error { return e.applyFaults(ctx, e.faultsB) }),
		func() error {
			for i := 0; i < e.client.Replicas(); i++ {
				st, err := e.client.RegistryStatus(ctx, i)
				if err != nil {
					return err
				}
				if st.Canary == nil {
					return fmt.Errorf("replica %d lost its canary", i)
				}
				if st.Canary.Diverged != 0 {
					return fmt.Errorf("replica %d: same-program canary diverged %d times", i, st.Canary.Diverged)
				}
			}
			return timed(func() error { return e.client.Promote(ctx) })()
		},
		timed(func() error { return e.applyFaults(ctx, e.faults) }),
		timed(func() error { return e.client.Rollback(ctx) }),
	}
	if time.Duration(len(ops))*churnInterval != churnCycle {
		panic("bench: churnCycle does not match the operations of a rollout")
	}
	for step := 0; ; step++ {
		op := step % len(ops)
		if due := start.Add(churnInterval/2 + time.Duration(step)*churnInterval); due.Before(end) {
			time.Sleep(time.Until(due))
		} else if op == 0 && step > 0 {
			return // a window too short for one operation still gets one rollout
		}
		if err := ops[op](); err != nil {
			res.problems = append(res.problems, fmt.Sprintf("churn step %d: %v", step, err))
			return
		}
		if op == len(ops)-1 {
			res.cycles++
		}
	}
}

// fleetCounters are the servers' cumulative counters, summed over the
// replicas; a window's share is the difference of two.
type fleetCounters struct {
	hits, misses, evictions, invalidations int64
	decisions, unroutable, misdirected     int64
}

func (e *fleetEnv) counters() fleetCounters {
	var c fleetCounters
	for _, s := range e.servers {
		doc := s.Metrics()
		if doc.Cache != nil {
			c.hits += doc.Cache.Hits
			c.misses += doc.Cache.Misses
			c.evictions += doc.Cache.Evictions
			c.invalidations += doc.Cache.Invalidations
		}
		c.decisions += doc.Decisions
		c.unroutable += doc.Unroutable
		c.misdirected += doc.Misdirected
	}
	return c
}

// hitRatio is the caches' hit ratio between two counter readings. It
// also holds the workload to the cache regime it is named for, which is
// what makes hot minus cold the cache's value: the pool must hit, the
// cold stream must miss. (At the tests' scale the cold stream is short
// enough to come round, so quick runs are not held to it.)
func (s fleetSpec) hitRatio(o *outcome, c0, c1 fleetCounters, quick bool) float64 {
	lookups := c1.hits - c0.hits + c1.misses - c0.misses
	if lookups == 0 {
		return 0
	}
	r := float64(c1.hits-c0.hits) / float64(lookups)
	switch {
	case quick || s.churn:
	case s.cold && r > 0.05:
		o.failf("cache hit ratio %.4f on the cold stream, want at most 0.05", r)
	case !s.cold && r < 0.95:
		o.failf("cache hit ratio %.4f on the pool, want at least 0.95", r)
	}
	return r
}

// verify sends the pool through the fleet once more and holds every
// answer to a single-node reference service under the fault state the
// run must have ended in; it also checks the registries' end state.
func (e *fleetEnv) verify(o *outcome, cycles int) []reconfig.Decision {
	ctx := context.Background()
	ref, err := reconfig.NewService(e.art, e.g, 1)
	if err != nil {
		o.failf("reference service: %v", err)
		return nil
	}
	ref.UpdateFaults(e.faults)
	var first []reconfig.Decision
	var buf []routing.Candidate
	mismatches := 0
	for i := 0; i < len(e.pool); i += fleetWarmBatch {
		chunk := e.pool[i:min(i+fleetWarmBatch, len(e.pool))]
		out, err := e.client.DecideBatch(ctx, chunk)
		if err != nil {
			o.failf("verification batch at %d: %v", i, err)
			return nil
		}
		if first == nil {
			first = out
		}
		for j := range chunk {
			buf, _, err = ref.Decide(&chunk[j], buf[:0])
			if err != nil {
				o.failf("reference refused %+v: %v", chunk[j], err)
				return nil
			}
			if out[j].Error != "" || out[j].Unroutable != (len(buf) == 0) || !slices.Equal(out[j].Candidates, buf) {
				if mismatches == 0 {
					o.failf("request %+v: fleet answered %+v (%q), reference %+v", chunk[j], out[j].Candidates, out[j].Error, buf)
				}
				mismatches++
			}
		}
	}
	if mismatches > 1 {
		o.failf("%d of %d verification answers differ from the reference", mismatches, len(e.pool))
	}
	if c := e.counters(); c.misdirected != 0 {
		o.failf("%d decisions reached a replica that does not own their node", c.misdirected)
	}
	for i := 0; i < e.client.Replicas(); i++ {
		st, err := e.client.RegistryStatus(ctx, i)
		if err != nil {
			o.failf("registry status of replica %d: %v", i, err)
			continue
		}
		if st.Serving != 1 || len(st.Versions) != 1+cycles || st.Canary != nil {
			o.failf("replica %d ends serving v%d of %d versions (canary %v), want v1 of %d and no canary",
				i, st.Serving, len(st.Versions), st.Canary != nil, 1+cycles)
		}
	}
	return first
}

// maxUnroutable is the share of answers without a candidate above
// which a run fails. The requests are ones simulated routers made, and
// those are routable but for a few marked messages deep in a detour
// round a fault block (none in most runs on the 32x32 mesh, under a
// thousandth on the 12x12 one of the tests) or that churn caught on
// their way; requests made up field by field reach a fifth.
const maxUnroutable = 0.02

// checkTraffic holds a window to that limit and returns the share.
func (w *windowResult) checkTraffic(o *outcome) float64 {
	share := float64(w.unroutable) / float64(max(w.attempted, 1))
	if share > maxUnroutable {
		o.failf("%d of %d decisions were unroutable (%.4f, limit %g): the requests are not ones a router makes",
			w.unroutable, w.attempted, share, maxUnroutable)
	}
	return share
}

// fleetUntraced is the --trace 0 run: set up twenty-five times for the
// set-up sample, keep the last fleet, drive one window, verify.
func fleetUntraced(s fleetSpec, seed int64, seconds float64, quick bool) (*outcome, error) {
	out := &outcome{metrics: metricSet{}}
	in, err := genFleetInputs(seed, quick)
	if err != nil {
		return nil, err
	}
	var setups []float64
	reps := 25
	if quick {
		reps = 1
	}
	var env *fleetEnv
	for i := 0; i < reps; i++ {
		if env != nil {
			env.close()
		}
		// From a collected heap, as a starting routerd has: a collection
		// landing inside a 20 ms set-up, over the harvest and the last
		// fleet's garbage, was half of its run-to-run spread.
		runtime.GC()
		t0 := time.Now()
		if env, err = setupFleet(s, in, quick, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer env.close()

	c0 := env.counters()
	w := env.window(seed, time.Duration(seconds*float64(time.Second)), false, false)
	hits := s.hitRatio(out, c0, env.counters(), quick)
	out.problems = append(out.problems, w.problems...)
	env.verify(out, w.cycles)
	out.attempted, out.failed = w.attempted, w.failed
	if w.failed != 0 {
		out.failf("%d of %d decisions failed", w.failed, w.attempted)
	}
	unroutable := w.checkTraffic(out)
	perSec := fieldOf(w.slices, func(s sliceStat) float64 { return s.perSecond })
	out.metrics["throughput_per_s"] = bestDecile(perSec, true)
	out.metrics["op_p50_us"] = bestDecile(fieldOf(w.slices, func(s sliceStat) float64 { return s.p50 }), false)
	out.metrics["op_p90_us"] = bestDecile(fieldOf(w.slices, func(s sliceStat) float64 { return s.p90 }), false)
	out.metrics["setup_s"] = bestDecile(setups, false)
	out.metrics["peak_rss_mb"] = peakRSSMB()
	transit := 0
	for i := range in.pool {
		if in.pool[i].InPort != routing.InjectionPort {
			transit++
		}
	}
	out.notef("requests: %d harvested, %d in the pool, %d of those transit", len(in.pool)+len(in.fresh), len(in.pool), transit)
	tail := w.rtt.supportedTail()
	out.notef("%d round-trip samples in %d slices of %v; over the whole window %.0f decisions/s, p50 %.1f us, and the highest percentile with ten samples beyond it is p%g = %.1f us; median slice %.0f decisions/s; unroutable share %.4f; cache hit ratio %.4f; %d set-ups, median %.4f s",
		w.rtt.count(), len(w.slices), s.sliceWidth(), w.perSecond(), us(w.rtt.quantile(0.5)), 100*tail, us(w.rtt.quantile(tail)), median(perSec), unroutable, hits, len(setups), median(setups))
	return out, nil
}

// fleetTraced is the --trace 1 run: one fleet, an untraced window and
// a traced window of equal length (and an open-loop one where the spec
// asks for it), then the direct-call probes.
func fleetTraced(name string, s fleetSpec, seed int64, seconds float64, quick bool, outDir string) (*outcome, error) {
	out := &outcome{metrics: metricSet{}}
	m := out.metrics
	parts := 2.0
	if s.openRate > 0 {
		parts = 3
	}
	half := time.Duration(seconds * float64(time.Second) / parts)
	tr := &fleetTracer{log: newSpanLog(int(half.Seconds()*40000) + 4096)}
	in, err := genFleetInputs(seed, quick)
	if err != nil {
		return nil, err
	}
	env, err := setupFleet(s, in, quick, tr)
	if err != nil {
		return nil, err
	}
	defer env.close()

	plain := env.window(seed, half, false, false)
	c0 := env.counters()
	p0 := takeProcSnapshot()
	traced := env.window(seed+1, half, true, false)
	p1 := takeProcSnapshot()
	c1 := env.counters()
	out.problems = append(append(out.problems, plain.problems...), traced.problems...)
	out.attempted = plain.attempted + traced.attempted
	out.failed = plain.failed + traced.failed
	m["fleet.client.unroutable_ratio"] = plain.checkTraffic(out)
	traced.checkTraffic(out)
	cycles := plain.cycles + traced.cycles
	if s.openRate > 0 {
		open := env.window(seed+2, half, false, true)
		out.problems = append(out.problems, open.problems...)
		out.attempted += open.attempted
		out.failed += open.failed
		open.checkTraffic(out)
		cycles += open.cycles
		interval := int64(float64(time.Second) * float64(s.batch) * fleetClients / s.openRate)
		late := 0
		for _, v := range open.lateness.ns {
			if v > interval {
				late++
			}
		}
		m["fleet.open.rtt_p50_us"] = us(open.rtt.quantile(0.50))
		m["fleet.open.rtt_p99_us"] = us(open.rtt.quantile(0.99))
		m["fleet.gen.late_ratio"] = float64(late) / float64(open.lateness.count())
		m["fleet.gen.max_late_us"] = us(open.lateness.max())
		out.notef("open loop at %.0f decisions/s: %d requests timed from their due time, sends began p50 %.1f us after it",
			s.openRate, open.rtt.count(), us(open.lateness.quantile(0.5)))
	}
	first := env.verify(out, cycles)
	if out.failed != 0 {
		out.failf("%d of %d decisions failed", out.failed, out.attempted)
	}

	m["fleet.client.decisions_per_s"] = plain.perSecond()
	m["fleet.client.rtt_p50_us"] = us(plain.rtt.quantile(0.50))
	m["fleet.client.rtt_p99_us"] = us(plain.rtt.quantile(0.99))
	m["fleet.client.rtt_p999_us"] = us(plain.rtt.quantile(0.999))
	m["fleet.client.rtt_samples"] = float64(plain.rtt.count())
	m["fleet.client.error_ratio"] = float64(out.failed) / float64(out.attempted)
	if traced.control.count() > 0 {
		m["fleet.client.control_op_ms_p50"] = float64(traced.control.quantile(0.5)) / 1e6
	}
	m["trace.overhead_ratio"] = plain.perSecond() / traced.perSecond()

	log := tr.log.freeze()
	layerMetrics(m, log.spans, traced.attempted)
	m["fleet.cache.hit_ratio"] = s.hitRatio(out, c0, c1, quick)
	m["fleet.cache.evictions"] = float64(c1.evictions - c0.evictions)
	m["fleet.cache.invalidations"] = float64(c1.invalidations - c0.invalidations)
	m["reconfig.service.decisions"] = float64(c1.decisions - c0.decisions)
	m["reconfig.service.unroutable"] = float64(c1.unroutable - c0.unroutable)
	m["fleet.server.misdirected"] = float64(c1.misdirected)
	procCost(m, p0, p1, traced.attempted)

	if first != nil {
		if err := wireProbe(m, env.pool[:len(first)], first); err != nil {
			return nil, err
		}
	}
	if err := registryProbe(m, env.art, env.g, env.faults, env.pool, env.fresh[:len(env.pool)]); err != nil {
		return nil, err
	}

	// One budget over both lanes: each lane is its own blocking path.
	bud := budget{SelfNs: map[string]int64{}}
	var selfSum int64
	for _, root := range traced.lanes {
		if root < 0 {
			continue
		}
		b := log.selfTimes(root)
		bud.RootNs += b.RootNs
		for k, v := range b.SelfNs {
			bud.SelfNs[k] += v
			selfSum += v
		}
	}
	if bud.RootNs > 0 {
		bud.SumRatio = float64(selfSum) / float64(bud.RootNs)
	}
	m["trace.self_sum_ratio"] = bud.SumRatio
	if bud.SumRatio < 0.95 || bud.SumRatio > 1.05 {
		out.failf("layer self times sum to %.3f of the lane spans", bud.SumRatio)
	}
	path, err := log.write(outDir, name, seed, bud)
	if err != nil {
		return nil, err
	}
	out.notef("%d untraced and %d traced round trips; %d spans, written to %s",
		plain.rtt.count(), traced.rtt.count(), len(log.spans), path)
	return out, nil
}
