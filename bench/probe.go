package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/rulesets"
	"repro/internal/sim"
	"repro/internal/topology"
)

// harvester sits between a simulated network and its routing algorithm
// and keeps the requests the routers put to it, in the service's wire
// form. Requests made up field by field are no substitute: a fifth of
// uniformly drawn (in-port, VC, virtual network, misroutes, marked)
// tuples describe a state the turn rules never let a message reach, and
// the engine answers them "unroutable", on a path real traffic all but
// never takes (sim-mesh16-rules: 0 to 12 of some 200k decisions).
type harvester struct {
	routing.Algorithm
	want int
	// seen drops repeats of a memoization key; nil keeps them, so the
	// sample weighs each state as often as the routers ask about it.
	seen map[fleet.Key]bool
	out  []reconfig.DecisionRequest
}

// RouteAppend is the call the network makes (through routing.RouteInto).
func (h *harvester) RouteAppend(req routing.Request, buf []routing.Candidate) []routing.Candidate {
	if len(h.out) < h.want {
		hdr := req.Hdr
		d := reconfig.DecisionRequest{
			Node: int(req.Node), InPort: req.InPort, InVC: req.InVC,
			Src: int(hdr.Src), Dst: int(hdr.Dst), Length: hdr.Length,
			Misroutes: hdr.Misroutes, Marked: hdr.Marked, Phase: hdr.Phase,
			DetourLevel: hdr.DetourLevel, VNet: hdr.VNet,
		}
		if h.seen == nil {
			h.out = append(h.out, d)
		} else if k := fleet.KeyOf(&d); !h.seen[k] {
			h.seen[k] = true
			h.out = append(h.out, d)
		}
	}
	return routing.RouteInto(h.Algorithm, req, buf)
}

// Route is never called by the network; it is overridden so that no
// caller can reach the algorithm around the harvester.
func (h *harvester) Route(req routing.Request) []routing.Candidate {
	return h.RouteAppend(req, nil)
}

// Blocks hands sim.Run the fault blocks of an algorithm that keeps
// them, so the traffic avoids deactivated nodes as it does without the
// harvester in between.
func (h *harvester) Blocks() *fault.BlockInfo {
	if b, ok := h.Algorithm.(interface{ Blocks() *fault.BlockInfo }); ok {
		return b.Blocks()
	}
	return nil
}

// harvestCycles is the length of one harvesting simulation; a harvest
// that needs more runs another on the next seed.
const harvestCycles = 500

// harvest simulates uniform traffic at rate on g under the fault state
// f and returns the first want routing requests the routers made
// (distinct by memoization key if distinct is set). Everything follows
// from seed.
func harvest(g topology.Graph, alg routing.Algorithm, f *fault.Set, rate float64, seed int64,
	want int, distinct bool) ([]reconfig.DecisionRequest, error) {
	h := &harvester{Algorithm: alg, want: want, out: make([]reconfig.DecisionRequest, 0, want)}
	if distinct {
		h.seen = make(map[fleet.Key]bool, want)
	}
	for round := int64(0); len(h.out) < want; round++ {
		before := len(h.out)
		_, err := sim.Run(sim.Config{
			Graph: g, Algorithm: h, Faults: f, Rate: rate, Length: simLength, Seed: seed + round,
			WarmupCycles: 1, MeasureCycles: harvestCycles, DrainCycles: 1,
		})
		if err != nil {
			return nil, fmt.Errorf("harvesting requests: %w", err)
		}
		if len(h.out) == before {
			return nil, fmt.Errorf("harvesting requests: %d cycles on %s gave no new request (have %d of %d)",
				harvestCycles, g.Name(), before, want)
		}
	}
	return h.out, nil
}

// asRouting turns the wire form into the engine's request, as
// reconfig.Service.Decide does.
func asRouting(d *reconfig.DecisionRequest, hdr *routing.Header) routing.Request {
	*hdr = routing.Header{
		Src: topology.NodeID(d.Src), Dst: topology.NodeID(d.Dst), Length: d.Length,
		Misroutes: d.Misroutes, Marked: d.Marked, Phase: d.Phase,
		DetourLevel: d.DetourLevel, VNet: d.VNet,
	}
	return routing.Request{Node: topology.NodeID(d.Node), InPort: d.InPort, InVC: d.InVC, Hdr: hdr}
}

// decideNs times RouteInto over reqs and returns nanoseconds per
// decision.
func decideNs(alg routing.Algorithm, reqs []reconfig.DecisionRequest) float64 {
	var hdr routing.Header
	buf := make([]routing.Candidate, 0, 16)
	start := time.Now()
	for i := range reqs {
		buf = routing.RouteInto(alg, asRouting(&reqs[i], &hdr), buf[:0])
	}
	return float64(time.Since(start)) / float64(len(reqs))
}

// decisionProbe times the workload's decision engine outside the
// simulation, on the fault state the run ended in and on the requests
// a simulation of the workload in that state makes: the dense path,
// the interpreted reference path, the native algorithm, the fault
// fixpoint, and the compile and table-build steps set-up pays for.
func decisionProbe(m metricSet, s simSpec, f *fault.Set, seed int64, quick bool) error {
	g := s.graph()
	n := 100000
	if quick {
		n = 2000
	}
	walker, err := s.algorithm(g)
	if err != nil {
		return err
	}
	reqs, err := harvest(g, walker, f, s.rate, seed, n, false)
	if err != nil {
		return err
	}

	alg, err := s.algorithm(g)
	if err != nil {
		return err
	}
	start := time.Now()
	alg.UpdateFaults(f)
	m["routing.update_faults_us"] = us(int64(time.Since(start)))

	// A rule engine is timed on its dense path, then pinned to the
	// interpreted reference path, then its native counterpart is timed.
	native := alg
	var disableFast func()
	switch a := alg.(type) {
	case *rulesets.RuleNAFTA:
		disableFast = func() { a.DisableFast = true }
		native = routing.NewNAFTA(g.(*topology.Mesh))
	case *rulesets.RuleRouteC:
		disableFast = func() { a.DisableFast = true }
		native = routing.NewRouteC(g.(*topology.Hypercube))
	}
	if disableFast != nil {
		m["rulesets.decide_ns"] = decideNs(alg, reqs)
		disableFast()
		m["rulesets.decide_interp_ns"] = decideNs(alg, reqs)
		native.UpdateFaults(f)
	}
	m["routing.decide_ns"] = decideNs(native, reqs)

	var prog *rulesets.Program
	var bases []string
	switch s.alg {
	case "rule-nafta":
		prog, err = rulesets.LoadNAFTA()
		bases = rulesets.NAFTADecisionBases
	case "rule-routec":
		prog, err = rulesets.LoadRouteC(s.cube, 2)
		bases = rulesets.RouteCDecisionBases
	default:
		return nil
	}
	if err != nil {
		return err
	}
	return tableProbe(m, prog, bases)
}

// tableProbe compiles the decision bases and builds their dense
// tables, timing both and summing the ARON table bits.
func tableProbe(m metricSet, prog *rulesets.Program, bases []string) error {
	layout := core.NewInputLayout(prog.Checked)
	var compile, dense time.Duration
	var bits int64
	for _, name := range bases {
		start := time.Now()
		cb, err := core.CompileBase(prog.Checked, name, core.CompileOptions{})
		if err != nil {
			return err
		}
		compile += time.Since(start)
		bits += cb.MemoryBits()
		start = time.Now()
		// A base the dense compiler cannot take stays on the
		// interpreter, as in the adapters; its build time is what the
		// attempt cost.
		_, _ = cb.CompileDense(layout)
		dense += time.Since(start)
	}
	m["core.table_bits"] = float64(bits)
	m["core.compile_ms"] = float64(compile) / 1e6
	m["core.dense_build_ms"] = float64(dense) / 1e6
	return nil
}

// wireProbe times encoding/json on the real wire types for one batch,
// with the calls the client and the server make.
func wireProbe(m metricSet, reqs []reconfig.DecisionRequest, resp []reconfig.Decision) error {
	const rounds = 50
	n := float64(len(reqs) * rounds)
	var reqBytes, respBytes []byte
	var err error

	start := time.Now()
	for i := 0; i < rounds; i++ {
		if reqBytes, err = json.Marshal(reqs); err != nil {
			return err
		}
	}
	m["fleet.wire.req_encode_ns_per_decision"] = float64(time.Since(start)) / n

	start = time.Now()
	for i := 0; i < rounds; i++ {
		var got []reconfig.DecisionRequest
		if err := json.NewDecoder(bytes.NewReader(reqBytes)).Decode(&got); err != nil {
			return err
		}
	}
	m["fleet.wire.req_decode_ns_per_decision"] = float64(time.Since(start)) / n

	var buf bytes.Buffer
	start = time.Now()
	for i := 0; i < rounds; i++ {
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(resp); err != nil {
			return err
		}
	}
	m["fleet.wire.resp_encode_ns_per_decision"] = float64(time.Since(start)) / n
	respBytes = append(respBytes, buf.Bytes()...)

	start = time.Now()
	for i := 0; i < rounds; i++ {
		var got []reconfig.Decision
		if err := json.Unmarshal(respBytes, &got); err != nil {
			return err
		}
	}
	m["fleet.wire.resp_decode_ns_per_decision"] = float64(time.Since(start)) / n

	m["fleet.wire.req_bytes_per_decision"] = float64(len(reqBytes)) / float64(len(reqs))
	m["fleet.wire.resp_bytes_per_decision"] = float64(len(respBytes)) / float64(len(reqs))
	return nil
}

// registryProbe calls the layers under the HTTP surface directly on
// the workload's request stream: the registry with a warm cache (hit
// path), with keys it has not seen (miss path, including the Put), and
// the decision service alone.
func registryProbe(m metricSet, art *reconfig.Artifact, g topology.Graph, f *fault.Set,
	pool, fresh []reconfig.DecisionRequest) error {
	reg, err := fleet.NewRegistry(art, g, fleet.RegistryOptions{CacheEntries: fleetCacheEntries})
	if err != nil {
		return err
	}
	reg.UpdateFaults(f)
	buf := make([]routing.Candidate, 0, 16)
	pass := func(reqs []reconfig.DecisionRequest) (float64, error) {
		start := time.Now()
		for i := range reqs {
			if buf, _, err = reg.Decide(&reqs[i], buf[:0]); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start)) / float64(len(reqs)), nil
	}
	if _, err := pass(pool); err != nil { // fill
		return err
	}
	if m["fleet.registry.decide_hit_ns"], err = pass(pool); err != nil {
		return err
	}
	if m["fleet.registry.decide_miss_ns"], err = pass(fresh); err != nil {
		return err
	}

	svc, err := reconfig.NewService(art, g, 1)
	if err != nil {
		return err
	}
	svc.UpdateFaults(f)
	start := time.Now()
	for i := range pool {
		if buf, _, err = svc.Decide(&pool[i], buf[:0]); err != nil {
			return err
		}
	}
	m["reconfig.service.decide_ns"] = float64(time.Since(start)) / float64(len(pool))
	return nil
}
