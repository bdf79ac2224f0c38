package repro

// One benchmark per reproduced table/figure of the paper (the IDs
// follow DESIGN.md §4). Each benchmark regenerates the corresponding
// result and reports domain-specific metrics alongside the usual
// ns/op. Run a single pass with:
//
//	go test -bench=. -benchtime=1x -benchmem
//
// cmd/tables prints the same tables human-readably.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/rulesets"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// BenchmarkTable1_NAFTARuleBases compiles the 11 NAFTA rule bases and
// reports the total rule-table memory (paper Table 1).
func BenchmarkTable1_NAFTARuleBases(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if tb.Rows() != 11 {
			b.Fatalf("rows = %d", tb.Rows())
		}
	}
}

// BenchmarkTable2_ROUTECRuleBases compiles the 4 ROUTE_C rule bases
// for the paper's d=6, a=2 configuration (paper Table 2, total 2960
// bits).
func BenchmarkTable2_ROUTECRuleBases(b *testing.B) {
	b.ReportAllocs()
	var total int64
	for i := 0; i < b.N; i++ {
		var err error
		_, total, err = experiments.Table2(6, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(total), "table-bits")
}

// BenchmarkE3_RegisterBits accounts the register files of both
// algorithms (paper in-text: NAFTA 159 bits/47 ft; ROUTE_C
// 15d+2logd+3).
func BenchmarkE3_RegisterBits(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E3Registers(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4_DecisionSteps measures rule interpretations per routing
// decision in live simulations (paper: NARA 1, NAFTA 1..3, ROUTE_C 2).
func BenchmarkE4_DecisionSteps(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb, err := experiments.E4Steps()
		if err != nil {
			b.Fatal(err)
		}
		if tb.Rows() != 4 {
			b.Fatal("unexpected table shape")
		}
	}
}

// BenchmarkE5_MergedTableBlowup sizes the monolithic
// decide_dir+decide_vc table against the split bases (paper in-text:
// 1024*2^d x (d+1+a) bits).
func BenchmarkE5_MergedTableBlowup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E5Merged(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6_FaultChainKnowledge reproduces the Figure 2 scenario:
// purposiveness at a fault chain vs the per-node state budget.
func BenchmarkE6_FaultChainKnowledge(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb, err := experiments.E6FaultChain(12, 8)
		if err != nil {
			b.Fatal(err)
		}
		if tb.Rows() == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkE7_LatencyVsLoad sweeps offered load for the mesh and
// hypercube algorithm families (the motivating competitive claim).
func BenchmarkE7_LatencyVsLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.E7LatencyVsLoad(true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8_FaultDegradation sweeps the fault count (conditions 1-3:
// graceful degradation vs the baselines).
func BenchmarkE8_FaultDegradation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.E8Degradation(true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9_DecisionTimeImpact sweeps the per-step decision cycles
// (the [DLO97] decision-time claim).
func BenchmarkE9_DecisionTimeImpact(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E9DecisionTime(true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10_Ablations runs the design-choice ablations (convex
// completion, adaptivity criterion, ARON direct indexing).
func BenchmarkE10_Ablations(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E10Ablations(true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11_NegHopVsState contrasts the negative-hop VC budget
// against NAFTA's fault-state design (Section 3 deadlock-avoidance
// economics).
func BenchmarkE11_NegHopVsState(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E11NegHop(true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed: cycles
// per second of a loaded 16x16 mesh under NAFTA (useful when sizing
// larger studies).
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	m := topology.NewMesh(16, 16)
	f := fault.NewSet()
	f.FailNode(m.Node(7, 7))
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Graph: m, Algorithm: routing.NewNAFTA(m), Faults: f,
			Rate: 0.2, Length: 8, Seed: int64(i),
			WarmupCycles: 200, MeasureCycles: 1000, DrainCycles: 20000,
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Stats.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// selfAddressed spends a destination draw and returns the source, which
// the generator discards: Tick's own walk without network.Inject (whose
// Message allocation belongs to the network's budget).
type selfAddressed struct{}

func (selfAddressed) Name() string { return "self" }
func (selfAddressed) Dest(src topology.NodeID, rng *rand.Rand) topology.NodeID {
	rng.Int63()
	return src
}

// BenchmarkGeneratorTick measures one cycle of Bernoulli injection on
// the sim-mesh64-low shape (4096 nodes, 0.005 flits/node/cycle, length
// 8: ~2.5 successes per cycle) with an Exclude predicate attached. It
// must report 0 allocs/op.
func BenchmarkGeneratorTick(b *testing.B) {
	b.Run("mesh64-rate0.005", func(b *testing.B) {
		m := topology.NewMesh(64, 64)
		net := network.New(network.Config{Graph: m, Algorithm: routing.NewNAFTA(m)})
		faulty := fault.NewSet()
		faulty.FailNode(m.Node(7, 7))
		g := &traffic.Generator{Graph: m, Pattern: selfAddressed{}, Rate: 0.005, Length: 8,
			Rng: rand.New(rand.NewSource(1)), Exclude: faulty.NodeFaulty}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Tick(net)
		}
	})
}

// BenchmarkRouteDecision measures one NAFTA routing decision (the
// software-model cost of what the rule interpreter does in a few
// cycles).
func BenchmarkRouteDecision(b *testing.B) {
	b.ReportAllocs()
	m := topology.NewMesh(16, 16)
	alg := routing.NewNAFTA(m)
	f := fault.NewSet()
	f.FailNode(m.Node(7, 7))
	f.FailNode(m.Node(8, 8))
	alg.UpdateFaults(f)
	hdr := &routing.Header{Src: m.Node(0, 0), Dst: m.Node(15, 15), Length: 8}
	req := routing.Request{Node: m.Node(3, 3), InPort: topology.West, Hdr: hdr}
	buf := make([]routing.Candidate, 0, topology.MeshPorts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = alg.RouteAppend(req, buf[:0])
		if len(buf) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkRuleDecision measures one routing decision through the
// compiled rule tables — the dense fast path (default) against the
// interpreted reference path (DisableFast), for both rule adapters.
func BenchmarkRuleDecision(b *testing.B) {
	b.Run("nafta", func(b *testing.B) {
		m := topology.NewMesh(16, 16)
		f := fault.NewSet()
		f.FailNode(m.Node(7, 7))
		f.FailNode(m.Node(8, 8))
		hdr := &routing.Header{Src: m.Node(0, 0), Dst: m.Node(15, 15), Length: 8}
		req := routing.Request{Node: m.Node(3, 3), InPort: topology.West, Hdr: hdr}
		for _, mode := range []struct {
			name        string
			disableFast bool
		}{{"fast", false}, {"interpreted", true}} {
			b.Run(mode.name, func(b *testing.B) {
				b.ReportAllocs()
				alg, err := rulesets.NewRuleNAFTA(m)
				if err != nil {
					b.Fatal(err)
				}
				alg.DisableFast = mode.disableFast
				alg.UpdateFaults(f)
				buf := make([]routing.Candidate, 0, topology.MeshPorts)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = alg.RouteAppend(req, buf[:0])
					if len(buf) == 0 {
						b.Fatal("no candidates")
					}
				}
			})
		}
	})
	b.Run("routec", func(b *testing.B) {
		h := topology.NewHypercube(6)
		f := fault.NewSet()
		f.FailNode(3)
		hdr := &routing.Header{Src: 0, Dst: 63, Length: 8}
		req := routing.Request{Node: 1, InPort: 0, Hdr: hdr}
		// dir-only: descending on the last level with only ascending
		// work left is "blocked" — decide_dir alone, no decide_vc.
		blocked := routing.Request{Node: 1, InPort: 0,
			Hdr: &routing.Header{Src: 0, Dst: 63, Length: 8, Phase: 1, DetourLevel: 3}}
		for _, mode := range []struct {
			name        string
			disableFast bool
			req         routing.Request
			candidates  bool
		}{{"fast", false, req, true}, {"interpreted", true, req, true}, {"dir-only", false, blocked, false}} {
			b.Run(mode.name, func(b *testing.B) {
				b.ReportAllocs()
				alg, err := rulesets.NewRuleRouteC(h)
				if err != nil {
					b.Fatal(err)
				}
				alg.DisableFast = mode.disableFast
				alg.UpdateFaults(f)
				buf := make([]routing.Candidate, 0, h.Dim)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = alg.RouteAppend(mode.req, buf[:0])
					if (len(buf) != 0) != mode.candidates {
						b.Fatalf("%d candidates", len(buf))
					}
				}
				if want := int64(b.N) * int64(1+len(buf)); alg.Lookups != want {
					b.Fatalf("%d lookups, want %d", alg.Lookups, want)
				}
			})
		}
		b.Run("native", func(b *testing.B) {
			b.ReportAllocs()
			alg := routing.NewRouteC(h)
			alg.UpdateFaults(f)
			for i := 0; i < b.N; i++ {
				if len(alg.RouteAppend(req, nil)) == 0 {
					b.Fatal("no candidates")
				}
			}
		})
	})
}

// BenchmarkDiagnosisFixpoint measures a full fault-state recomputation
// (the diagnosis phase of assumption iv): a 16x16 mesh with eight node
// faults, and the fault-free 64x64 mesh whose UpdateFaults is the
// set-up cost of the bench's sim-mesh64-low workload.
func BenchmarkDiagnosisFixpoint(b *testing.B) {
	for _, c := range []struct {
		name      string
		w, faults int
	}{{"mesh16x16-8faults", 16, 8}, {"mesh64x64-faultfree", 64, 0}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			m := topology.NewMesh(c.w, c.w)
			alg := routing.NewNAFTA(m)
			f, err := fault.Random(m, fault.RandomOptions{Nodes: c.faults, Seed: 3, KeepConnected: true})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				alg.UpdateFaults(f)
			}
		})
	}
}

// BenchmarkEngineBuild measures one rule-table engine build from the
// builtin program text: parse, analyse, compile every decision base
// into its filled table (core.CompileBase) and its dense fast path —
// what each sim round of a rule algorithm, each reconfig.Build and each
// rulec run pays before the first decision. allocs/op is the compiler's
// allocation count per build.
func BenchmarkEngineBuild(b *testing.B) {
	b.Run("rule-nafta/mesh16x16", func(b *testing.B) {
		m := topology.NewMesh(16, 16)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rulesets.NewRuleNAFTA(m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rule-routec/cube8", func(b *testing.B) {
		h := topology.NewHypercube(8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rulesets.NewRuleRouteC(h); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reconfig-build/nafta", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := reconfig.Build("nafta", reconfig.BuildOptions{Epoch: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE12_Reconfiguration measures the disruption of a mid-run
// fault: global tree rebuild vs NAFTA's local state propagation.
func BenchmarkE12_Reconfiguration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E12Reconfiguration(true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13_MarkedPriority measures the Section 3 fairness policy
// for fault-detoured messages.
func BenchmarkE13_MarkedPriority(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E13MarkedPriority(true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkStep measures the per-cycle cost of the network
// pipeline across load levels:
//
//   - low: ~nodes/32 messages in flight — the active-set regime, where
//     per-cycle cost should track live work, not topology size
//   - moderate: ~nodes/4 messages in flight — a loaded but unsaturated
//     network, the headline single-thread comparison point
//   - saturating: ~2 messages per node — every VC busy, the regime the
//     pre-arena benchmarks measured
//
// Injection is refilled outside the timer so the measured loop is
// Step() alone. The sub-benchmark names keep their "/serial" suffix so
// the committed BENCH_*.json baselines still match.
func BenchmarkNetworkStep(b *testing.B) {
	cases := []struct {
		name  string
		loads []string
		make  func() (topology.Graph, routing.Algorithm)
	}{
		{"mesh16x16", []string{"low", "moderate", "saturating"},
			func() (topology.Graph, routing.Algorithm) {
				m := topology.NewMesh(16, 16)
				return m, routing.NewNAFTA(m)
			}},
		{"mesh64x64", []string{"low", "moderate"},
			func() (topology.Graph, routing.Algorithm) {
				m := topology.NewMesh(64, 64)
				return m, routing.NewNAFTA(m)
			}},
		{"cube10", []string{"saturating"},
			func() (topology.Graph, routing.Algorithm) {
				h := topology.NewHypercube(10)
				return h, routing.NewECube(h)
			}},
		// The sim-cube8-sat regime: rule-table ROUTE_C, five VC classes
		// contended (e-cube above has one, so no VC round-robin).
		{"cube8", []string{"saturating"},
			func() (topology.Graph, routing.Algorithm) {
				h := topology.NewHypercube(8)
				alg, err := rulesets.NewRuleRouteC(h)
				if err != nil {
					b.Fatal(err)
				}
				return h, alg
			}},
		{"cube14", []string{"low", "moderate"},
			func() (topology.Graph, routing.Algorithm) {
				h := topology.NewHypercube(14)
				return h, routing.NewECube(h)
			}},
	}
	target := func(load string, nodes int) int {
		switch load {
		case "low":
			t := nodes / 32
			if t < 8 {
				t = 8
			}
			return t
		case "moderate":
			return nodes / 4
		default: // saturating
			return nodes * 2
		}
	}
	for _, c := range cases {
		for _, load := range c.loads {
			b.Run(fmt.Sprintf("%s/%s/serial", c.name, load), func(b *testing.B) {
				g, alg := c.make()
				n := network.New(network.Config{Graph: g, Algorithm: alg})
				want := target(load, g.Nodes())
				rng := rand.New(rand.NewSource(1))
				refill := func() {
					for n.Queued()+n.InFlight() < want {
						src := topology.NodeID(rng.Intn(g.Nodes()))
						dst := topology.NodeID(rng.Intn(g.Nodes()))
						if src != dst {
							n.Inject(src, dst, 8)
						}
					}
				}
				refill()
				for i := 0; i < 100; i++ {
					n.Step() // warm scratch buffers and fill the pipeline
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if n.Queued()+n.InFlight() < want/2 {
						b.StopTimer()
						refill()
						b.StartTimer()
					}
					n.Step()
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
			})
		}
	}
}

// BenchmarkFaultRecompute measures the one fault path: a fault event
// reaching reconfig.Service.UpdateFaults, which records the set and
// runs the diagnosis fixpoint on each shard engine in turn, under that
// shard's lock. Each iteration applies the next single-node fault
// state (every node of the topology in turn) to a one-shard service,
// for rule-NAFTA on a 16x16 mesh and rule-ROUTE_C on an 8-cube. ns/op
// is the mean per event; p99-us is the 99th percentile of the events,
// each timed on its own. ROADMAP bounds that p99 at 1 ms.
func BenchmarkFaultRecompute(b *testing.B) {
	for _, c := range []struct {
		name string
		algo string
		g    topology.Graph
		opts reconfig.BuildOptions
	}{
		{"nafta/mesh16x16", "nafta", topology.NewMesh(16, 16), reconfig.BuildOptions{Epoch: 1}},
		{"routec/cube8", "routec", topology.NewHypercube(8), reconfig.BuildOptions{Epoch: 1, CubeDim: 8}},
	} {
		b.Run(c.name, func(b *testing.B) {
			art, err := reconfig.Build(c.algo, c.opts)
			if err != nil {
				b.Fatal(err)
			}
			svc, err := reconfig.NewService(art, c.g, 1)
			if err != nil {
				b.Fatal(err)
			}
			faults := make([]*fault.Set, c.g.Nodes())
			for n := range faults {
				faults[n] = fault.NewSet()
				faults[n].FailNode(topology.NodeID(n))
			}
			lat := make([]float64, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := range lat {
				t0 := time.Now()
				svc.UpdateFaults(faults[i%len(faults)])
				lat[i] = float64(time.Since(t0).Nanoseconds())
			}
			b.StopTimer()
			sort.Float64s(lat)
			b.ReportMetric(metrics.Quantile(lat, 0.99)/1e3, "p99-us")
		})
	}
}

// BenchmarkFleetDecision measures the fleet decision path of
// internal/fleet: one request through Registry.Decide (shard pick,
// shard mutex, clock pair, engine table walk, latency histogram per
// call) against a 256-request batch through Registry.DecideBatch, which
// pays the per-call part once; batch-256's ns/op is per decision. Each
// sub-benchmark also reports sampled p50/p999 wall-clock per decision
// (2000 individually timed calls, outside the ns/op loop so the
// sampling overhead never distorts the headline number).
func BenchmarkFleetDecision(b *testing.B) {
	g := topology.NewMesh(16, 16)
	art, err := reconfig.Build("nafta", reconfig.BuildOptions{Epoch: 1})
	if err != nil {
		b.Fatal(err)
	}
	f := fault.NewSet()
	f.FailNode(g.Node(7, 7))
	f.FailNode(g.Node(8, 8))

	// A working set of distinct requests, small enough to stay fully
	// resident.
	rng := rand.New(rand.NewSource(1))
	reqs := make([]reconfig.DecisionRequest, 256)
	for i := range reqs {
		src := rng.Intn(g.Nodes())
		dst := rng.Intn(g.Nodes())
		for dst == src {
			dst = rng.Intn(g.Nodes())
		}
		reqs[i] = reconfig.DecisionRequest{
			Node: src, InPort: routing.InjectionPort,
			Src: src, Dst: dst, Length: 8,
		}
	}

	reg, err := fleet.NewRegistry(art, g, fleet.RegistryOptions{Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	reg.UpdateFaults(f)
	buf := make([]routing.Candidate, 0, 8)
	var failed error
	emit := func(_ int, _ []routing.Candidate, _ uint64, err error) {
		if err != nil {
			failed = err
		}
	}
	// sampled reports the p50/p999 per decision of 2000 individually
	// timed calls of n decisions each, in nanoseconds: outside the
	// ns/op loop, so the per-sample clock reads never distort the
	// headline number.
	sampled := func(b *testing.B, n int) {
		const samples = 2000
		lat := make([]float64, samples)
		for i := range lat {
			t0 := time.Now()
			buf = reg.DecideBatch(reqs[:n], buf[:0], emit)
			lat[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
		}
		sort.Float64s(lat)
		b.ReportMetric(metrics.Quantile(lat, 0.50), "p50-ns")
		b.ReportMetric(metrics.Quantile(lat, 0.999), "p999-ns")
	}
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if buf, _, err = reg.Decide(&reqs[i%len(reqs)], buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		sampled(b, 1)
	})
	b.Run("batch-256", func(b *testing.B) {
		b.ReportAllocs()
		// One op is one decision: a batch per len(reqs) ops.
		for done := 0; done < b.N; done += len(reqs) {
			buf = reg.DecideBatch(reqs[:min(len(reqs), b.N-done)], buf[:0], emit)
		}
		b.StopTimer()
		sampled(b, len(reqs))
	})
	if failed != nil {
		b.Fatal(failed)
	}

	// wire/*: what one 256-decision /decide/batch round trip costs in
	// encoding alone — request encode and decode, response encode and
	// decode, no HTTP, no decision — in the JSON encoding (curl's, and
	// the client's before the frame) and in the binary frame the client
	// speaks. One op is the whole round trip; B/decision is request plus
	// response bytes.
	decisions := make([]fleet.Decision, len(reqs))
	for i := range reqs {
		cands, epoch, err := reg.Decide(&reqs[i], nil)
		if err != nil {
			b.Fatal(err)
		}
		decisions[i] = fleet.Decision{Candidates: append([]routing.Candidate{}, cands...), Epoch: epoch, Unroutable: len(cands) == 0}
	}
	b.Run("wire/json-b256", func(b *testing.B) {
		var wire int
		var respBuf bytes.Buffer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reqBytes, err := json.Marshal(reqs)
			if err != nil {
				b.Fatal(err)
			}
			var gotReqs []reconfig.DecisionRequest
			if err := json.NewDecoder(bytes.NewReader(reqBytes)).Decode(&gotReqs); err != nil {
				b.Fatal(err)
			}
			respBuf.Reset()
			if err := json.NewEncoder(&respBuf).Encode(decisions); err != nil {
				b.Fatal(err)
			}
			var got []fleet.Decision
			if err := json.Unmarshal(respBuf.Bytes(), &got); err != nil {
				b.Fatal(err)
			}
			wire = len(reqBytes) + respBuf.Len()
		}
		b.ReportMetric(float64(wire)/float64(len(reqs)), "B/decision")
	})
	b.Run("wire/binary-b256", func(b *testing.B) {
		order := make([]int, len(reqs))
		for i := range order {
			order[i] = i
		}
		var (
			wire          int
			reqBuf, respB []byte
			gotReqs       []reconfig.DecisionRequest
			err           error
		)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if reqBuf, err = fleet.AppendBatchRequest(reqBuf[:0], reqs, order); err != nil {
				b.Fatal(err)
			}
			if gotReqs, err = fleet.DecodeBatchRequest(reqBuf, gotReqs[:0]); err != nil {
				b.Fatal(err)
			}
			if respB, err = fleet.AppendBatchResponse(respB[:0], decisions); err != nil {
				b.Fatal(err)
			}
			got := make([]fleet.Decision, len(reqs)) // the client's one []Decision per batch
			if err = fleet.DecodeBatchResponse(respB, got, order); err != nil {
				b.Fatal(err)
			}
			wire = len(reqBuf) + len(respB)
		}
		b.ReportMetric(float64(wire)/float64(len(reqs)), "B/decision")
	})
}
