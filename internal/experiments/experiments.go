// Package experiments implements the reproduction of every
// quantitative table and figure of the paper (see DESIGN.md §4 for the
// index). Each experiment returns ready-to-print tables; cmd/tables
// and the benchmark suite share these entry points.
package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/rules"
	"repro/internal/rulesets"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// paperTable1 is the size column of the paper's Table 1, for
// side-by-side comparison.
var paperTable1 = map[string]string{
	"incoming_message":          "1024 x 8",
	"in_message_ft":             "256 x 7",
	"update_dir_table":          "64 x 28",
	"message_finished":          "64 x 8",
	"calculate_new_node_state":  "64 x 9",
	"test_exception":            "32 x 9",
	"tell_my_neighbors":         "16 x 4",
	"flit_finished":             "4 x 4",
	"fault_occured":             "3 x 4",
	"message_from_info_channel": "2 x 3",
	"consider_neighbor_state":   "2 x 7",
}

// paperTable2 likewise for Table 2 (d=6, a=2).
var paperTable2 = map[string]string{
	"decide_dir":   "512 x 4",
	"decide_vc":    "24 x 3", // (4*d) x (1+a) at d=6, a=2
	"update_state": "180 x 7",
	"adaptivity":   "(unspecified)",
}

// paperBaseTable is the single emission path for the paper's rule-base
// tables: one row per rule base in meta order, sizes and FCFB strings
// taken from the same core.BaseCost accessors cmd/rulec's cost report
// uses (golden tests pin both outputs against each other).
func paperBaseTable(title, paperCol string, metas []rulesets.BaseMeta, pc *core.ProgramCost, paper map[string]string) *metrics.Table {
	byName := map[string]*core.BaseCost{}
	for i := range pc.Bases {
		byName[pc.Bases[i].Name] = &pc.Bases[i]
	}
	tb := metrics.NewTable(title, "name", "size", paperCol, "FCFBs", "meaning", "nft")
	for _, m := range metas {
		bc := byName[m.Name]
		nft := ""
		if m.NFT {
			nft = "*"
		}
		tb.AddRow(m.Name, bc.Dim(), paper[m.Name], bc.FCFBString(), m.Meaning, nft)
	}
	return tb
}

// Table1 regenerates the paper's Table 1: the rule bases of NAFTA with
// their compiled table sizes, FCFB inventory and nft markers.
func Table1() (*metrics.Table, error) {
	p, err := rulesets.LoadNAFTA()
	if err != nil {
		return nil, err
	}
	pc, err := core.AnalyzeCost(p.Checked, core.CompileOptions{})
	if err != nil {
		return nil, err
	}
	return paperBaseTable("Table 1: rule bases of NAFTA", "paper size",
		rulesets.NAFTAMeta, pc, paperTable1), nil
}

// Table2 regenerates the paper's Table 2 for the given hypercube
// dimension and adaptivity width (the paper uses d=6, a=2).
func Table2(d, a int) (*metrics.Table, int64, error) {
	p, err := rulesets.LoadRouteC(d, a)
	if err != nil {
		return nil, 0, err
	}
	pc, err := core.AnalyzeCost(p.Checked, core.CompileOptions{})
	if err != nil {
		return nil, 0, err
	}
	tb := paperBaseTable(fmt.Sprintf("Table 2: rule bases of ROUTE_C (d=%d, a=%d)", d, a),
		"paper size (d=6,a=2)", rulesets.RouteCMeta, pc, paperTable2)
	return tb, pc.TotalTableBits, nil
}

// E3Registers reports the register accounting: NAFTA's total and
// FT-only bits (paper: 159 bits in 8 registers, 47 of them for fault
// tolerance) and ROUTE_C's growth with the dimension (paper: 15d +
// 2 log d + 3 bits in 9 registers, 9d of them without fault
// tolerance).
func E3Registers() (*metrics.Table, error) {
	tb := metrics.NewTable("E3: register bits",
		"program", "registers", "bits", "ft-only bits", "paper")
	nafta, err := rulesets.LoadNAFTA()
	if err != nil {
		return nil, err
	}
	rc := core.RegisterUsage(nafta.Checked)
	total, ftOnly, err := nafta.FTOnlyRegisterBits()
	if err != nil {
		return nil, err
	}
	tb.AddRow("NAFTA", rc.Registers, total, ftOnly, "159 bits, 8 regs, 47 ft")
	for _, d := range []int{3, 4, 5, 6, 7, 8} {
		p, err := rulesets.LoadRouteC(d, 2)
		if err != nil {
			return nil, err
		}
		rc := core.RegisterUsage(p.Checked)
		tot, ft, err := p.FTOnlyRegisterBits()
		if err != nil {
			return nil, err
		}
		paper := fmt.Sprintf("%d bits (15d+2logd+3)", 15*d+2*int(math.Ceil(math.Log2(float64(d))))+3)
		tb.AddRow(fmt.Sprintf("ROUTE_C d=%d", d), rc.Registers, tot, ft, paper)
	}
	return tb, nil
}

// E4Steps measures the rule interpretations per routing decision: the
// structural per-algorithm step counts (paper Section 5) and the mean
// steps per delivered message in a simulation with faults.
func E4Steps() (*metrics.Table, error) {
	tb := metrics.NewTable("E4: rule interpretations per routing decision",
		"algorithm", "fault-free steps", "worst-case steps", "measured avg steps/hop (faulty net)", "paper")

	type row struct {
		name   string
		ff, wc int
		mk     func() (topology.Graph, routing.Algorithm, *fault.Set)
		paper  string
	}
	meshFaults := func() *fault.Set {
		m := topology.NewMesh(8, 8)
		f := fault.NewSet()
		f.FailNode(m.Node(3, 3))
		f.FailNode(m.Node(4, 4))
		return f
	}
	rows := []row{
		{"NARA", 1, 1, func() (topology.Graph, routing.Algorithm, *fault.Set) {
			m := topology.NewMesh(8, 8)
			return m, routing.NewNARA(m), fault.NewSet()
		}, "1"},
		{"NAFTA", 1, 3, func() (topology.Graph, routing.Algorithm, *fault.Set) {
			m := topology.NewMesh(8, 8)
			return m, routing.NewNAFTA(m), meshFaults()
		}, "1 fault-free, 3 worst case"},
		{"ROUTE_C", 2, 2, func() (topology.Graph, routing.Algorithm, *fault.Set) {
			h := topology.NewHypercube(5)
			f, _ := fault.Random(h, fault.RandomOptions{Nodes: 2, Seed: 4, KeepConnected: true})
			return h, routing.NewRouteC(h), f
		}, "2"},
		{"ROUTE_C-nft", 1, 1, func() (topology.Graph, routing.Algorithm, *fault.Set) {
			h := topology.NewHypercube(5)
			return h, routing.NewRouteCNFT(h), fault.NewSet()
		}, "1"},
	}
	for _, r := range rows {
		g, alg, f := r.mk()
		res, err := sim.Run(sim.Config{
			Graph: g, Algorithm: alg, Faults: f,
			Rate: 0.05, Length: 6, Seed: 5,
			WarmupCycles: 300, MeasureCycles: 1500,
		})
		if err != nil {
			return nil, err
		}
		// One routing decision happens per hop (at the source and at
		// every intermediate router; the destination only ejects).
		perHop := 0.0
		if res.Stats.HopsSum > 0 {
			perHop = float64(res.Stats.StepsSum) / float64(res.Stats.HopsSum)
		}
		tb.AddRow(r.name, r.ff, r.wc, fmt.Sprintf("%.2f", perHop), r.paper)
	}
	return tb, nil
}

// E5Merged measures the exponential blowup of merging decide_dir and
// decide_vc into one rule base (the paper: a merged configuration
// needs a 1024*2^d x (d+1+a) bit rule table).
func E5Merged() (*metrics.Table, error) {
	tb := metrics.NewTable("E5: split vs merged decision rule bases (ROUTE_C)",
		"d", "split entries", "split bits", "merged entries", "merged bits", "paper merged bits")
	for _, d := range []int{3, 4, 5, 6, 7, 8} {
		p, err := rulesets.LoadRouteC(d, 2)
		if err != nil {
			return nil, err
		}
		pc, err := core.AnalyzeCost(p.Checked, core.CompileOptions{})
		if err != nil {
			return nil, err
		}
		var splitEntries, splitBits int64
		for _, b := range pc.Bases {
			if b.Name == "decide_dir" || b.Name == "decide_vc" {
				splitEntries += b.Entries
				splitBits += b.MemoryBits
			}
		}
		prog, err := rules.Parse(rulesets.MergedDecideSource(d, 2))
		if err != nil {
			return nil, err
		}
		mc, err := rules.Analyze(prog)
		if err != nil {
			return nil, err
		}
		cb, err := core.CompileBase(mc, "decide_merged", core.CompileOptions{SizeOnly: true})
		if err != nil {
			return nil, err
		}
		paper := int64(1024) * (1 << uint(d)) * int64(d+1+2)
		tb.AddRow(d, splitEntries, splitBits, cb.Entries, cb.MemoryBits(), paper)
	}
	return tb, nil
}

// E6FaultChain reproduces the Figure 2 argument: a chain of faulty
// links attached to the border. Correct side selection at the chain
// head needs knowledge growing with the chain length |F|; NAFTA's
// per-node state is what our implementation stores (a clear-run
// counter of ceil(log2 W) bits per direction), and the residual
// condition-3 violations are counted.
func E6FaultChain(w, h int) (*metrics.Table, error) {
	m := topology.NewMesh(w, h)
	tb := metrics.NewTable(fmt.Sprintf("E6: fault chain on %s (Figure 2)", m.Name()),
		"chain len |F|", "reachable pairs", "delivered", "violations", "avg detour excess",
		"list-of-faults bits", "per-node state bits")
	for _, L := range []int{1, 2, 3, 4, 5, 6} {
		if L >= w {
			break
		}
		f, err := fault.Chain(m, h/2, L)
		if err != nil {
			return nil, err
		}
		alg := routing.NewNAFTA(m)
		alg.UpdateFaults(f)
		filter := f.Filter()
		reachable, delivered := 0, 0
		var excess, excessN int64
		for s := 0; s < m.Nodes(); s++ {
			for d := 0; d < m.Nodes(); d++ {
				if s == d {
					continue
				}
				src, dst := topology.NodeID(s), topology.NodeID(d)
				if !topology.Reachable(m, src, dst, filter) {
					continue
				}
				reachable++
				ok, hops := walkOnce(m, alg, src, dst, 6*m.Nodes())
				if ok {
					delivered++
					short := topology.BFSDist(m, src, filter)[dst]
					excess += int64(hops - short)
					excessN++
				}
			}
		}
		listBits := L * int(math.Ceil(math.Log2(float64(m.Nodes()))))
		stateBits := 4 * int(math.Ceil(math.Log2(float64(w)))) // clear-run counters
		avgExcess := 0.0
		if excessN > 0 {
			avgExcess = float64(excess) / float64(excessN)
		}
		tb.AddRow(L, reachable, delivered, reachable-delivered,
			fmt.Sprintf("%.2f", avgExcess), listBits, stateBits)
	}
	return tb, nil
}

// walkOnce drives one message without contention (FirstFit).
func walkOnce(g topology.Graph, alg routing.Algorithm, src, dst topology.NodeID, maxHops int) (bool, int) {
	hdr := &routing.Header{Src: src, Dst: dst, Length: 4}
	req := routing.Request{Node: src, InPort: routing.InjectionPort, Hdr: hdr}
	hops := 0
	for req.Node != dst {
		cands := alg.RouteAppend(req, nil)
		if len(cands) == 0 {
			return false, hops
		}
		routing.ApplyHop(hdr, req.Node, cands[0])
		next := g.Neighbor(req.Node, cands[0].Port)
		back, _ := g.PortTo(next, req.Node)
		req = routing.Request{Node: next, InPort: back, InVC: cands[0].VC, Hdr: hdr}
		if hops++; hops > maxHops {
			return false, hops
		}
	}
	return true, hops
}

// E7LatencyVsLoad produces the latency/throughput-vs-offered-load
// curves: mesh (XY vs NARA vs NAFTA) and hypercube (e-cube vs ROUTE_C
// vs stripped ROUTE_C), fault-free.
func E7LatencyVsLoad(quick bool) (*metrics.Table, *metrics.Table, error) {
	rates := []float64{0.05, 0.15, 0.25, 0.35, 0.45}
	measure := int64(4000)
	if quick {
		rates = []float64{0.05, 0.25}
		measure = 1200
	}
	meshTb := metrics.NewTable("E7a: 16x16 mesh, fault-free (uniform and adversarial transpose)",
		"algorithm", "pattern", "load (flits/node/cyc)", "avg latency", "throughput", "queue growth")
	m := topology.NewMesh(16, 16)
	meshAlgs := []func() routing.Algorithm{
		func() routing.Algorithm { return routing.NewXY(m) },
		func() routing.Algorithm { return routing.NewNARA(m) },
		func() routing.Algorithm { return routing.NewNAFTA(m) },
	}
	meshPatterns := []traffic.Pattern{
		traffic.Uniform{Nodes: m.Nodes()},
		traffic.Transpose{Mesh: m},
	}
	for _, pat := range meshPatterns {
		for _, mk := range meshAlgs {
			for _, rate := range rates {
				alg := mk()
				res, err := sim.Run(sim.Config{
					Graph: m, Algorithm: alg, Pattern: pat, Rate: rate, Length: 8, Seed: 42,
					WarmupCycles: 800, MeasureCycles: measure,
				})
				if err != nil {
					return nil, nil, err
				}
				meshTb.AddRow(alg.Name(), pat.Name(), rate, fmt.Sprintf("%.1f", res.Stats.AvgNetLatency()),
					fmt.Sprintf("%.3f", res.Throughput()), res.QueueGrowth)
			}
		}
	}
	cubeTb := metrics.NewTable("E7b: 64-node hypercube, uniform traffic, fault-free",
		"algorithm", "load (flits/node/cyc)", "avg latency", "throughput", "queue growth")
	hc := topology.NewHypercube(6)
	cubeAlgs := []func() routing.Algorithm{
		func() routing.Algorithm { return routing.NewECube(hc) },
		func() routing.Algorithm { return routing.NewRouteCNFT(hc) },
		func() routing.Algorithm { return routing.NewRouteC(hc) },
	}
	for _, mk := range cubeAlgs {
		for _, rate := range rates {
			alg := mk()
			res, err := sim.Run(sim.Config{
				Graph: hc, Algorithm: alg, Rate: rate, Length: 8, Seed: 42,
				WarmupCycles: 800, MeasureCycles: measure,
			})
			if err != nil {
				return nil, nil, err
			}
			cubeTb.AddRow(alg.Name(), rate, fmt.Sprintf("%.1f", res.Stats.AvgNetLatency()),
				fmt.Sprintf("%.3f", res.Throughput()), res.QueueGrowth)
		}
	}
	return meshTb, cubeTb, nil
}

// E8Degradation measures graceful degradation: delivery ratio, latency
// and throughput as the number of node faults grows, for the
// fault-tolerant algorithms, the oblivious baselines and the
// spanning-tree strawman.
func E8Degradation(quick bool) (*metrics.Table, *metrics.Table, error) {
	counts := []int{0, 2, 4, 6, 8}
	measure := int64(3000)
	if quick {
		counts = []int{0, 4}
		measure = 1000
	}
	m := topology.NewMesh(12, 12)
	meshTb := metrics.NewTable("E8a: 12x12 mesh, 0.10 flits/node/cyc, node faults",
		"algorithm", "faults", "delivered ratio", "avg latency", "throughput", "misroutes/msg")
	meshAlgs := []func() routing.Algorithm{
		func() routing.Algorithm { return routing.NewXY(m) },
		func() routing.Algorithm { return routing.NewTree(m) },
		func() routing.Algorithm { return routing.NewNAFTA(m) },
	}
	for _, mk := range meshAlgs {
		for _, k := range counts {
			f, err := fault.Random(m, fault.RandomOptions{Nodes: k, Seed: 11, KeepConnected: true})
			if err != nil {
				return nil, nil, err
			}
			alg := mk()
			res, err := sim.Run(sim.Config{
				Graph: m, Algorithm: alg, Faults: f, Rate: 0.10, Length: 8, Seed: 13,
				WarmupCycles: 600, MeasureCycles: measure,
			})
			if err != nil {
				return nil, nil, err
			}
			mis := 0.0
			if res.Stats.Delivered > 0 {
				mis = float64(res.Stats.MisroutesSum) / float64(res.Stats.Delivered)
			}
			meshTb.AddRow(alg.Name(), k, fmt.Sprintf("%.3f", res.Stats.DeliveredRatio()),
				fmt.Sprintf("%.1f", res.Stats.AvgNetLatency()),
				fmt.Sprintf("%.3f", res.Throughput()), fmt.Sprintf("%.2f", mis))
		}
	}
	hc := topology.NewHypercube(6)
	cubeTb := metrics.NewTable("E8b: 64-node hypercube, 0.10 flits/node/cyc, node faults",
		"algorithm", "faults", "delivered ratio", "avg latency", "throughput", "misroutes/msg")
	cubeAlgs := []func() routing.Algorithm{
		func() routing.Algorithm { return routing.NewECube(hc) },
		func() routing.Algorithm { return routing.NewRouteC(hc) },
	}
	cubeCounts := []int{0, 2, 4, 5} // n-1 = 5 is the guarantee bound
	if quick {
		cubeCounts = []int{0, 4}
	}
	for _, mk := range cubeAlgs {
		for _, k := range cubeCounts {
			f, err := fault.Random(hc, fault.RandomOptions{Nodes: k, Seed: 11, KeepConnected: true})
			if err != nil {
				return nil, nil, err
			}
			alg := mk()
			res, err := sim.Run(sim.Config{
				Graph: hc, Algorithm: alg, Faults: f, Rate: 0.10, Length: 8, Seed: 13,
				WarmupCycles: 600, MeasureCycles: measure,
			})
			if err != nil {
				return nil, nil, err
			}
			mis := 0.0
			if res.Stats.Delivered > 0 {
				mis = float64(res.Stats.MisroutesSum) / float64(res.Stats.Delivered)
			}
			cubeTb.AddRow(alg.Name(), k, fmt.Sprintf("%.3f", res.Stats.DeliveredRatio()),
				fmt.Sprintf("%.1f", res.Stats.AvgNetLatency()),
				fmt.Sprintf("%.3f", res.Throughput()), fmt.Sprintf("%.2f", mis))
		}
	}
	return meshTb, cubeTb, nil
}

// E9DecisionTime measures the impact of the routing-decision time on
// network latency (the claim of [DLO97] the paper builds on): the
// per-step cycle cost is swept while NAFTA routes a faulty mesh, where
// fault handling costs extra interpretation steps.
func E9DecisionTime(quick bool) (*metrics.Table, error) {
	m := topology.NewMesh(12, 12)
	f := fault.NewSet()
	f.FailNode(m.Node(5, 5))
	f.FailNode(m.Node(6, 6))
	measure := int64(3000)
	if quick {
		measure = 1000
	}
	tb := metrics.NewTable("E9: decision time vs network latency (NAFTA, 12x12 mesh, 2 faults)",
		"cycles/step", "load", "avg latency", "throughput")
	for _, cyc := range []int{1, 2, 3, 4} {
		for _, rate := range []float64{0.05, 0.20} {
			alg := routing.NewNAFTA(m)
			res, err := sim.Run(sim.Config{
				Graph: m, Algorithm: alg, Faults: f, Rate: rate, Length: 8, Seed: 19,
				DecisionCyclesPerStep: cyc,
				WarmupCycles:          600, MeasureCycles: measure,
			})
			if err != nil {
				return nil, err
			}
			tb.AddRow(cyc, rate, fmt.Sprintf("%.1f", res.Stats.AvgNetLatency()),
				fmt.Sprintf("%.3f", res.Throughput()))
		}
	}
	return tb, nil
}

// E10Ablations evaluates the design choices: convex fault-block
// completion on/off, the adaptivity selection policy, and the ARON
// direct-indexing optimisation.
func E10Ablations(quick bool) ([]*metrics.Table, error) {
	measure := int64(2500)
	if quick {
		measure = 1000
	}
	var out []*metrics.Table

	// (a) Convex completion on/off under a concave (L-shaped) fault
	// pattern — the case the completion exists for.
	m := topology.NewMesh(12, 12)
	blocksTb := metrics.NewTable("E10a: NAFTA convex completion ablation (12x12, L-shaped fault region)",
		"variant", "deactivated nodes", "delivered ratio", "avg latency", "misroutes/msg")
	for _, disable := range []bool{false, true} {
		f, err := fault.LShape(m, 4, 4, 4, 4)
		if err != nil {
			return nil, err
		}
		alg := routing.NewNAFTA(m)
		alg.DisableBlocks = disable
		res, err := sim.Run(sim.Config{
			Graph: m, Algorithm: alg, Faults: f, Rate: 0.08, Length: 8, Seed: 29,
			WarmupCycles: 600, MeasureCycles: measure,
		})
		if err != nil {
			return nil, err
		}
		name := "convex completion"
		deactivated := 0
		if blocks := alg.Blocks(); blocks != nil {
			deactivated = blocks.Deactivated
		}
		if disable {
			name = "raw faults only"
		}
		mis := 0.0
		if res.Stats.Delivered > 0 {
			mis = float64(res.Stats.MisroutesSum) / float64(res.Stats.Delivered)
		}
		blocksTb.AddRow(name, deactivated, fmt.Sprintf("%.3f", res.Stats.DeliveredRatio()),
			fmt.Sprintf("%.1f", res.Stats.AvgNetLatency()), fmt.Sprintf("%.2f", mis))
	}
	out = append(out, blocksTb)

	// (b) Selection policy on the adversarial transpose pattern.
	selTb := metrics.NewTable("E10b: adaptivity criterion (NARA, 8x8 transpose, 0.5 load)",
		"selector", "throughput", "avg latency")
	m8 := topology.NewMesh(8, 8)
	sels := []routing.Selector{routing.FirstFit{}, routing.MaxCredit{}, routing.MinQueue{}, routing.NewRoundRobin()}
	for _, sel := range sels {
		res, err := sim.Run(sim.Config{
			Graph: m8, Algorithm: routing.NewNARA(m8), Selector: sel,
			Pattern: traffic.Transpose{Mesh: m8},
			Rate:    0.5, Length: 8, Seed: 31,
			WarmupCycles: 500, MeasureCycles: measure,
		})
		if err != nil {
			return nil, err
		}
		selTb.AddRow(sel.Name(), fmt.Sprintf("%.3f", res.Throughput()),
			fmt.Sprintf("%.1f", res.Stats.AvgNetLatency()))
	}
	out = append(out, selTb)

	// (c) ARON premise structuring ablation: subbase modularisation
	// and direct indexing on/off for the NAFTA decision bases.
	p, err := rulesets.LoadNAFTA()
	if err != nil {
		return nil, err
	}
	monoProg, err := rules.Parse(rulesets.NAFTAMonolithicDecisionSource())
	if err != nil {
		return nil, err
	}
	mono, err := rules.Analyze(monoProg)
	if err != nil {
		return nil, err
	}
	idxTb := metrics.NewTable("E10c: ARON premise-structuring ablation (NAFTA decision bases, bits)",
		"rule base", "subbases+fields", "monolithic, fields", "monolithic, features only")
	for _, name := range []string{"in_message_ft", "test_exception"} {
		with, err := core.CompileBase(p.Checked, name, core.CompileOptions{})
		if err != nil {
			return nil, err
		}
		monoFields, err := core.CompileBase(mono, name, core.CompileOptions{SizeOnly: true})
		if err != nil {
			return nil, err
		}
		monoFlat, err := core.CompileBase(mono, name, core.CompileOptions{NoFields: true, SizeOnly: true})
		if err != nil {
			return nil, err
		}
		idxTb.AddRow(name, with.MemoryBits(), monoFields.MemoryBits(), monoFlat.MemoryBits())
	}
	out = append(out, idxTb)
	return out, nil
}

// E11NegHop contrasts the two ways Section 3 describes for buying
// fault-tolerant deadlock freedom: NAFTA's two virtual channels plus
// distributed fault state, and the negative-hop scheme's pure VC
// budget with zero fault state ("for the negative hop scheme ... no
// changes to the deadlock avoidance are necessary at all"). The VC
// count is swept; delivery and latency show what the missing fault
// knowledge costs.
func E11NegHop(quick bool) (*metrics.Table, error) {
	measure := int64(2500)
	if quick {
		measure = 1000
	}
	m := topology.NewMesh(12, 12)
	f, err := fault.Random(m, fault.RandomOptions{Nodes: 6, Seed: 5, KeepConnected: true})
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("E11: VC budget vs fault state (12x12 mesh, 6 node faults, 0.08 load)",
		"algorithm", "VCs", "fault state", "delivered ratio", "avg latency", "misroutes/msg")
	run := func(alg routing.Algorithm, state string) error {
		res, err := sim.Run(sim.Config{
			Graph: m, Algorithm: alg, Faults: f, Rate: 0.08, Length: 8, Seed: 7,
			WarmupCycles: 600, MeasureCycles: measure,
		})
		if err != nil {
			return err
		}
		mis := 0.0
		if res.Stats.Delivered > 0 {
			mis = float64(res.Stats.MisroutesSum) / float64(res.Stats.Delivered)
		}
		tb.AddRow(alg.Name(), alg.NumVCs(), state,
			fmt.Sprintf("%.3f", res.Stats.DeliveredRatio()),
			fmt.Sprintf("%.1f", res.Stats.AvgNetLatency()), fmt.Sprintf("%.2f", mis))
		return nil
	}
	for _, vcs := range []int{4, 8, 12, 16} {
		alg, err := routing.NewNegHop(m, vcs)
		if err != nil {
			return nil, err
		}
		if err := run(alg, "none (local only)"); err != nil {
			return nil, err
		}
	}
	if err := run(routing.NewNAFTA(m), "propagated per-node"); err != nil {
		return nil, err
	}
	return tb, nil
}

// E12Reconfiguration quantifies the paper's motivating claim (Section
// 1): if the network handles faults itself, the reconfiguration
// overhead after a fault shrinks to a minimum. A fault hits a loaded
// mesh mid-run; the spanning-tree strawman must rebuild its global
// tree (killing and detouring everything over fresh paths), while
// NAFTA only propagates local state. Reported: messages killed by the
// event, delivery before/after, and the latency penalty after the
// fault.
func E12Reconfiguration(quick bool) (*metrics.Table, error) {
	phase := int64(2500)
	if quick {
		phase = 1200
	}
	m := topology.NewMesh(12, 12)
	victim := m.Node(6, 6)
	tb := metrics.NewTable("E12: reconfiguration after a mid-run node fault (12x12 mesh, 0.10 load)",
		"algorithm", "killed by event", "latency before", "latency after", "delivered after")
	for _, mk := range []func() routing.Algorithm{
		func() routing.Algorithm { return routing.NewTree(m) },
		func() routing.Algorithm { return routing.NewUpDown(m) },
		func() routing.Algorithm { return routing.NewNAFTA(m) },
	} {
		alg := mk()
		// Phase 1: fault-free steady state.
		before, err := sim.Run(sim.Config{
			Graph: m, Algorithm: alg, Rate: 0.10, Length: 8, Seed: 37,
			WarmupCycles: 600, MeasureCycles: phase,
		})
		if err != nil {
			return nil, err
		}
		// Phase 2: same configuration, but the fault fires just inside
		// the measurement window, so the killed messages and the
		// latency disturbance of the reconfiguration are captured.
		alg2 := mk()
		sched2 := fault.NewSchedule(nil)
		sched2.AddNodeFault(700, victim)
		after, err := sim.Run(sim.Config{
			Graph: m, Algorithm: alg2, Rate: 0.10, Length: 8, Seed: 37,
			FaultSchedule: sched2,
			WarmupCycles:  600,
			MeasureCycles: phase,
		})
		if err != nil {
			return nil, err
		}
		tb.AddRow(alg2.Name(), after.Stats.Killed,
			fmt.Sprintf("%.1f", before.Stats.AvgNetLatency()),
			fmt.Sprintf("%.1f", after.Stats.AvgNetLatency()),
			fmt.Sprintf("%.3f", after.Stats.DeliveredRatio()))
	}
	return tb, nil
}

// E13MarkedPriority measures the Section 3 fairness suggestion: favour
// messages misrouted by faults in switch allocation "to compensate the
// double disadvantage of the longer path and higher loaded links".
func E13MarkedPriority(quick bool) (*metrics.Table, error) {
	measure := int64(3000)
	if quick {
		measure = 1200
	}
	m := topology.NewMesh(12, 12)
	f, err := fault.Random(m, fault.RandomOptions{Nodes: 5, Seed: 41, KeepConnected: true})
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("E13: favouring fault-detoured messages (NAFTA, 12x12, 5 faults, 0.15 load)",
		"policy", "avg latency", "p99 latency", "marked msgs", "delivered ratio")
	for _, favor := range []bool{false, true} {
		alg := routing.NewNAFTA(m)
		res, err := sim.Run(sim.Config{
			Graph: m, Algorithm: alg, Faults: f, Rate: 0.15, Length: 8, Seed: 43,
			FavorMarked:    favor,
			TrackLatencies: true,
			WarmupCycles:   600, MeasureCycles: measure,
		})
		if err != nil {
			return nil, err
		}
		name := "round-robin"
		if favor {
			name = "favour marked"
		}
		tb.AddRow(name,
			fmt.Sprintf("%.1f", res.Stats.AvgNetLatency()),
			fmt.Sprintf("%.0f", res.LatencyP99),
			res.Stats.MarkedCount,
			fmt.Sprintf("%.3f", res.Stats.DeliveredRatio()))
	}
	return tb, nil
}
