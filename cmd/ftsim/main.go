// Command ftsim runs one wormhole-network simulation and reports its
// steady-state statistics:
//
//	ftsim -topo mesh16x16 -alg nafta -rate 0.15 -faults 4
//	ftsim -topo cube6 -alg routec -rate 0.10 -faults 3 -pattern bitreverse
//
// Topologies: meshWxH, cubeD, torusWxH, irregN+E. Algorithms: xy,
// nara, nafta, rule-nafta, maze, rule-maze, tree, updown, torusdor,
// ecube, routec, rule-routec, routec-nft, neghop. Patterns: uniform,
// transpose, bitcomplement, bitreverse, tornado, hotspot, neighbor.
//
// The flight recorder (internal/trace) is attached with -trace:
//
//	ftsim -topo mesh8x8 -alg nafta -trace run.jsonl
//	ftsim -topo mesh8x8 -alg nafta -trace run.json -trace-format chrome
//
// A chrome-format trace opens directly in chrome://tracing or
// https://ui.perfetto.dev. With -postmortem DIR, a detected deadlock
// or livelock (see -livelock) writes a structured report naming the
// cycle, the blocked packets and the channel-wait cycle to
// DIR/postmortem-<cycle>.json and prints its summary.
//
// -perf appends a performance summary: wall-clock cycles/s over the
// whole run and the peak per-stage active-set sizes (how many live
// (node, port, VC) slots each pipeline stage ever had to visit):
//
//	ftsim -topo mesh64x64 -alg nafta -rate 0.02 -perf
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
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

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit, so the flag
// validation and the trace pipeline are testable end to end.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ftsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	topo := fs.String("topo", "mesh16x16", "topology (meshWxH, cubeD, torusWxH, irregN+E)")
	algName := fs.String("alg", "nafta", "routing algorithm ("+strings.Join(algNames, ", ")+")")
	patName := fs.String("pattern", "uniform", "traffic pattern ("+strings.Join(patternNames, ", ")+")")
	rate := fs.Float64("rate", 0.10, "offered load in flits/node/cycle")
	length := fs.Int("length", 8, "message length in flits")
	faultNodes := fs.Int("faults", 0, "random node faults")
	faultLinks := fs.Int("flinks", 0, "random link faults")
	seed := fs.Int64("seed", 1, "PRNG seed")
	warmup := fs.Int64("warmup", 1000, "warm-up cycles")
	measure := fs.Int64("measure", 4000, "measurement cycles")
	decision := fs.Int("decision", 1, "cycles per rule-interpretation step")
	traceFile := fs.String("trace", "", "write a flight-recorder event stream to this file")
	traceFormat := fs.String("trace-format", trace.FormatJSONL,
		"trace file format: "+trace.FormatJSONL+" or "+trace.FormatChrome)
	postmortem := fs.String("postmortem", "", "directory for automatic deadlock/livelock reports")
	livelock := fs.Int64("livelock", 0, "livelock age bound in cycles (0 = disabled)")
	perf := fs.Bool("perf", false, "print a performance summary (wall-clock cycles/s, peak active-set sizes)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	g, err := parseTopo(*topo)
	if err != nil {
		return die(stderr, err)
	}
	alg, err := parseAlg(*algName, g)
	if err != nil {
		return die(stderr, err)
	}
	pat, err := parsePattern(*patName, g)
	if err != nil {
		return die(stderr, err)
	}
	var f *fault.Set
	if *faultNodes > 0 || *faultLinks > 0 {
		f, err = fault.Random(g, fault.RandomOptions{
			Nodes: *faultNodes, Links: *faultLinks, Seed: *seed, KeepConnected: true,
		})
		if err != nil {
			return die(stderr, err)
		}
		fmt.Fprintln(stdout, "injected", f)
	}

	cfg := sim.Config{
		Graph: g, Algorithm: alg, Pattern: pat,
		Rate: *rate, Length: *length, Seed: *seed,
		Faults:                f,
		WarmupCycles:          *warmup,
		MeasureCycles:         *measure,
		DecisionCyclesPerStep: *decision,
		LivelockAgeCycles:     *livelock,
	}

	// Attach the flight recorder when tracing or post-mortems are
	// requested (post-mortems alone still want the event tail).
	var rec *trace.Recorder
	if *traceFile != "" || *postmortem != "" {
		rec = trace.New(g.Nodes(), 0)
		cfg.Recorder = rec
	}
	var traceOut *os.File
	if *traceFile != "" {
		sink, err := newFileSink(*traceFormat, *traceFile, &traceOut)
		if err != nil {
			return die(stderr, err)
		}
		rec.SetSink(sink)
		// Rule-table algorithms additionally stream their fired rules.
		if a, ok := alg.(rulesets.Adapter); ok {
			a.RuleEngine().OnRuleFired, _ = rulesets.TraceRules(rec)
		}
	}

	// -perf wants the network itself (cycle count, active-set peaks),
	// which sim.Run builds internally; OnNetwork hands it out.
	var net *network.Network
	if *perf {
		cfg.OnNetwork = func(n *network.Network) { net = n }
	}
	start := time.Now()
	res, err := sim.Run(cfg)
	elapsed := time.Since(start)
	if rec != nil {
		if cerr := rec.Close(); cerr != nil {
			fmt.Fprintln(stderr, "ftsim: trace sink:", cerr)
		}
		if traceOut != nil {
			traceOut.Close()
			fmt.Fprintf(stdout, "trace           %s (%s, %d ring events retained)\n",
				*traceFile, *traceFormat, len(rec.Events()))
		}
	}
	if err != nil {
		return die(stderr, err)
	}
	st := res.Stats
	fmt.Fprintf(stdout, "topology        %s (%d nodes)\n", g.Name(), g.Nodes())
	fmt.Fprintf(stdout, "algorithm       %s (%d VCs)\n", alg.Name(), alg.NumVCs())
	fmt.Fprintf(stdout, "pattern/load    %s @ %.3f flits/node/cycle, length %d\n", pat.Name(), *rate, *length)
	fmt.Fprintf(stdout, "measured cycles %d\n", st.Cycles)
	fmt.Fprintf(stdout, "delivered       %d (ratio %.4f)\n", st.Delivered, st.DeliveredRatio())
	fmt.Fprintf(stdout, "dropped/killed  %d / %d\n", st.Dropped, st.Killed)
	fmt.Fprintf(stdout, "avg latency     %.2f cycles (network %.2f)\n", st.AvgLatency(), st.AvgNetLatency())
	fmt.Fprintf(stdout, "throughput      %.4f flits/node/cycle\n", res.Throughput())
	fmt.Fprintf(stdout, "avg hops        %.2f, misroutes/msg %.3f, marked %d\n",
		safeDiv(float64(st.HopsSum), float64(st.Delivered)),
		safeDiv(float64(st.MisroutesSum), float64(st.Delivered)), st.MarkedCount)
	fmt.Fprintf(stdout, "interp steps    %.2f per message\n", st.AvgSteps())
	fmt.Fprintf(stdout, "queue growth    %d, drained %v\n", res.QueueGrowth, res.Drained)
	if *perf && net != nil {
		// net.Now() counts every cycle stepped (warmup + measurement +
		// drain), which is what the wall clock covered. The peaks are
		// in live (node, port, VC) slots — the per-stage work-list sizes
		// the active-set engine actually iterates.
		cycles := net.Now()
		pk := net.Peaks()
		fmt.Fprintf(stdout, "perf            %d cycles in %s (%.0f cycles/s)\n",
			cycles, elapsed.Round(time.Millisecond), safeDiv(float64(cycles), elapsed.Seconds()))
		fmt.Fprintf(stdout, "active-set peak route=%d alloc=%d switch=%d drain=%d inject-nodes=%d\n",
			pk.Route, pk.Alloc, pk.Switch, pk.Drain, pk.InjectNodes)
	}
	if res.PostMortem != nil {
		fmt.Fprint(stdout, res.PostMortem.String())
		if *postmortem != "" {
			path, werr := writePostMortem(*postmortem, res.PostMortem)
			if werr != nil {
				fmt.Fprintln(stderr, "ftsim: postmortem:", werr)
			} else {
				fmt.Fprintf(stdout, "post-mortem written to %s\n", path)
			}
		}
	}
	if st.DeadlockSuspected {
		fmt.Fprintln(stdout, "WARNING: deadlock suspected")
		return 2
	}
	return 0
}

// newFileSink creates the trace file and wraps it in the requested
// sink format; *out receives the file handle for closing.
func newFileSink(format, path string, out **os.File) (trace.Sink, error) {
	// Validate the format before touching the filesystem.
	if _, err := trace.NewSink(format, io.Discard); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	sink, err := trace.NewSink(format, f)
	if err != nil {
		f.Close()
		return nil, err
	}
	*out = f
	return sink, nil
}

// writePostMortem persists the report as DIR/postmortem-<cycle>.json.
func writePostMortem(dir string, rep *trace.Report) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("postmortem-%d.json", rep.Cycle))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if err := rep.WriteJSON(f); err != nil {
		return "", err
	}
	return path, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func die(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "ftsim:", err)
	return 1
}

// topoForms, algNames and patternNames are the valid-choice listings
// quoted in parse errors (and the -alg/-pattern usage strings).
var (
	topoForms    = []string{"meshWxH", "torusWxH", "cubeD", "irregN+E"}
	algNames     = []string{"xy", "nara", "nafta", "rule-nafta", "maze", "rule-maze", "tree", "updown", "torusdor", "ecube", "routec", "rule-routec", "routec-nft", "neghop"}
	patternNames = []string{"uniform", "transpose", "bitcomplement", "bitreverse", "tornado", "hotspot", "neighbor"}
)

func parseTopo(s string) (topology.Graph, error) {
	switch {
	case strings.HasPrefix(s, "mesh"):
		var w, h int
		if _, err := fmt.Sscanf(s, "mesh%dx%d", &w, &h); err != nil {
			return nil, fmt.Errorf("bad mesh spec %q (want meshWxH, e.g. mesh16x16)", s)
		}
		if w < 1 || h < 1 {
			return nil, fmt.Errorf("bad mesh spec %q (both dimensions must be >= 1)", s)
		}
		return topology.NewMesh(w, h), nil
	case strings.HasPrefix(s, "torus"):
		var w, h int
		if _, err := fmt.Sscanf(s, "torus%dx%d", &w, &h); err != nil {
			return nil, fmt.Errorf("bad torus spec %q (want torusWxH, e.g. torus8x8)", s)
		}
		if w < 3 || h < 3 {
			return nil, fmt.Errorf("bad torus spec %q (both dimensions must be >= 3)", s)
		}
		return topology.NewTorus(w, h), nil
	case strings.HasPrefix(s, "irreg"):
		var n, extra int
		if _, err := fmt.Sscanf(s, "irreg%d+%d", &n, &extra); err != nil {
			return nil, fmt.Errorf("bad irregular spec %q (want irregN+E, e.g. irreg24+10)", s)
		}
		return topology.RandomIrregular(n, extra, 1)
	case strings.HasPrefix(s, "cube"):
		var d int
		if _, err := fmt.Sscanf(s, "cube%d", &d); err != nil {
			return nil, fmt.Errorf("bad cube spec %q (want cubeD, e.g. cube6)", s)
		}
		if d < 1 || d > 20 {
			return nil, fmt.Errorf("bad cube spec %q (dimension must be 1 to 20)", s)
		}
		return topology.NewHypercube(d), nil
	}
	return nil, fmt.Errorf("unknown topology %q (valid forms: %s)", s, strings.Join(topoForms, ", "))
}

func parseAlg(s string, g topology.Graph) (routing.Algorithm, error) {
	mesh, isMesh := g.(*topology.Mesh)
	cube, isCube := g.(*topology.Hypercube)
	switch s {
	case "xy":
		if !isMesh {
			return nil, fmt.Errorf("xy needs a mesh")
		}
		return routing.NewXY(mesh), nil
	case "nara":
		if !isMesh {
			return nil, fmt.Errorf("nara needs a mesh")
		}
		return routing.NewNARA(mesh), nil
	case "nafta":
		if !isMesh {
			return nil, fmt.Errorf("nafta needs a mesh")
		}
		return routing.NewNAFTA(mesh), nil
	case "rule-nafta":
		if !isMesh {
			return nil, fmt.Errorf("rule-nafta needs a mesh")
		}
		return rulesets.NewRuleNAFTA(mesh)
	case "maze":
		return routing.NewMaze(g)
	case "rule-maze":
		return rulesets.NewRuleMaze(g)
	case "tree":
		return routing.NewTree(g), nil
	case "updown":
		return routing.NewUpDown(g), nil
	case "torusdor":
		torus, isTorus := g.(*topology.Torus)
		if !isTorus {
			return nil, fmt.Errorf("torusdor needs a torus")
		}
		return routing.NewTorusDOR(torus), nil
	case "ecube":
		if !isCube {
			return nil, fmt.Errorf("ecube needs a hypercube")
		}
		return routing.NewECube(cube), nil
	case "routec":
		if !isCube {
			return nil, fmt.Errorf("routec needs a hypercube")
		}
		return routing.NewRouteC(cube), nil
	case "rule-routec":
		if !isCube {
			return nil, fmt.Errorf("rule-routec needs a hypercube")
		}
		return rulesets.NewRuleRouteC(cube)
	case "neghop":
		return routing.NewNegHop(g, g.Ports()*3)
	case "routec-nft":
		if !isCube {
			return nil, fmt.Errorf("routec-nft needs a hypercube")
		}
		return routing.NewRouteCNFT(cube), nil
	}
	return nil, fmt.Errorf("unknown algorithm %q (valid: %s)", s, strings.Join(algNames, ", "))
}

func parsePattern(s string, g topology.Graph) (traffic.Pattern, error) {
	mesh, isMesh := g.(*topology.Mesh)
	switch s {
	case "uniform":
		return traffic.Uniform{Nodes: g.Nodes()}, nil
	case "transpose":
		if !isMesh {
			return nil, fmt.Errorf("transpose needs a mesh")
		}
		return traffic.Transpose{Mesh: mesh}, nil
	case "bitcomplement":
		return traffic.BitComplement{Nodes: g.Nodes()}, nil
	case "bitreverse":
		bits := 0
		for 1<<bits < g.Nodes() {
			bits++
		}
		if 1<<bits != g.Nodes() {
			return nil, fmt.Errorf("bitreverse needs a power-of-two node count")
		}
		return traffic.BitReverse{Bits: bits}, nil
	case "tornado":
		if !isMesh {
			return nil, fmt.Errorf("tornado needs a mesh")
		}
		return traffic.Tornado{Mesh: mesh}, nil
	case "hotspot":
		return traffic.Hotspot{Nodes: g.Nodes(), Hot: []topology.NodeID{0}, Fraction: 0.2}, nil
	case "neighbor":
		return traffic.Neighbor{Graph: g}, nil
	}
	return nil, fmt.Errorf("unknown pattern %q (valid: %s)", s, strings.Join(patternNames, ", "))
}
