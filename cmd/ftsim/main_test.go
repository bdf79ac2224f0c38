package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/topology"
	"repro/internal/trace"
)

func TestParseTopo(t *testing.T) {
	g, err := parseTopo("mesh8x4")
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := g.(*topology.Mesh); !ok || m.W != 8 || m.H != 4 {
		t.Fatalf("parsed %v", g)
	}
	g, err = parseTopo("cube5")
	if err != nil {
		t.Fatal(err)
	}
	if h, ok := g.(*topology.Hypercube); !ok || h.Dim != 5 {
		t.Fatalf("parsed %v", g)
	}
	g, err = parseTopo("torus6x6")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.(*topology.Torus); !ok {
		t.Fatalf("parsed %v", g)
	}
	for _, bad := range []string{"", "ring8", "mesh8", "cube", "meshAxB", "cube0", "cube21", "mesh0x4", "torus2x2"} {
		if _, err := parseTopo(bad); err == nil {
			t.Errorf("parseTopo(%q) should fail", bad)
		}
	}
}

func TestParseAlg(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	cube := topology.NewHypercube(4)
	for _, name := range []string{"xy", "nara", "nafta", "rule-nafta", "maze", "rule-maze", "tree", "neghop"} {
		alg, err := parseAlg(name, mesh)
		if err != nil || alg == nil {
			t.Errorf("parseAlg(%q, mesh): %v", name, err)
		}
	}
	for _, name := range []string{"ecube", "routec", "rule-routec", "routec-nft", "tree", "neghop"} {
		alg, err := parseAlg(name, cube)
		if err != nil || alg == nil {
			t.Errorf("parseAlg(%q, cube): %v", name, err)
		}
	}
	// The maze family routes any topology within its port bound: tori
	// and random irregular graphs work where the mesh-only families
	// refuse.
	torus := topology.NewTorus(5, 5)
	irr, err := topology.RandomIrregular(16, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []topology.Graph{torus, irr} {
		for _, name := range []string{"maze", "rule-maze"} {
			alg, err := parseAlg(name, g)
			if err != nil || alg == nil {
				t.Errorf("parseAlg(%q, %s): %v", name, g.Name(), err)
			}
		}
	}
	// Topology mismatches must be rejected.
	if _, err := parseAlg("xy", cube); err == nil {
		t.Error("xy on a cube should fail")
	}
	if _, err := parseAlg("routec", mesh); err == nil {
		t.Error("routec on a mesh should fail")
	}
	if _, err := parseAlg("nosuch", mesh); err == nil {
		t.Error("unknown algorithm should fail")
	}
}

func TestParsePattern(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	cube := topology.NewHypercube(4)
	for _, name := range []string{"uniform", "transpose", "bitcomplement", "bitreverse", "tornado", "hotspot", "neighbor"} {
		if _, err := parsePattern(name, mesh); err != nil {
			t.Errorf("parsePattern(%q, mesh): %v", name, err)
		}
	}
	for _, name := range []string{"uniform", "bitcomplement", "bitreverse", "hotspot", "neighbor"} {
		if _, err := parsePattern(name, cube); err != nil {
			t.Errorf("parsePattern(%q, cube): %v", name, err)
		}
	}
	if _, err := parsePattern("transpose", cube); err == nil {
		t.Error("transpose on a cube should fail")
	}
	if _, err := parsePattern("bitreverse", topology.NewMesh(3, 3)); err == nil {
		t.Error("bitreverse on 9 nodes should fail")
	}
	if _, err := parsePattern("nosuch", mesh); err == nil {
		t.Error("unknown pattern should fail")
	}
}

// TestRunFlagValidation: unknown choices must list the valid ones and
// exit non-zero.
func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring the error text must carry
	}{
		{[]string{"-alg", "nosuch", "-topo", "mesh4x4"}, "valid: xy, nara, nafta, rule-nafta, maze, rule-maze"},
		{[]string{"-topo", "ring9"}, "valid forms: meshWxH, torusWxH, cubeD, irregN+E"},
		{[]string{"-topo", "mesh4x4", "-pattern", "nosuch"}, "valid: uniform, transpose"},
		{[]string{"-topo", "mesh4x4", "-trace", t.TempDir() + "/x", "-trace-format", "xml"}, "jsonl"},
		{[]string{"-no-such-flag"}, "-no-such-flag"},
		// NaN compares false both ways; the range check must still refuse it.
		{[]string{"-topo", "mesh4x4", "-rate", "nan"}, "rate NaN out of range [0, 4]"},
		{[]string{"-topo", "mesh4x4", "-rate", "4.5"}, "rate 4.500000 out of range [0, 4]"},
		// Removed with the parallel stepping engine: rejected, not ignored.
		{[]string{"-topo", "mesh4x4", "-workers", "2"}, "flag provided but not defined: -workers"},
	}
	for _, c := range cases {
		var out, errBuf bytes.Buffer
		code := run(c.args, &out, &errBuf)
		if code == 0 {
			t.Errorf("run(%v) = 0, want non-zero", c.args)
		}
		if !strings.Contains(errBuf.String(), c.want) {
			t.Errorf("run(%v) stderr %q missing %q", c.args, errBuf.String(), c.want)
		}
	}
}

// TestRunPerfSummary: -perf must append the cycles/s line and the
// active-set peak gauges, with a route peak a live run cannot avoid.
func TestRunPerfSummary(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{
		"-topo", "mesh4x4", "-alg", "nafta", "-rate", "0.15",
		"-warmup", "100", "-measure", "400", "-perf",
	}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("run exited %d: %s", code, errBuf.String())
	}
	got := out.String()
	for _, want := range []string{"cycles/s", "active-set peak", "route="} {
		if !strings.Contains(got, want) {
			t.Errorf("perf output missing %q:\n%s", want, got)
		}
	}
	// Peaks are sampled every 64 cycles; a moderately loaded 500-cycle
	// run keeps messages in flight at every sample instant, so the
	// gauges cannot all be zero.
	if strings.Contains(got, "route=0 alloc=0 switch=0 drain=0 inject-nodes=0") {
		t.Errorf("all active-set peaks zero over a loaded run:\n%s", got)
	}
	// Without -perf, none of the summary appears.
	out.Reset()
	errBuf.Reset()
	if code := run([]string{
		"-topo", "mesh4x4", "-alg", "nafta", "-rate", "0.05",
		"-warmup", "100", "-measure", "400",
	}, &out, &errBuf); code != 0 {
		t.Fatalf("run exited %d: %s", code, errBuf.String())
	}
	if strings.Contains(out.String(), "active-set peak") {
		t.Errorf("perf summary printed without -perf:\n%s", out.String())
	}
}

// TestRunChromeTrace is the end-to-end acceptance check: a mesh NAFTA
// run with -trace-format=chrome produces a file that parses as valid
// JSON with trace_event entries.
func TestRunChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	var out, errBuf bytes.Buffer
	code := run([]string{
		"-topo", "mesh4x4", "-alg", "nafta", "-rate", "0.05",
		"-warmup", "100", "-measure", "400",
		"-trace", path, "-trace-format", "chrome",
	}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("run exited %d: %s", code, errBuf.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var entries []map[string]any
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("chrome trace is empty")
	}
	phases := map[string]bool{}
	for _, e := range entries {
		ph, _ := e["ph"].(string)
		phases[ph] = true
		if _, ok := e["ts"].(float64); !ok {
			t.Fatalf("entry missing numeric ts: %v", e)
		}
	}
	// Instant events plus async begin/end message-lifetime pairs.
	for _, ph := range []string{"i", "b", "e"} {
		if !phases[ph] {
			t.Fatalf("chrome trace has no %q events (saw %v)", ph, phases)
		}
	}
	if !strings.Contains(out.String(), "trace") {
		t.Fatalf("stdout does not mention the trace file:\n%s", out.String())
	}
}

// TestRunJSONLTrace checks the line-oriented format end to end.
func TestRunJSONLTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	var out, errBuf bytes.Buffer
	code := run([]string{
		"-topo", "mesh4x4", "-alg", "rule-nafta", "-rate", "0.05",
		"-warmup", "100", "-measure", "300", "-trace", path,
	}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("run exited %d: %s", code, errBuf.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	kinds := map[string]bool{}
	n := 0
	for sc.Scan() {
		var e trace.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d invalid: %v", n+1, err)
		}
		kinds[e.Kind.String()] = true
		n++
	}
	if n == 0 {
		t.Fatal("empty trace")
	}
	// The rule-interpreted algorithm must stream rule-fired events.
	if !kinds["rule-fired"] {
		t.Fatalf("no rule-fired events in kinds %v", kinds)
	}
}

// TestRunPostMortemDir: a run that deadlocks writes the report file.
func TestRunPostMortemDir(t *testing.T) {
	// XY is deadlock-free, so force a report through the livelock age
	// bound instead: at saturation the congested worms exceed a bound
	// set below the run's typical in-network latency.
	dir := t.TempDir()
	var out, errBuf bytes.Buffer
	code := run([]string{
		"-topo", "mesh4x4", "-alg", "xy", "-rate", "1.0",
		"-warmup", "100", "-measure", "2000",
		"-livelock", "15", "-postmortem", dir,
	}, &out, &errBuf)
	if code != 0 && code != 2 {
		t.Fatalf("run exited %d: %s", code, errBuf.String())
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "postmortem-*.json"))
	if len(matches) != 1 {
		t.Fatalf("want one post-mortem file, got %v (stdout: %s)", matches, out.String())
	}
	f, err := os.Open(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := trace.DecodeReport(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reason != "livelock" || len(rep.Blocked) == 0 {
		t.Fatalf("report %+v", rep)
	}
	if !strings.Contains(out.String(), "POST-MORTEM") {
		t.Fatalf("stdout missing post-mortem summary:\n%s", out.String())
	}
}

// TestRouteCFaultyCubeDrains pins the ROUTE_C wait cycle of a saturated
// 4-cube with two node faults: a minimal descending hop that left the
// message in phase 0 let the next hop ascend on VC 0 while the worm
// held VC 1, and this run wedged with 2437 messages delivered. Both the
// native and the rule-table engine must drain it.
func TestRouteCFaultyCubeDrains(t *testing.T) {
	for _, alg := range []string{"routec", "rule-routec"} {
		var out, errBuf bytes.Buffer
		code := run([]string{"-topo", "cube4", "-alg", alg, "-faults", "2", "-rate", "0.45",
			"-measure", "6000", "-seed", "1"}, &out, &errBuf)
		if code != 0 || strings.Contains(out.String(), "deadlock suspected") || !strings.Contains(out.String(), "drained true") {
			t.Errorf("%s: exit %d, want a drained run:\n%s%s", alg, code, out.String(), errBuf.String())
		}
	}
}
