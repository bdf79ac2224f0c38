package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/reconfig"
	"repro/internal/routing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func loadBenchmarkJSON(t *testing.T) benchmarkFile {
	t.Helper()
	var bf benchmarkFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkJSONMatchesTheProgram holds BENCHMARK.json to the lists
// the program prints from, and both to the format's limits.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	bf := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file    %+v\n program %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file    %+v\n program %+v", bf.PerLayer, perLayer)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the program", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q / %q, program %q / %q", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		if (w.sim == nil) == (w.fleet == nil) {
			t.Errorf("workload %s must be exactly one of simulator and fleet", w.name)
		}
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q breaks the naming rules", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q is declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %q: better is %q", d.Name, d.Better)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or reused", w.name)
		}
		seen[w.name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the format's limits", len(endToEnd), len(perLayer))
	}
}

// quickRun runs one workload at smoke-test scale and returns what it
// printed, its result line and the directory its span file went to.
func quickRun(t *testing.T, name string, seed int64, traced bool) (string, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	tr := "0"
	if traced {
		tr = "1"
	}
	dir := t.TempDir()
	code := run([]string{"--workload", name, "--seed", strconv.FormatInt(seed, 10), "--seconds", "0.3", "--trace", tr,
		"--quick", "--outdir", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace %s exited %d\nstdout:\n%s\nstderr:\n%s", name, tr, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", name, err, lines[len(lines)-1])
	}
	return stdout.String(), res, dir
}

// TestEveryWorkloadPrintsEveryMetricOnce runs all seven workloads
// untraced and traced and holds the output to BENCHMARK.json.
func TestEveryWorkloadPrintsEveryMetricOnce(t *testing.T) {
	bf := loadBenchmarkJSON(t)
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			defs := bf.EndToEnd
			if traced {
				defs = bf.PerLayer
			}
			text, res, dir := quickRun(t, w.Name, 7, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, attempted %d, failed %d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics in the result, %d declared", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				mv, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing from the result", w.Name, traced, d.Name)
					continue
				}
				if mv.Unit != d.Unit || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
					t.Errorf("%s: metric %s = %v %q, want a finite value in %q", w.Name, d.Name, mv.Value, mv.Unit, d.Unit)
				}
				if !traced && mv.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, mv.Value)
				}
				printed := 0
				for _, line := range strings.Split(text, "\n") {
					f := strings.Fields(line)
					if len(f) == 3 && f[0] == d.Name && f[2] == d.Unit {
						printed++
					}
				}
				if printed != 1 {
					t.Errorf("%s traced=%v: metric %s printed %d times with its unit, want once", w.Name, traced, d.Name, printed)
				}
			}
			if traced {
				var tf traceFile
				if err := readJSON(filepath.Join(dir, w.Name+".trace.json"), &tf); err != nil {
					t.Errorf("%s: span file: %v", w.Name, err)
				} else if r := tf.Budget.SumRatio; len(tf.Spans) == 0 || r < 0.95 || r > 1.05 || tf.Seed != 7 {
					t.Errorf("%s: span file has %d spans, self-time sum ratio %g, seed %d", w.Name, len(tf.Spans), r, tf.Seed)
				}
			}
		}
	}
}

// TestSameSeedSameSimulation: the simulated statistics and the event
// counts of a seed repeat exactly, and another seed gives other ones.
func TestSameSeedSameSimulation(t *testing.T) {
	exact := func(res result) map[string]float64 {
		out := map[string]float64{}
		for _, d := range perLayer {
			if repeatsExactly(d) {
				out[d.Name] = res.Metrics[d.Name].Value
			}
		}
		return out
	}
	_, a, _ := quickRun(t, "sim-mesh16-rules", 11, true)
	_, b, _ := quickRun(t, "sim-mesh16-rules", 11, true)
	_, c, _ := quickRun(t, "sim-mesh16-rules", 12, true)
	ea, eb, ec := exact(a), exact(b), exact(c)
	if len(ea) < 15 {
		t.Fatalf("only %d exact metrics found: %v", len(ea), ea)
	}
	if !reflect.DeepEqual(ea, eb) {
		t.Errorf("same seed, different simulation:\n%v\n%v", ea, eb)
	}
	if reflect.DeepEqual(ea, ec) {
		t.Errorf("seeds 11 and 12 simulated the same thing: %v", ea)
	}
}

// TestSeedFixesTheRequests: the fleet's requests are a function of the
// seed alone, come from a simulation (so injections and transits mix
// and the single-node reference can route all but a few), and no key is
// in both the pool and the cold stream.
func TestSeedFixesTheRequests(t *testing.T) {
	gen := func(seed int64) *fleetInputs {
		in, err := genFleetInputs(seed, true)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b, c := gen(5), gen(5), gen(6)
	if !reflect.DeepEqual(a.pool, b.pool) || !reflect.DeepEqual(a.fresh, b.fresh) {
		t.Error("the same seed gave two sets of requests")
	}
	if reflect.DeepEqual(a.pool, c.pool) {
		t.Error("seeds 5 and 6 gave the same pool")
	}
	if len(a.pool) != fleetPoolSize || len(a.fresh) < fleetPoolSize {
		t.Fatalf("pool of %d and %d fresh requests", len(a.pool), len(a.fresh))
	}

	art, err := reconfig.Build("nafta", reconfig.BuildOptions{Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := fleet.TopologyFor(art, fleetMesh(true))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := reconfig.NewService(art, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref.UpdateFaults(a.faults)
	seen := map[fleet.Key]bool{}
	transit, unroutable := 0, 0
	var buf []routing.Candidate
	for _, r := range append(append([]reconfig.DecisionRequest{}, a.pool...), a.fresh...) {
		if k := fleet.KeyOf(&r); seen[k] {
			t.Fatalf("request %+v appears twice", r)
		} else {
			seen[k] = true
		}
		if r.Length < minLength || r.Length >= minLength+lengths {
			t.Fatalf("request %+v: length outside [%d, %d)", r, minLength, minLength+lengths)
		}
		if r.InPort != routing.InjectionPort {
			transit++
		}
		if buf, _, err = ref.Decide(&r, buf[:0]); err != nil {
			t.Fatalf("request %+v: the reference refuses it: %v", r, err)
		}
		if len(buf) == 0 {
			unroutable++
		}
	}
	n := len(seen)
	if transit < n/2 || transit == n {
		t.Errorf("%d of %d requests are transit requests, want most but not all", transit, n)
	}
	if float64(unroutable) > maxUnroutable*float64(n) {
		t.Errorf("%d of %d requests are unroutable, more than the %g a run accepts", unroutable, n, maxUnroutable)
	}
}

func TestBestDecile(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct {
		v      []float64
		higher bool
		want   float64
	}{
		{hundred, true, 91}, {hundred, false, 10},
		{[]float64{3, 9, 5}, true, 9}, {[]float64{3, 9, 5}, false, 3}, // up to ten values: the best one
		{hundred[:11], true, 99}, {hundred[:11], false, 91}, // eleven values: the second best
		{nil, true, 0},
	} {
		if got := bestDecile(c.v, c.higher); got != c.want {
			t.Errorf("bestDecile(%d values, higher=%v) = %g, want %g", len(c.v), c.higher, got, c.want)
		}
	}
}

// TestCompareVerdicts: within bound, regressed and unresolved rows,
// for a metric where higher is better and one where lower is.
func TestCompareVerdicts(t *testing.T) {
	defs := []metricDef{
		{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.08},
		{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
	}
	file := func(tput, p50 []float64) *resultFile {
		return &resultFile{Workloads: map[string]workloadResult{
			"fleet-b256-hot": {Correct: true, Metrics: map[string]metricRun{
				"throughput_per_s": {Unit: "1/s", Values: tput},
				"op_p50_us":        {Unit: "us", Values: p50},
			}},
		}}
	}
	a := file([]float64{100, 101, 99}, []float64{50, 51, 49})
	cases := []struct {
		b    *resultFile
		want [2]string
	}{
		{file([]float64{97, 98, 96}, []float64{52, 53, 51}), [2]string{"within bound", "within bound"}},
		{file([]float64{80, 81, 79}, []float64{60, 61, 59}), [2]string{"regressed", "regressed"}},
		{file([]float64{130, 131, 129}, []float64{30, 31, 29}), [2]string{"within bound", "within bound"}}, // better is never a regression
		{file([]float64{80, 100, 60}, []float64{50, 70, 30}), [2]string{"unresolved", "unresolved"}},
	}
	for i, c := range cases {
		rows := compareResults(a, c.b, defs)
		if len(rows) != 2 {
			t.Fatalf("case %d: %d rows", i, len(rows))
		}
		for j, r := range rows {
			if r.word != c.want[j] {
				t.Errorf("case %d %s: %s (worse %.3f spread %.3f), want %s", i, r.metric, r.word, r.worse, r.spread, c.want[j])
			}
		}
	}
}

// TestCompareLayers: two traced sets of one seed must agree exactly on
// the simulated metrics and event counts and may differ on host times.
func TestCompareLayers(t *testing.T) {
	defs := []metricDef{
		{Name: "sim.latency_cycles", Unit: "cycles", Better: "lower"},
		{Name: "network.flit_hops", Unit: "count", Better: "lower"},
		{Name: "network.step_ns_p50", Unit: "ns", Better: "lower"},
		{Name: "fleet.cache.hit_ratio", Unit: "ratio", Better: "higher"},
	}
	file := func(latency, hops, step []float64) *resultFile {
		return &resultFile{Traced: true, Workloads: map[string]workloadResult{
			"sim-cube8-sat": {Correct: true, Metrics: map[string]metricRun{
				"sim.latency_cycles":    {Values: latency},
				"network.flit_hops":     {Values: hops},
				"network.step_ns_p50":   {Values: step},
				"fleet.cache.hit_ratio": {Values: []float64{0, 0}},
			}},
		}}
	}
	a := file([]float64{41.5, 41.5}, []float64{9000, 9000}, []float64{700, 720})
	for i, c := range []struct {
		b    *resultFile
		want [3]string
	}{
		{file([]float64{41.5, 41.5}, []float64{9000, 9000}, []float64{500, 510}), [3]string{"identical", "identical", ""}},
		{file([]float64{41.5, 41.6}, []float64{9001, 9001}, []float64{700, 720}), [3]string{"differs", "differs", ""}},
	} {
		rows := compareLayers(a, c.b, defs)
		if len(rows) != 3 {
			t.Fatalf("case %d: %d rows, want 3 (the fleet layer does not run on a simulator workload)", i, len(rows))
		}
		for j, r := range rows {
			if r.word != c.want[j] {
				t.Errorf("case %d %s: %q, want %q", i, r.metric, r.word, c.want[j])
			}
		}
	}
}
