// Command bench is the repository's benchmark: seven named workloads
// over the two end-to-end paths (the simulator behind cmd/ftsim and the
// decision fleet behind cmd/routerd and cmd/fleetload), each measured
// end to end with tracing off and, in a separate traced run, split
// across the modules it crosses. See README.md beside this file.
//
//	go run ./bench --workload fleet-b256-hot --seed 1 --seconds 15 --trace 0
//	go run ./bench --workload sim-mesh16-rules --seed 1 --seconds 15 --trace 1
//	go run ./bench                    # every workload, 3 repetitions, in child processes
//	go run ./bench compare A.json B.json
//
// A single-workload run prints every metric by name and unit and ends
// with one JSON line {"correct", "attempted", "failed", "metrics"}; it
// exits 1 when an output check failed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// outDir receives the span files and the all-workloads result file.
const outDir = "bench/out"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	if len(argv) > 0 && argv[0] == "compare" {
		return runCompare(argv[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run in this process; empty runs all of them in child processes")
		seed    = fs.Int64("seed", 1, "seed every generated input derives from")
		seconds = fs.Float64("seconds", 15, "length of the measured window")
		traced  = fs.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		reps    = fs.Int("reps", 3, "repetitions per workload when running all of them")
		outFile = fs.String("out", filepath.Join(outDir, "results.json"), "result file of an all-workloads run")
		dir     = fs.String("outdir", outDir, "directory for span files")
		quick   = fs.Bool("quick", false, "shrink every workload to a smoke test (bench_test.go)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) || *reps < 1 {
		fmt.Fprintln(stderr, "bench: --seconds must be positive, --trace 0 or 1, --reps at least 1")
		return 2
	}
	if *name == "" {
		return runAll(stdout, stderr, *seed, *seconds, *traced, *reps, *outFile, *dir, *quick)
	}
	w := findWorkload(*name)
	if w == nil {
		names := make([]string, len(workloads))
		for i := range workloads {
			names[i] = workloads[i].name
		}
		fmt.Fprintf(stderr, "bench: unknown workload %q (valid: %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	res, err := runWorkload(stdout, w, *seed, *seconds, *traced == 1, *quick, *dir)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, res.line())
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process and prints its
// metrics.
func runWorkload(stdout io.Writer, w *workload, seed int64, seconds float64, traced, quick bool, dir string) (result, error) {
	if quick {
		seconds = min(seconds, 0.1)
	}
	var out *outcome
	var err error
	switch {
	case w.sim != nil && traced:
		out, err = simTraced(w.name, *w.sim, seed, quick, dir)
	case w.sim != nil:
		out, err = simUntraced(*w.sim, seed, seconds, quick)
	case traced:
		out, err = fleetTraced(w.name, *w.fleet, seed, seconds, quick, dir)
	default:
		out, err = fleetUntraced(*w.fleet, seed, seconds, quick)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	if out.attempted < 1 {
		out.failf("no operation was attempted")
	}
	fmt.Fprintf(stdout, "%s seed %d trace %v\n", w.name, seed, traced)
	if traced {
		return out.render(stdout, perLayer, true), nil
	}
	return out.render(stdout, endToEnd, false), nil
}

// resultFile is what an all-workloads run stores and compare reads.
type resultFile struct {
	Host      provenance                `json:"host"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Traced    bool                      `json:"traced"`
	Workloads map[string]workloadResult `json:"workloads"`
}

type workloadResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricRun `json:"metrics"`
}

type metricRun struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
}

// runAll runs every workload reps times, each run in a child process
// of its own so no run inherits another's heap, caches or listeners,
// and prints median and range per metric.
func runAll(stdout, stderr io.Writer, seed int64, seconds float64, traced, reps int, outFile, dir string, quick bool) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defs := endToEnd
	if traced == 1 {
		defs = perLayer
	}
	file := resultFile{Host: hostProvenance(), Seed: seed, Seconds: seconds, Traced: traced == 1,
		Workloads: map[string]workloadResult{}}
	failed := false
	for _, w := range workloads {
		wr := workloadResult{Correct: true, Metrics: map[string]metricRun{}}
		for rep := 0; rep < reps; rep++ {
			cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traced),
				"--outdir", dir, fmt.Sprintf("--quick=%v", quick))
			var buf bytes.Buffer
			cmd.Stdout, cmd.Stderr = &buf, stderr
			runErr := cmd.Run()
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				fmt.Fprintf(stderr, "bench: %s repetition %d printed no result (%v): %v\n", w.name, rep, runErr, err)
				failed = true
				wr.Correct = false
				continue
			}
			if runErr != nil || !res.Correct {
				fmt.Fprintf(stderr, "bench: %s repetition %d failed its checks:\n%s\n", w.name, rep, buf.String())
				failed = true
				wr.Correct = false
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			for name, v := range res.Metrics {
				mr := wr.Metrics[name]
				mr.Unit = v.Unit
				mr.Values = append(mr.Values, v.Value)
				wr.Metrics[name] = mr
			}
		}
		fmt.Fprintf(stdout, "%s (%d repetitions, seed %d, attempted %d, failed %d)\n", w.name, reps, seed, wr.Attempted, wr.Failed)
		for _, d := range defs {
			mr, ok := wr.Metrics[d.Name]
			if !ok {
				continue
			}
			mr.Median = median(mr.Values)
			wr.Metrics[d.Name] = mr
			lo, hi := minMax(mr.Values)
			fmt.Fprintf(stdout, "  %-42s %16.6g %-14s [%g .. %g]\n", d.Name, mr.Median, d.Unit, lo, hi)
		}
		file.Workloads[w.name] = wr
	}
	if err := writeJSON(outFile, &file); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, "results written to", outFile)
	if failed {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
