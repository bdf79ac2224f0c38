// Command benchjson runs the repository benchmarks and emits a
// machine-readable snapshot:
//
//	go run ./cmd/benchjson                 # writes BENCH_<date>.json
//	go run ./cmd/benchjson -bench Sim -out -   # subset, to stdout
//
// The snapshot records ns/op, B/op, allocs/op and any custom metrics
// (b.ReportMetric) per benchmark, so successive PRs can diff
// performance without re-parsing `go test` text output.
//
// Compare mode gates regressions against a committed snapshot:
//
//	go run ./cmd/benchjson -baseline BENCH_2026-10-18-router-records.json
//
// prints per-benchmark ns/op, B/op and allocs/op deltas and exits
// non-zero when any benchmark regresses by more than -maxregress
// percent in ns/op or bytes/op (default 20). With -baseline and no
// -out, no snapshot file is
// written (compare-only, the CI shape: BENCH_BASELINE=... ./ci.sh).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// BenchResult is one parsed benchmark line.
type BenchResult struct {
	Name       string `json:"name"`
	Procs      int    `json:"procs"` // the -N suffix (GOMAXPROCS)
	Iterations int64  `json:"iterations"`
	// Benchtime is the -benchtime value this result was measured under.
	// Recorded per result (not only per snapshot) so results gathered
	// under different budgets can be merged into one file and compare
	// mode can flag apples-to-oranges deltas.
	Benchtime  string             `json:"benchtime,omitempty"`
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp float64            `json:"bytes_per_op,omitempty"`
	AllocsOp   float64            `json:"allocs_per_op,omitempty"`
	Extra      map[string]float64 `json:"extra,omitempty"` // b.ReportMetric values
}

// Snapshot is the written file. The host provenance fields (CPU
// count, GOMAXPROCS) qualify the numbers: a snapshot taken on a
// 2-core CI runner is not comparable to one from a 32-core
// workstation, and the file should say so itself.
type Snapshot struct {
	Date       string        `json:"date"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	NumCPU     int           `json:"num_cpu"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Benchtime  string        `json:"benchtime"`
	Results    []BenchResult `json:"results"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", ".", "benchmark name regex (go test -bench)")
	benchtime := fs.String("benchtime", "5x",
		"go test -benchtime value (fixed iteration counts make snapshots reproducible)")
	pkg := fs.String("pkg", ".", "package to benchmark")
	out := fs.String("out", "", `output path ("-" for stdout; default BENCH_<date>.json)`)
	baseline := fs.String("baseline", "", "prior snapshot to compare against (exit 1 on regression)")
	maxRegress := fs.Float64("maxregress", 20, "ns/op and bytes/op regression threshold in percent for -baseline")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	date := time.Now().Format("2006-01-02")
	compareOnly := *baseline != "" && *out == ""
	path := *out
	if path == "" {
		path = "BENCH_" + date + ".json"
	}

	cmd := exec.Command("go", "test", "-run=^$", "-bench="+*bench,
		"-benchtime="+*benchtime, "-benchmem", *pkg)
	cmd.Stderr = stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintln(stderr, "benchjson: go test:", err)
		return 1
	}
	results, err := ParseBenchOutput(strings.NewReader(string(raw)))
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	if len(results) == 0 {
		fmt.Fprintln(stderr, "benchjson: no benchmark lines in go test output")
		return 1
	}
	for i := range results {
		results[i].Benchtime = *benchtime
	}
	snap := newSnapshot(date, *benchtime, results)
	if !compareOnly {
		var w io.Writer = stdout
		if path != "-" {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(stderr, "benchjson:", err)
				return 1
			}
			defer f.Close()
			w = f
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 1
		}
		if path != "-" {
			fmt.Fprintf(stdout, "wrote %s (%d benchmarks)\n", path, len(results))
		}
	}
	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 1
		}
		var base Snapshot
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintln(stderr, "benchjson: baseline:", err)
			return 1
		}
		if Compare(&base, &snap, stdout, *maxRegress) > 0 {
			fmt.Fprintln(stderr, "benchjson: regression beyond threshold")
			return 1
		}
	}
	return 0
}

// newSnapshot stamps a result set with toolchain and host provenance.
func newSnapshot(date, benchtime string, results []BenchResult) Snapshot {
	return Snapshot{
		Date: date, GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchtime: benchtime, Results: results,
	}
}

// Compare prints per-benchmark ns/op and allocs/op deltas of cur
// against base and returns the number of benchmarks whose ns/op
// regressed by more than maxRegressPct percent. Benchmarks present on
// only one side are reported but never count as regressions.
func Compare(base, cur *Snapshot, w io.Writer, maxRegressPct float64) int {
	baseBy := make(map[string]BenchResult, len(base.Results))
	for _, r := range base.Results {
		baseBy[r.Name] = r
	}
	fmt.Fprintf(w, "comparing against baseline of %s (benchtime %s):\n", base.Date, base.Benchtime)
	regressions := 0
	for _, r := range cur.Results {
		b, ok := baseBy[r.Name]
		if !ok {
			fmt.Fprintf(w, "  %-44s (new benchmark)\n", r.Name)
			continue
		}
		delete(baseBy, r.Name)
		dn := pctDelta(b.NsPerOp, r.NsPerOp)
		db := pctDelta(b.BytesPerOp, r.BytesPerOp)
		da := pctDelta(b.AllocsOp, r.AllocsOp)
		verdict := ""
		if b.Benchtime != "" && r.Benchtime != "" && b.Benchtime != r.Benchtime {
			verdict = fmt.Sprintf("  (benchtime %s vs %s)", b.Benchtime, r.Benchtime)
		}
		// Time and allocated bytes are both gated: a change that holds
		// ns/op but starts allocating per op erodes exactly the
		// steady-state property the BENCH snapshots exist to defend. A
		// bytes_per_op regression from a zero base (0 -> nonzero) reads
		// as +Inf and always trips.
		if dn > maxRegressPct {
			regressions++
			verdict = "  REGRESSION(ns/op)"
		} else if db > maxRegressPct {
			regressions++
			verdict = "  REGRESSION(B/op)"
		}
		fmt.Fprintf(w, "  %-44s ns/op %12.1f -> %12.1f (%s)  B/op %9.0f -> %9.0f (%s)  allocs/op %8.0f -> %8.0f (%s)%s\n",
			r.Name, b.NsPerOp, r.NsPerOp, fmtPct(dn), b.BytesPerOp, r.BytesPerOp, fmtPct(db),
			b.AllocsOp, r.AllocsOp, fmtPct(da), verdict)
	}
	missing := make([]string, 0, len(baseBy))
	for name := range baseBy {
		missing = append(missing, name)
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(w, "  %-44s (missing from current run)\n", name)
	}
	if regressions > 0 {
		fmt.Fprintf(w, "%d benchmark(s) regressed more than %.0f%% (ns/op or bytes/op)\n", regressions, maxRegressPct)
	}
	return regressions
}

// pctDelta is the percent change from base to cur; a metric appearing
// out of nowhere (base 0, cur nonzero) reads as +Inf.
func pctDelta(base, cur float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (cur - base) / base * 100
}

func fmtPct(v float64) string {
	if math.IsInf(v, 1) {
		return "+inf%"
	}
	return fmt.Sprintf("%+.1f%%", v)
}

// ParseBenchOutput extracts benchmark result lines from `go test
// -bench` text output. Lines that are not benchmark results (headers,
// PASS/ok, prints) are skipped.
func ParseBenchOutput(r io.Reader) ([]BenchResult, error) {
	var out []BenchResult
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Minimum shape: Name-N  iterations  value unit ...
		if len(fields) < 4 {
			continue
		}
		name, procs := splitProcs(fields[0])
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // a print that happens to start with "Benchmark"
		}
		res := BenchResult{Name: name, Procs: procs, Iterations: iters}
		// The remainder alternates value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", line, fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsOp = v
			default:
				if res.Extra == nil {
					res.Extra = map[string]float64{}
				}
				res.Extra[unit] = v
			}
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// splitProcs separates the -N GOMAXPROCS suffix from a benchmark name.
func splitProcs(s string) (string, int) {
	i := strings.LastIndex(s, "-")
	if i < 0 {
		return s, 1
	}
	n, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return s, 1
	}
	return s[:i], n
}
