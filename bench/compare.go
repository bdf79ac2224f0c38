package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		return 0, 0
	}
	return slices.Min(v), slices.Max(v)
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles of Python's
// statistics.quantiles(v, n=4) (the exclusive method). Fewer than four
// values have no quartiles worth the name; their range stands in.
func quartileSpread(v []float64) float64 {
	med := median(v)
	if med == 0 || len(v) < 2 {
		return 0
	}
	if len(v) < 4 {
		lo, hi := minMax(v)
		return (hi - lo) / math.Abs(med)
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		i := int(pos)
		if i < 0 {
			return s[0]
		}
		if i >= len(s)-1 {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return (q(0.75) - q(0.25)) / math.Abs(med)
}

// benchmarkFile is the part of BENCHMARK.json compare needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict is one row of the comparison.
type verdict struct {
	workload, metric string
	a, b             float64
	worse            float64 // share of a by which b is worse; negative when better
	spread           float64
	bound            float64
	word             string
}

// worseBy is the share of a by which b is worse in d's direction.
func worseBy(a, b float64, d metricDef) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// compareResults holds the untraced set B to A: one row per workload
// and end-to-end metric. A metric whose run-to-run spread on either side is wider
// than its bound cannot show a regression of that size and is reported
// unresolved, not unchanged.
func compareResults(a, b *resultFile, defs []metricDef) []verdict {
	var rows []verdict
	for _, w := range workloads {
		wa, okA := a.Workloads[w.name]
		wb, okB := b.Workloads[w.name]
		if !okA || !okB {
			continue
		}
		for _, d := range defs {
			ma, mb := wa.Metrics[d.Name], wb.Metrics[d.Name]
			if len(ma.Values) == 0 || len(mb.Values) == 0 {
				continue
			}
			v := verdict{workload: w.name, metric: d.Name, a: median(ma.Values), b: median(mb.Values), bound: d.Bound}
			v.worse = worseBy(v.a, v.b, d)
			v.spread = max(quartileSpread(ma.Values), quartileSpread(mb.Values))
			switch {
			case v.spread > d.Bound:
				v.word = "unresolved"
			case v.worse > d.Bound:
				v.word = "regressed"
			default:
				v.word = "within bound"
			}
			rows = append(rows, v)
		}
	}
	return rows
}

// repeatsExactly says whether a per-layer metric is a simulated
// statistic or an event count, which are functions of the seed alone: a
// change meant only to make the simulator faster must leave every one
// of them as it was.
func repeatsExactly(d metricDef) bool {
	switch d.Name {
	case "sim.latency_cycles", "sim.accepted_flits", "sim.loss_ratio",
		"traffic.offered_msgs", "rulesets.rule_fires_per_decision":
		return true
	case "network.allocs_per_cycle":
		return false
	}
	return strings.HasPrefix(d.Name, "network.") && d.Unit == "count"
}

// compareLayers holds the traced set B to the traced set A: one row per
// workload and per-layer metric the workload's layers report. Metrics
// that repeat exactly must have one value over every repetition of both
// sets; the others have no bound and are shown without a verdict.
func compareLayers(a, b *resultFile, defs []metricDef) []verdict {
	var rows []verdict
	for _, w := range workloads {
		wa, okA := a.Workloads[w.name]
		wb, okB := b.Workloads[w.name]
		if !okA || !okB {
			continue
		}
		for _, d := range defs {
			ma, mb := wa.Metrics[d.Name], wb.Metrics[d.Name]
			if len(ma.Values) == 0 || len(mb.Values) == 0 {
				continue
			}
			v := verdict{workload: w.name, metric: d.Name, a: median(ma.Values), b: median(mb.Values)}
			if v.a == 0 && v.b == 0 {
				continue // a layer this workload does not run
			}
			v.worse = worseBy(v.a, v.b, d)
			v.spread = max(quartileSpread(ma.Values), quartileSpread(mb.Values))
			if repeatsExactly(d) {
				lo, hi := minMax(append(append([]float64{}, ma.Values...), mb.Values...))
				v.word = "identical"
				if lo != hi {
					v.word = "differs"
				}
			}
			rows = append(rows, v)
		}
	}
	return rows
}

func runCompare(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "file the bounds are read from")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [--benchmark BENCHMARK.json] A.json B.json")
		return 2
	}
	var bf benchmarkFile
	var a, b resultFile
	for path, v := range map[string]any{*benchPath: &bf, fs.Arg(0): &a, fs.Arg(1): &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(stderr, "bench compare:", err)
			return 1
		}
	}
	if a.Traced != b.Traced {
		fmt.Fprintln(stderr, "bench compare: one set is traced and the other is not; end-to-end metrics never come from a traced run")
		return 1
	}
	fmt.Fprintf(stdout, "A: seed %d, %gs, %+v\nB: seed %d, %gs, %+v\n", a.Seed, a.Seconds, a.Host, b.Seed, b.Seconds, b.Host)
	if a.Host != b.Host || a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintln(stdout, "warning: the two sets were not taken with the same host, seed and run length")
	}
	if a.Traced {
		if a.Seed != b.Seed {
			fmt.Fprintln(stderr, "bench compare: simulated metrics and event counts compare exactly only between sets of one seed")
			return 1
		}
		rows := compareLayers(&a, &b, bf.PerLayer)
		differ := 0
		for _, v := range rows {
			fmt.Fprintf(stdout, "%-18s %-40s A %14.6g  B %14.6g  worse by %+7.2f%%  spread %6.2f%%  %s\n",
				v.workload, v.metric, v.a, v.b, 100*v.worse, 100*v.spread, v.word)
			if v.word == "differs" {
				differ++
			}
		}
		if differ > 0 {
			fmt.Fprintf(stdout, "%d simulated metrics or event counts are not the same over both sets\n", differ)
			return 1
		}
		return 0
	}
	rows := compareResults(&a, &b, bf.EndToEnd)
	regressed := 0
	for _, v := range rows {
		fmt.Fprintf(stdout, "%-18s %-18s A %14.6g  B %14.6g  worse by %+7.2f%%  spread %6.2f%%  bound %5.1f%%  %s\n",
			v.workload, v.metric, v.a, v.b, 100*v.worse, 100*v.spread, 100*v.bound, v.word)
		if v.word == "regressed" {
			regressed++
		}
	}
	if regressed > 0 {
		fmt.Fprintf(stdout, "%d of %d rows regressed\n", regressed, len(rows))
		return 1
	}
	return 0
}
