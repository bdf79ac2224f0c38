package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef mirrors one entry of BENCHMARK.json; bench_test.go holds
// the two lists to that file.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics of an untraced run. Every workload reports
// every one of them, so each is defined on both paths:
//
//	throughput_per_s  simulator: simulated cycles (warm-up + measure +
//	                  drain) per host second of sim.Run; fleet:
//	                  successful decisions per second seen by the
//	                  clients.
//	op_p50_us/p90_us  simulator: one sim.Run, its time given per
//	                  simulated cycle (wall / cycles); fleet: one
//	                  DecideBatch round trip.
//
// A run is cut into slices (three sim.Run rounds, a quarter second of
// round trips, one rollout under churn) and each timing metric is the
// best decile of its values over the slices (the simulator's throughput
// and set-up over the single rounds; see bestDecile). The
// 99th percentile is a per-layer metric only (fleet.client.rtt_p99_us,
// network.step_ns_p99): over identical runs it varied by a third on
// fleet-b1 and sim-mesh64-low, more than any bound could absorb.
var endToEnd = []metricDef{
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "op_p90_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of a traced run, layer = module name. A
// metric of a layer the workload does not run reads 0.
var perLayer = []metricDef{
	// What the user of each path sees beyond the shared end-to-end
	// metrics. The simulated ones repeat exactly for a seed.
	{Name: "sim.msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.latency_cycles", Unit: "cycles", Better: "lower"},
	{Name: "sim.accepted_flits", Unit: "flits/node/cyc", Better: "higher"},
	{Name: "sim.loss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "sim.warmup_s", Unit: "s", Better: "lower"},
	{Name: "sim.measure_s", Unit: "s", Better: "lower"},
	{Name: "sim.drain_s", Unit: "s", Better: "lower"},

	{Name: "traffic.tick_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "traffic.offered_msgs", Unit: "count", Better: "higher"},

	{Name: "network.step_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "network.step_ns_p99", Unit: "ns", Better: "lower"},
	{Name: "network.step_busy_share", Unit: "ratio", Better: "lower"},
	{Name: "network.ns_per_flit_hop", Unit: "ns", Better: "lower"},
	{Name: "network.route_decisions", Unit: "count", Better: "lower"},
	{Name: "network.vc_allocs", Unit: "count", Better: "lower"},
	{Name: "network.flit_hops", Unit: "count", Better: "lower"},
	{Name: "network.blocked_episodes", Unit: "count", Better: "lower"},
	{Name: "network.unroutable", Unit: "count", Better: "lower"},
	{Name: "network.active_peak_route", Unit: "count", Better: "lower"},
	{Name: "network.active_peak_alloc", Unit: "count", Better: "lower"},
	{Name: "network.active_peak_switch", Unit: "count", Better: "lower"},
	{Name: "network.active_peak_drain", Unit: "count", Better: "lower"},
	{Name: "network.active_peak_inject", Unit: "count", Better: "lower"},
	{Name: "network.allocs_per_cycle", Unit: "count", Better: "lower"},
	{Name: "network.apply_faults_us_max", Unit: "us", Better: "lower"},
	{Name: "network.apply_faults_events", Unit: "count", Better: "lower"},
	{Name: "network.msgs_killed", Unit: "count", Better: "lower"},
	{Name: "network.par_step_ratio", Unit: "ratio", Better: "higher"},

	{Name: "rulesets.decide_ns", Unit: "ns", Better: "lower"},
	{Name: "rulesets.decide_interp_ns", Unit: "ns", Better: "lower"},
	{Name: "rulesets.rule_fires_per_decision", Unit: "ratio", Better: "lower"},
	{Name: "rulesets.decide_share_est", Unit: "ratio", Better: "lower"},
	{Name: "routing.decide_ns", Unit: "ns", Better: "lower"},
	{Name: "routing.update_faults_us", Unit: "us", Better: "lower"},
	{Name: "core.table_bits", Unit: "bits", Better: "lower"},
	{Name: "core.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "core.dense_build_ms", Unit: "ms", Better: "lower"},

	{Name: "fleet.client.decisions_per_s", Unit: "1/s", Better: "higher"},
	{Name: "fleet.client.rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "fleet.client.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "fleet.client.rtt_p999_us", Unit: "us", Better: "lower"},
	{Name: "fleet.client.rtt_samples", Unit: "count", Better: "higher"},
	{Name: "fleet.client.self_us_p50", Unit: "us", Better: "lower"},
	{Name: "fleet.client.control_op_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.client.error_ratio", Unit: "ratio", Better: "lower"},
	{Name: "fleet.client.unroutable_ratio", Unit: "ratio", Better: "lower"},
	{Name: "fleet.open.rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "fleet.open.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "fleet.gen.late_ratio", Unit: "ratio", Better: "lower"},
	{Name: "fleet.gen.max_late_us", Unit: "us", Better: "lower"},
	{Name: "fleet.transport.self_us_p50", Unit: "us", Better: "lower"},
	{Name: "fleet.transport.self_us_p99", Unit: "us", Better: "lower"},
	{Name: "fleet.server.handler_us_p50", Unit: "us", Better: "lower"},
	{Name: "fleet.server.handler_us_p99", Unit: "us", Better: "lower"},
	{Name: "fleet.server.handler_ns_per_decision", Unit: "ns", Better: "lower"},
	{Name: "fleet.server.misdirected", Unit: "count", Better: "lower"},
	{Name: "fleet.wire.req_encode_ns_per_decision", Unit: "ns", Better: "lower"},
	{Name: "fleet.wire.req_decode_ns_per_decision", Unit: "ns", Better: "lower"},
	{Name: "fleet.wire.resp_encode_ns_per_decision", Unit: "ns", Better: "lower"},
	{Name: "fleet.wire.resp_decode_ns_per_decision", Unit: "ns", Better: "lower"},
	{Name: "fleet.wire.req_bytes_per_decision", Unit: "bytes", Better: "lower"},
	{Name: "fleet.wire.resp_bytes_per_decision", Unit: "bytes", Better: "lower"},
	{Name: "fleet.registry.decide_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "fleet.registry.decide_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "fleet.cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "fleet.cache.evictions", Unit: "count", Better: "lower"},
	{Name: "fleet.cache.invalidations", Unit: "count", Better: "lower"},
	{Name: "reconfig.service.decide_ns", Unit: "ns", Better: "lower"},
	{Name: "reconfig.service.decisions", Unit: "count", Better: "lower"},
	{Name: "reconfig.service.unroutable", Unit: "count", Better: "lower"},

	{Name: "proc.cpu_util", Unit: "ratio", Better: "higher"},
	{Name: "proc.cpu_us_per_decision", Unit: "us", Better: "lower"},
	{Name: "proc.allocs_per_decision", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_bytes_per_decision", Unit: "bytes", Better: "lower"},
	{Name: "proc.gc_pause_ms_total", Unit: "ms", Better: "lower"},

	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.self_sum_ratio", Unit: "ratio", Better: "lower"},
}

// metricSet collects measured values by metric name.
type metricSet map[string]float64

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what one workload run hands back to main.
type outcome struct {
	attempted, failed int64
	metrics           metricSet
	// problems are the output checks that did not hold; any entry
	// fails the command.
	problems []string
	// notes are printed for the reader and carry no verdict (sample
	// counts, where the span file went).
	notes []string
}

func (o *outcome) failf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// render prints every metric of defs by name and unit and ends with
// the JSON result line. End-to-end metrics must all have been
// measured; a per-layer metric the workload has no layer for reads 0.
func (o *outcome) render(w io.Writer, defs []metricDef, allowMissing bool) result {
	res := result{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		v, ok := o.metrics[d.Name]
		if !ok && !allowMissing {
			o.failf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.failf("metric %s is %v", d.Name, v)
			v = 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "  %-42s %16.6g %s\n", d.Name, v, d.Unit)
	}
	var stray []string
	for name := range o.metrics {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	sort.Strings(stray)
	for _, name := range stray {
		o.failf("metric %s is measured but not declared", name)
	}
	for _, n := range o.notes {
		fmt.Fprintln(w, "  note:", n)
	}
	for _, p := range o.problems {
		fmt.Fprintln(w, "  CHECK FAILED:", p)
	}
	res.Correct = len(o.problems) == 0
	return res
}

func (r result) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		// Only NaN/Inf can fail here and render replaced those.
		panic(err)
	}
	return string(b)
}
