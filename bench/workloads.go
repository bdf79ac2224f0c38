package main

// workload is one named set of inputs; exactly one of sim and fleet is
// set. The why lines are the ones BENCHMARK.json carries.
type workload struct {
	name  string
	why   string
	sim   *simSpec
	fleet *fleetSpec
}

// workloads is the benchmark. The simulator repetitions are sized to
// about half a second each on the 2-CPU reference host (mesh16x16
// rule-NAFTA steps ~25k cycles/s, mesh64x64 ~5k, cube8 saturated
// ~13k), so a 15 s run holds twenty to twenty-seven of them.
var workloads = []workload{
	{
		name: "sim-mesh16-rules",
		why:  "The paper's headline case: rule-table NAFTA on a 16x16 mesh at moderate load with 4 node faults and 4 link faults landing mid-run, so table decisions and fault diagnosis are both on the path.",
		sim: &simSpec{mesh: [2]int{16, 16}, alg: "rule-nafta", nodeFaults: 4, linkFaults: 4,
			rate: 0.05, measure: 12000},
	},
	{
		name: "sim-mesh64-low",
		why:  "Active-set regime: 4096 mostly idle routers under native NAFTA at low load, where per-cycle fixed and topology-size costs dominate and decision cost is negligible.",
		sim:  &simSpec{mesh: [2]int{64, 64}, alg: "nafta", rate: 0.005, measure: 1500},
	},
	{
		name: "sim-cube8-sat",
		why:  "Rule-table ROUTE_C on an 8-cube just past saturation: every VC contended, allocation and credit stalls dominate, two rule interpretations per decision; fault-free so the run always finishes.",
		sim:  &simSpec{cube: 8, alg: "rule-routec", rate: 0.25, measure: 4500},
	},
	{
		name:  "fleet-b1",
		why:   "Batch of 1: per-request transport cost (HTTP, scatter goroutine, framing) does nearly all the work, engine and cache almost none; the traced run adds an open-loop window at 8000 decisions/s.",
		fleet: &fleetSpec{batch: 1, openRate: 8000},
	},
	{
		name:  "fleet-b256-hot",
		why:   "Batch of 256 from a pool of 4096 requests that fits the memo cache (~100 % hits): per-decision wire cost dominates and the engine is bypassed.",
		fleet: &fleetSpec{batch: 256},
	},
	{
		name:  "fleet-b256-cold",
		why:   "As fleet-b256-hot but every request is drawn fresh from millions of keys (under 5 % hits): the same wire cost plus the engine and cache insert/evict, so hot minus cold is the cache's end-to-end value.",
		fleet: &fleetSpec{batch: 256, cold: true},
	},
	{
		name:  "fleet-b16-churn",
		why:   "Batch of 16 while a control goroutine toggles fault states and rolls a version out and back every 2 s: cache invalidation, live recompute and engine flips beside the reads.",
		fleet: &fleetSpec{batch: 16, churn: true},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
