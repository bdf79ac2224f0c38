// Command campaign runs the randomized fault-injection conformance
// campaign of internal/campaign:
//
//	campaign -scenarios 200 -seed 1 -algo nafta
//	campaign -scenarios 200 -seed 1 -algo routec -out fail.json
//
// Seeded scenarios (static fault patterns, fault chains, L-shapes and
// mid-run fault schedules) are simulated in parallel; after each run a
// battery of oracles checks simulator invariants, flit conservation,
// reference-justified drops, watchdog/livelock cleanliness and
// fast-path vs interpreted-path agreement. Violating scenarios are
// minimized by delta debugging (disable with -shrink=false) and, with
// -out, persisted as a replayable JSON artifact:
//
//	campaign -replay fail.json
//
// re-executes the recorded (shrunk) scenarios and reports whether the
// violation still reproduces. Exit status: 0 clean, 1 violations
// found, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/campaign"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit, so flag validation
// and the artifact pipeline are testable end to end.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	algo := fs.String("algo", campaign.AlgoNAFTA,
		"algorithm family ("+strings.Join(campaign.Algos, ", ")+")")
	scenarios := fs.Int("scenarios", 100, "number of scenarios to generate")
	seed := fs.Int64("seed", 1, "campaign seed (scenario generation)")
	workers := fs.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
	shrink := fs.Bool("shrink", true, "delta-debug violating scenarios to a minimal reproduction")
	differential := fs.Bool("differential", true,
		"also run the interpreted oracle path and require identical statistics")
	failover := fs.Bool("failover", false,
		"also run each scenario through the precomputed-failover plane and require decision-equivalent statistics")
	out := fs.String("out", "", "write a replayable JSON artifact of the violations to this file")
	replay := fs.String("replay", "", "replay the scenarios of a previously written artifact")
	verbose := fs.Bool("v", false, "log per-scenario progress")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	opts := campaign.Options{
		Algo:         *algo,
		Scenarios:    *scenarios,
		Seed:         *seed,
		Workers:      *workers,
		Differential: *differential,
		Failover:     *failover,
		Shrink:       *shrink,
	}
	if *verbose {
		opts.Log = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}

	if *replay != "" {
		return runReplay(*replay, &opts, stdout, stderr)
	}

	valid := false
	for _, a := range campaign.Algos {
		if *algo == a {
			valid = true
		}
	}
	if !valid {
		fmt.Fprintf(stderr, "campaign: unknown algo %q (valid: %s)\n",
			*algo, strings.Join(campaign.Algos, ", "))
		return 2
	}
	if *scenarios <= 0 {
		fmt.Fprintf(stderr, "campaign: -scenarios must be positive (got %d)\n", *scenarios)
		return 2
	}

	outcome, err := campaign.Run(opts)
	if err != nil {
		fmt.Fprintf(stderr, "campaign: %v\n", err)
		return 2
	}
	if !outcome.Failed() {
		fmt.Fprintf(stdout, "campaign: %d %s scenarios, 0 violations\n", outcome.Scenarios, *algo)
		return 0
	}
	total := 0
	for _, r := range outcome.Reports {
		total += len(r.Violations)
		fmt.Fprintf(stdout, "scenario %d: %d violation(s)\n", r.Scenario.ID, len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(stdout, "  %s\n", v)
		}
		if r.Shrunk != nil {
			fmt.Fprintf(stdout, "  shrunk to %d node fault(s), %d link fault(s), %d event(s)\n",
				len(r.Shrunk.FaultNodes), len(r.Shrunk.FaultLinks), len(r.Shrunk.Events))
		}
	}
	fmt.Fprintf(stdout, "campaign: %d %s scenarios, %d violation(s) in %d scenario(s)\n",
		outcome.Scenarios, *algo, total, len(outcome.Reports))
	if *out != "" {
		if err := writeArtifact(*out, &opts, outcome); err != nil {
			fmt.Fprintf(stderr, "campaign: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "replay artifact written to %s\n", *out)
	}
	return 1
}

func writeArtifact(path string, opts *campaign.Options, outcome *campaign.Outcome) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := campaign.NewArtifact(opts, outcome).WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}

func runReplay(path string, opts *campaign.Options, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(stderr, "campaign: %v\n", err)
		return 2
	}
	defer f.Close()
	art, err := campaign.DecodeArtifact(f)
	if err != nil {
		fmt.Fprintf(stderr, "campaign: %v\n", err)
		return 2
	}
	reports, err := campaign.Replay(art, opts)
	if err != nil {
		fmt.Fprintf(stderr, "campaign: %v\n", err)
		return 2
	}
	if len(reports) == 0 {
		fmt.Fprintf(stdout, "replay: %d scenario(s), no violations reproduce\n", len(art.Reports))
		return 0
	}
	for _, r := range reports {
		fmt.Fprintf(stdout, "scenario %d still violates:\n", r.Scenario.ID)
		for _, v := range r.Violations {
			fmt.Fprintf(stdout, "  %s\n", v)
		}
	}
	return 1
}
