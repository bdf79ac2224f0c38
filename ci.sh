#!/bin/sh
# ci.sh — the repository's gate, in dependency order:
#   1. gofmt      no file differs from its gofmt form (`gofmt -l .`
#      lists nothing)
#   2. go vet     static checks
#   3. go build   everything compiles
#   4. go test -race   full suite under the race detector (the trace
#      subsystem's one-recorder-per-job discipline is only proven here);
#      it includes the frozen VA walk (TestAllocMatchesFrozenWalk),
#      the generator's statistical tests (internal/traffic) and the
#      fleet's scatter-vs-single-node rollout, reload-under-load,
#      fault-after-activation, fault-vs-rollback and
#      one-engine-state-per-batch race tests (internal/fleet:
#      TestBatchSeesOneEngineState races batches against fault toggles
#      and rollbacks)
#   5. coverage floor: statement coverage of internal/... must stay
#      >= COVER_FLOOR (baseline was 84.1% when the gate was added)
#   6. campaign smoke (under -race): 25 randomized fault-injection
#      scenarios per algorithm family must pass every conformance
#      oracle
#   7. big-topology and saturation smokes (under -race): ftsim runs at
#      4096 nodes (mesh64x64, the regime the arena/active-set engine
#      exists for) at 0.02 and at 0.005 flits/node/cycle (a few messages
#      a cycle: the generator's geometric gaps span many nodes), one of
#      rule-table ROUTE_C on an 8-cube past saturation (every VC
#      contended: the credit-aware switch stage's and the sleeping VA
#      heads' regime) and one of rule-table NAFTA on a 16x16 mesh with
#      node faults (its load view and block view as the network hands
#      them over) must each drain without a watchdog or livelock exit
#   7b. ROUTE_C wedge sweep: the built ftsim over {routec, rule-routec}
#      x {cube4, cube6} x rate {0.40, 0.55} x 1-3 node faults x seeds
#      1-3 at -measure 3000 (72 runs, a few seconds); any "deadlock
#      suspected" fails the stage. Before the minimal descending hop
#      ended a level's ascent, 8 of these runs wedged.
#   8. repo benchmark smoke: `go run ./bench --quick --reps 1`, then the
#      same with `--trace 1` — the exit status is the gate (every
#      workload builds, runs and passes its own output checks), so a
#      change that breaks the frozen benchmark fails here first
#   9. fleet fuzz: 10 s of FuzzBatchFrame on the /decide/batch
#      binary frame decoders (request and response) — no panic, and
#      whatever decodes must encode back to the same bytes — and 5 s of
#      FuzzBatchDifferential (random request slices answered as one
#      batch and one request at a time, across reloads, fault events and
#      canaried rollouts, must agree position by position); a failing
#      input is written under internal/fleet/testdata/fuzz
#  10. decision fast-path fuzz: 5 s each of FuzzDenseMaskDifferential
#      (random quantifier bodies compiled with and without the mask
#      step must agree on rule and fallback, internal/core),
#      FuzzRuleRouteCDifferential (dense vs interpreted ROUTE_C
#      decisions over random faults and headers, internal/rulesets),
#      FuzzRuleNAFTADifferential (the same for NAFTA, plus the
#      per-node fact words against the per-call PortFacts derivation)
#      and FuzzMazeFastPath (the same for the maze family on a mesh, a
#      torus and an irregular graph, traversal state in the header
#      included)
#  11. (opt-in) bench regression gate: set BENCH_BASELINE to a
#      committed snapshot to re-run the benchmarks and fail on a >20%
#      ns/op or bytes/op regression (cmd/benchjson -baseline), e.g. the
#      stepping engine's current baseline:
#      BENCH_BASELINE=BENCH_2026-10-18-router-records.json ./ci.sh
#      (BenchmarkNetworkStep, BenchmarkSimulatorThroughput,
#      BenchmarkGeneratorTick). Set
#      BENCH_FLEET_BASELINE=BENCH_2026-10-18-fleet-batch.json to gate
#      the fleet decision path (one request vs a 256-request batch
#      through the registry, the batch wire encodings) the same way, and
#      BENCH_RULES_BASELINE=BENCH_2026-10-17-premise-ops.json to gate
#      the rule decision (BenchmarkRuleDecision dense and interpreted
#      for NAFTA and ROUTE_C, native BenchmarkRouteDecision, and
#      BenchmarkFleetDecision/single, the engine behind the registry;
#      that snapshot names the row by its old name, uncached, so it is
#      reported as new until the snapshot is retaken). Set
#      BENCH_BUILD_BASELINE=BENCH_2026-10-19-engine-build.json to gate
#      a rule-table engine build (BenchmarkEngineBuild: rule-NAFTA on
#      mesh16x16, rule-ROUTE_C on cube8, reconfig.Build nafta — parse,
#      analyse, table fill and dense compile) at -benchtime 200x; a
#      build takes about a millisecond, so the rules gate's 200000x
#      would run for minutes.
#
# Exits non-zero on the first failure.
set -eu
cd "$(dirname "$0")"

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "ci.sh: gofmt would reformat:" >&2
	printf '%s\n' "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

COVER_FLOOR="${COVER_FLOOR:-80.0}"
echo "== coverage floor ${COVER_FLOOR}%"
go test -coverprofile=cover.out ./internal/... >/dev/null
total=$(go tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $3); print $3}')
rm -f cover.out
echo "   total statement coverage: ${total}%"
awk -v t="$total" -v f="$COVER_FLOOR" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || {
	echo "ci.sh: coverage ${total}% below floor ${COVER_FLOOR}%" >&2
	exit 1
}

echo "== campaign smoke (25 scenarios per family, -race)"
go run -race ./cmd/campaign -scenarios 25 -seed 1 -algo nafta
go run -race ./cmd/campaign -scenarios 25 -seed 1 -algo routec
# The maze sweep rotates topologies (mesh, torus, irregular) and allows
# partitioning fault patterns; the guaranteed-delivery oracle requires
# every drop to carry a true unreachability verdict (zero sacrifices).
go run -race ./cmd/campaign -scenarios 25 -seed 1 -algo maze

echo "== mesh64x64, saturated cube8 and faulty rule-nafta smokes (-race)"
# ftsim exits 2 when the watchdog suspects a deadlock (set -e stops
# there); "drained false" is a run the drain budget could not empty.
must_drain() { # what it is, then the ftsim arguments
	what=$1
	shift
	out=$(go run -race ./cmd/ftsim "$@" -length 8 -warmup 200 -measure 800 -seed 7)
	case "$out" in
	*"drained true"*) ;;
	*)
		echo "ci.sh: $what run did not drain" >&2
		printf '%s\n' "$out" >&2
		exit 1
		;;
	esac
}
must_drain mesh64x64 -topo mesh64x64 -alg nafta -rate 0.02
must_drain "low-load mesh64x64" -topo mesh64x64 -alg nafta -rate 0.005
must_drain "saturated cube8 rule-routec" -topo cube8 -alg rule-routec -rate 0.25
must_drain "rule-nafta under node faults" -topo mesh16x16 -alg rule-nafta -faults 4 -rate 0.05

echo "== ROUTE_C wedge sweep (72 faulted cube runs past the knee)"
sweepdir=$(mktemp -d)
go build -o "$sweepdir/ftsim" ./cmd/ftsim
wedged=0
for alg in routec rule-routec; do
	for topo in cube4 cube6; do
		for rate in 0.40 0.55; do
			for faults in 1 2 3; do
				for seed in 1 2 3; do
					# ftsim exits 2 on a suspected deadlock, 1 on an error.
					code=0
					out=$("$sweepdir/ftsim" -topo $topo -alg $alg -rate $rate -faults $faults \
						-seed $seed -measure 3000 2>&1) || code=$?
					case "$out" in
					*"deadlock suspected"*) code=2 ;;
					esac
					if [ "$code" -ne 0 ]; then
						echo "ci.sh: $alg $topo rate $rate, $faults faults, seed $seed: exit $code" >&2
						printf '%s\n' "$out" | tail -3 >&2
						wedged=$((wedged + 1))
					fi
				done
			done
		done
	done
done
rm -rf "$sweepdir"
if [ "$wedged" -ne 0 ]; then
	echo "ci.sh: $wedged ROUTE_C sweep run(s) wedged or failed" >&2
	exit 1
fi

echo "== repo benchmark smoke (bench --quick, untraced then traced)"
go run ./bench --quick --reps 1
go run ./bench --quick --reps 1 --trace 1

echo "== fleet fuzz (10s /decide/batch binary decoders, 5s batch vs one-by-one)"
go test -run '^$' -fuzz '^FuzzBatchFrame$' -fuzztime 10s ./internal/fleet
go test -run '^$' -fuzz '^FuzzBatchDifferential$' -fuzztime 5s ./internal/fleet

echo "== decision fast-path fuzz (4 x 5s, mask compiler, ROUTE_C, NAFTA and maze dense vs interpreted)"
go test -run '^$' -fuzz '^FuzzDenseMaskDifferential$' -fuzztime 5s ./internal/core
go test -run '^$' -fuzz '^FuzzRuleRouteCDifferential$' -fuzztime 5s ./internal/rulesets
go test -run '^$' -fuzz '^FuzzRuleNAFTADifferential$' -fuzztime 5s ./internal/rulesets
go test -run '^$' -fuzz '^FuzzMazeFastPath$' -fuzztime 5s ./internal/rulesets

if [ -n "${BENCH_BASELINE:-}" ]; then
	echo "== benchjson -baseline $BENCH_BASELINE"
	go run ./cmd/benchjson -baseline "$BENCH_BASELINE"
fi

if [ -n "${BENCH_FLEET_BASELINE:-}" ]; then
	echo "== benchjson -baseline $BENCH_FLEET_BASELINE (fleet decision path)"
	go run ./cmd/benchjson -bench BenchmarkFleetDecision -benchtime 20000x \
		-baseline "$BENCH_FLEET_BASELINE"
fi

if [ -n "${BENCH_RULES_BASELINE:-}" ]; then
	echo "== benchjson -baseline $BENCH_RULES_BASELINE (rule decision)"
	go run ./cmd/benchjson -bench 'BenchmarkRuleDecision|BenchmarkRouteDecision|BenchmarkFleetDecision/single' \
		-benchtime 200000x -baseline "$BENCH_RULES_BASELINE"
fi

if [ -n "${BENCH_BUILD_BASELINE:-}" ]; then
	echo "== benchjson -baseline $BENCH_BUILD_BASELINE (engine build)"
	go run ./cmd/benchjson -bench 'BenchmarkEngineBuild' -benchtime 200x -baseline "$BENCH_BUILD_BASELINE"
fi

echo "== ci.sh: all green"
