package reconfig

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/rulesets"
	"repro/internal/topology"
)

func newTestService(t *testing.T, shards int) (*Service, *Artifact, *topology.Mesh) {
	t.Helper()
	art := buildNAFTA(t, 1)
	m := topology.NewMesh(6, 6)
	svc, err := NewService(art, m, shards)
	if err != nil {
		t.Fatal(err)
	}
	return svc, art, m
}

func injectionRequest(rng *rand.Rand, nodes int) DecisionRequest {
	src := rng.Intn(nodes)
	dst := rng.Intn(nodes)
	for dst == src {
		dst = rng.Intn(nodes)
	}
	return DecisionRequest{
		Node: src, InPort: routing.InjectionPort, InVC: 0,
		Src: src, Dst: dst, Length: 4,
	}
}

// Service decisions must agree with a directly built adapter on the
// same topology and fault-free state.
func TestServiceDecisionsMatchAdapter(t *testing.T) {
	svc, _, m := newTestService(t, 4)
	ref, err := rulesets.NewRuleNAFTA(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var buf []routing.Candidate
	for i := 0; i < 500; i++ {
		req := injectionRequest(rng, m.Nodes())
		got, epoch, err := svc.Decide(&req, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if epoch != 1 {
			t.Fatalf("decision under epoch %d, want 1", epoch)
		}
		hdr := routing.Header{Src: topology.NodeID(req.Src), Dst: topology.NodeID(req.Dst), Length: req.Length}
		want := ref.RouteAppend(routing.Request{Node: topology.NodeID(req.Node), InPort: req.InPort, Hdr: &hdr}, nil)
		if len(got) != len(want) {
			t.Fatalf("request %+v: %d candidates, reference has %d", req, len(got), len(want))
		}
		for j := range got {
			if want[j].Hop = (routing.Hop{}); got[j] != want[j] { // an answer carries no header update
				t.Fatalf("request %+v: candidate %d is %+v, reference %+v", req, j, got[j], want[j])
			}
		}
		buf = got
	}
}

func TestServiceRejectsMalformedRequests(t *testing.T) {
	svc, _, m := newTestService(t, 1)
	bad := []DecisionRequest{
		{Node: -1, Src: 0, Dst: 1},
		{Node: m.Nodes(), Src: 0, Dst: 1},
		{Node: 0, Src: -3, Dst: 1},
		{Node: 0, Src: 0, Dst: 99},
		{Node: 0, InPort: 77, Src: 0, Dst: 1},
	}
	for _, req := range bad {
		if _, _, err := svc.Decide(&req, nil); err == nil {
			t.Errorf("malformed request %+v accepted", req)
		}
	}
	if got := svc.Metrics().Failed; got != int64(len(bad)) {
		t.Errorf("failed counter %d, want %d", got, len(bad))
	}
}

// A virtual channel the engine does not have is a malformed request
// for every family, at both edges: NAFTA reads vnet, while ROUTE_C and
// maze ignore vnet and in_vc and would answer on a channel that is not
// there.
func TestServiceRejectsVCsOutOfRange(t *testing.T) {
	for _, c := range []struct {
		algo string
		opts BuildOptions
		g    topology.Graph
	}{
		{"nafta", BuildOptions{}, topology.NewMesh(6, 6)},
		{"routec", BuildOptions{CubeDim: 4}, topology.NewHypercube(4)},
		{"maze", BuildOptions{}, topology.NewMesh(4, 4)},
	} {
		art, err := Build(c.algo, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := NewService(art, c.g, 1)
		if err != nil {
			t.Fatal(err)
		}
		vcs := svc.shards[0].eng.NumVCs()
		for _, tc := range []struct {
			vnet, invc int
			ok         bool
		}{
			{0, 0, true}, {vcs - 1, vcs - 1, true},
			{-1, 0, false}, {vcs, 0, false}, {0, -1, false}, {0, vcs, false},
		} {
			req := DecisionRequest{Node: 1, InPort: 0, InVC: tc.invc, Src: 0, Dst: 5, Length: 4, VNet: tc.vnet}
			if _, _, err := svc.Decide(&req, nil); (err == nil) != tc.ok {
				t.Errorf("%s with %d VCs: vnet %d, in_vc %d: error %v", c.algo, vcs, tc.vnet, tc.invc, err)
			}
		}
		if got := svc.Metrics().Failed; got != 4 {
			t.Errorf("%s: failed counter %d, want 4", c.algo, got)
		}
	}
}

// The steady-state decision path must not allocate: the artifact's
// promise is the simulator's zero-alloc fast path, served concurrently.
func TestServiceDecideZeroAllocs(t *testing.T) {
	svc, _, m := newTestService(t, 2)
	req := injectionRequest(rand.New(rand.NewSource(1)), m.Nodes())
	buf := make([]routing.Candidate, 0, 8)
	// Warm the path (lazy scratch growth inside the machine happens on
	// early decisions).
	for i := 0; i < 100; i++ {
		if _, _, err := svc.Decide(&req, buf[:0]); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := svc.Decide(&req, buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Decide allocates %.1f objects per call", allocs)
	}
}

// Reload under concurrent decision load: no decision may fail, the
// epoch must advance, and every post-reload decision must come from
// the new epoch. Run with -race this doubles as the locking proof.
func TestServiceConcurrentReload(t *testing.T) {
	svc, art, m := newTestService(t, 4)
	const (
		workers   = 8
		perWorker = 300
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]routing.Candidate, 0, 8)
			for i := 0; i < perWorker; i++ {
				req := injectionRequest(rng, m.Nodes())
				cands, _, err := svc.Decide(&req, buf[:0])
				if err != nil {
					errs <- err
					return
				}
				if len(cands) == 0 {
					errs <- errUnroutable
					return
				}
				buf = cands
			}
		}(int64(w + 1))
	}
	// Two reloads race with the decision load.
	for r := 0; r < 2; r++ {
		next := *art
		next.Epoch = 0 // unversioned: Reload advances to current+1
		if _, err := svc.Reload(&next); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ms := svc.Metrics()
	if ms.Epoch != 3 {
		t.Fatalf("epoch %d after two reloads, want 3", ms.Epoch)
	}
	if ms.Failed != 0 || ms.Unroutable != 0 {
		t.Fatalf("%d failed, %d unroutable under reload", ms.Failed, ms.Unroutable)
	}
	if ms.Decisions != workers*perWorker {
		t.Fatalf("%d decisions recorded, want %d", ms.Decisions, workers*perWorker)
	}
	if ms.Reloads != 2 {
		t.Fatalf("%d reloads recorded, want 2", ms.Reloads)
	}
	// A versioned artifact keeps its own (higher) epoch.
	next := *art
	next.Epoch = 40
	if epoch, err := svc.Reload(&next); err != nil || epoch != 40 {
		t.Fatalf("versioned reload: epoch %d, err %v (want 40)", epoch, err)
	}
}

var errUnroutable = &unroutableError{}

type unroutableError struct{}

func (*unroutableError) Error() string { return "fault-free decision judged unroutable" }

// The decision latencies live in per-shard histograms merged when
// Metrics is read: the percentiles must be those of one histogram fed
// the same samples, however the samples were spread over the shards.
func TestServiceMetricsMergeShardLatencies(t *testing.T) {
	svc, _, _ := newTestService(t, 3)
	one := newLatencyHistogram()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		v := rng.ExpFloat64() * 40 // microseconds; the tail reaches past many bins
		if i%97 == 0 {
			v = 5000 // overflow bin
		}
		one.Add(v)
		svc.shards[rng.Intn(len(svc.shards))].lat.Add(v)
	}
	ms := svc.Metrics()
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"p50", ms.LatencyP50, one.Percentile(0.50)},
		{"p95", ms.LatencyP95, one.Percentile(0.95)},
		{"p99", ms.LatencyP99, one.Percentile(0.99)},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, one histogram over the same samples gives %v", c.name, c.got, c.want)
		}
	}
	// Reading the metrics must not consume the shard histograms.
	if again := svc.Metrics(); again != ms {
		t.Errorf("second read differs: %+v vs %+v", again, ms)
	}
}

// Decide records under the shard mutex while Metrics merges the shards:
// run with -race this is the proof that no latency sample is written
// outside a lock, and every decision must have left exactly one sample.
func TestServiceConcurrentDecideAndMetrics(t *testing.T) {
	svc, _, m := newTestService(t, 2)
	const (
		workers   = 4
		perWorker = 500
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]routing.Candidate, 0, 8)
			for i := 0; i < perWorker; i++ {
				req := injectionRequest(rng, m.Nodes())
				if _, _, err := svc.Decide(&req, buf[:0]); err != nil {
					errs <- err
					return
				}
			}
		}(int64(w + 1))
	}
	go func() { wg.Wait(); close(done) }()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
			if ms := svc.Metrics(); ms.LatencyP50 > ms.LatencyP99 {
				t.Errorf("p50 %v above p99 %v", ms.LatencyP50, ms.LatencyP99)
			}
		}
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var samples int64
	for _, sh := range svc.shards {
		samples += sh.lat.Total()
	}
	if samples != workers*perWorker || svc.Metrics().Decisions != samples {
		t.Fatalf("%d latency samples for %d decisions", samples, workers*perWorker)
	}
}

// Every way the service updates or replaces its engines must leave the
// NAFTA engines' per-node fact records matching the fault state they
// serve (rulesets.RuleNAFTA.CheckFacts): the live recompute, a reload
// whose fresh engines get the recorded fault state before any shard
// sees them, and the fault-clearing recompute. The shard engines are
// reachable only from inside this package, which is why this twin of
// the campaign's nafta_facts_test lives here.
func TestServiceInstallsKeepNAFTAFactsFresh(t *testing.T) {
	svc, art, m := newTestService(t, 2)
	check := checkShardFacts(t, svc)
	check("fresh service", false)
	f := fault.NewSet()
	f.FailNode(m.Node(2, 2))
	f.FailNode(m.Node(3, 3)) // concave: the completion deactivates (2,3) and (3,2)
	f.FailLink(m.Node(4, 5), m.Node(5, 5))
	svc.UpdateFaults(f)
	check("UpdateFaults", true)

	// The service remembers f: a copy, so the caller may reuse its set.
	f.FailNode(m.Node(0, 5))
	if got := svc.Faults(); got.NodeCount() != 2 || got.LinkCount() != 1 {
		t.Fatalf("recorded fault set %v, want the 2 nodes and 1 link applied", got)
	}
	f.RepairNode(m.Node(0, 5))

	next := *art
	next.Epoch = 0
	if _, err := svc.Reload(&next); err != nil {
		t.Fatal(err)
	}
	check("Reload (recorded faults applied before the flip)", true)

	svc.UpdateFaults(fault.NewSet())
	check("UpdateFaults clearing every fault", false)
	if _, err := svc.Reload(&next); err != nil {
		t.Fatal(err)
	}
	check("Reload after clearing", false)
}

// The shard engines must get the service's own copy of the fault set,
// not the caller's: an engine keeps the set it was given, so a caller
// that changes its set after UpdateFaults would otherwise change what
// the engines see without the recompute that keeps their fact records
// in step with it.
func TestServiceUpdateFaultsDoesNotAliasCallerSet(t *testing.T) {
	svc, _, m := newTestService(t, 2)
	check := checkShardFacts(t, svc)
	f := fault.NewSet()
	f.FailNode(m.Node(2, 2))
	svc.UpdateFaults(f)
	check("UpdateFaults", true)
	f.FailNode(m.Node(4, 4))
	check("caller failed another node in its own set", true)
}

// checkShardFacts returns a check that holds every shard engine's fact
// records to its fault set and whether the engine knows any fault.
func checkShardFacts(t *testing.T, svc *Service) func(when string, wantFaults bool) {
	probe := routing.Request{Node: 0, InPort: routing.InjectionPort, Hdr: &routing.Header{Dst: 7, Length: 4}}
	return func(when string, wantFaults bool) {
		t.Helper()
		for i, sh := range svc.shards {
			eng := sh.eng.(*rulesets.RuleNAFTA)
			if err := eng.CheckFacts(); err != nil {
				t.Fatalf("%s: shard %d: %v", when, i, err)
			}
			// One interpretation step is the fault-free decision.
			if steps := eng.Steps(probe); (steps > 1) != wantFaults {
				t.Fatalf("%s: shard %d decides in %d steps, engine knows faults = %v, want %v", when, i, steps, steps > 1, wantFaults)
			}
		}
	}
}
