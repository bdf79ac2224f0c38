package fleet

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// answer is one served decision in comparable form.
type answer struct {
	cands []routing.Candidate
	epoch uint64
	err   string
}

func (a answer) String() string {
	return fmt.Sprintf("{cands %v epoch %d err %q}", a.cands, a.epoch, a.err)
}

func (a answer) equal(b answer) bool {
	return a.epoch == b.epoch && a.err == b.err && candidatesEqual(a.cands, b.cands)
}

// collect returns an Emit that copies every answer into out[i].
func collect(out []answer) reconfig.Emit {
	return func(i int, cands []routing.Candidate, epoch uint64, err error) {
		a := answer{cands: append([]routing.Candidate(nil), cands...), epoch: epoch}
		if err != nil {
			a.err = err.Error()
		}
		out[i] = a
	}
}

// harvester records the routing requests a simulated network puts to
// the engine it wraps, in the service's wire form.
type harvester struct {
	routing.Algorithm
	want int
	out  []reconfig.DecisionRequest
}

func (h *harvester) RouteAppend(req routing.Request, buf []routing.Candidate) []routing.Candidate {
	if len(h.out) < h.want {
		hdr := req.Hdr
		h.out = append(h.out, reconfig.DecisionRequest{
			Node: int(req.Node), InPort: req.InPort, InVC: req.InVC,
			Src: int(hdr.Src), Dst: int(hdr.Dst), Length: hdr.Length,
			Misroutes: hdr.Misroutes, Marked: hdr.Marked, Phase: hdr.Phase,
			DetourLevel: hdr.DetourLevel, VNet: hdr.VNet,
		})
	}
	return h.Algorithm.RouteAppend(req, buf)
}

// harvestRequests returns want requests that art's engine was asked
// by a simulated network on g under f: the states real traffic
// reaches, transit hops included.
func harvestRequests(t *testing.T, art *reconfig.Artifact, g topology.Graph, f *fault.Set, want int) []reconfig.DecisionRequest {
	t.Helper()
	eng, err := reconfig.NewEngine(art, g)
	if err != nil {
		t.Fatal(err)
	}
	h := &harvester{Algorithm: eng, want: want}
	if _, err := sim.Run(sim.Config{Graph: g, Algorithm: h, Faults: f, Rate: 0.2, Length: 4, Seed: 1,
		WarmupCycles: 1, MeasureCycles: 400, DrainCycles: 1}); err != nil {
		t.Fatal(err)
	}
	if len(h.out) < want {
		t.Fatalf("harvested %d of %d requests", len(h.out), want)
	}
	return h.out
}

// TestBatchMatchesSingleDecisions holds a batch served through the
// server's batch path to the same requests served one at a time by a
// twin server: position by position the same candidates, epoch and
// error, and afterwards the same decided, failed, unroutable and
// misdirected counts. The batch mixes harvested requests (half of
// them for the other replica's nodes) with an out-of-range node, an
// out-of-range vnet and an explicitly misdirected node.
func TestBatchMatchesSingleDecisions(t *testing.T) {
	g := topology.NewMesh(5, 4)
	art := buildArt(t, "nafta", 1, g)
	f := fault.NewSet()
	f.FailNode(7)
	reqs := harvestRequests(t, art, g, f, 120)
	reqs = append(reqs[:40:40], append([]reconfig.DecisionRequest{
		{Node: g.Nodes() + 3, InPort: routing.InjectionPort, Src: 0, Dst: 3, Length: 4},
		{Node: 2, InPort: routing.InjectionPort, Src: 2, Dst: 9, Length: 4, VNet: 99},
		injectReq(3, 12), // replica 1's node
	}, reqs[40:]...)...)

	var twins [2]*Server
	for i := range twins {
		srv, err := NewServer(art, nil, g, Options{Shards: 2, Shard: ShardInfo{Index: 0, Count: 2}})
		if err != nil {
			t.Fatal(err)
		}
		srv.Registry().UpdateFaults(f)
		twins[i] = srv
	}
	batch := make([]answer, len(reqs))
	twins[0].serve(reqs, nil, collect(batch))
	one := make([]answer, 1)
	decided, failed, misdirected := 0, 0, 0
	for i := range reqs {
		twins[1].serve(reqs[i:i+1], nil, collect(one))
		if !batch[i].equal(one[0]) {
			t.Fatalf("position %d (%+v): batch %v, alone %v", i, reqs[i], batch[i], one[0])
		}
		switch {
		case one[0].err == "":
			decided++
		case !twins[1].foreign(&reqs[i]):
			failed++
		default:
			misdirected++
		}
	}
	if decided == 0 || failed < 2 || misdirected == 0 {
		t.Fatalf("the batch exercised %d decisions, %d refusals and %d misdirections", decided, failed, misdirected)
	}
	a, b := twins[0].Metrics(), twins[1].Metrics()
	if a.Decisions != b.Decisions || a.Failed != b.Failed || a.Unroutable != b.Unroutable || a.Misdirected != b.Misdirected {
		t.Fatalf("counters: batch %d decided, %d failed, %d unroutable, %d misdirected; alone %d, %d, %d, %d",
			a.Decisions, a.Failed, a.Unroutable, a.Misdirected, b.Decisions, b.Failed, b.Unroutable, b.Misdirected)
	}
	if a.Decisions != int64(decided) || a.Failed != int64(failed) || a.Misdirected != int64(misdirected) {
		t.Fatalf("counters %+v, want %d decided, %d failed, %d misdirected", a, decided, failed, misdirected)
	}
}

// TestBatchSeesOneEngineState races batches against fault toggles and
// rollbacks between a nafta and a maze version, and holds every batch
// to one engine state: all of its answers must carry one epoch and
// equal a recompute from one and the same (version, fault state).
func TestBatchSeesOneEngineState(t *testing.T) {
	g := topology.NewMesh(5, 4)
	arts := []*reconfig.Artifact{buildArt(t, "nafta", 1, g), buildArt(t, "maze", 2, g)}
	faulty := fault.NewSet()
	faulty.FailNode(7)
	faultStates := []*fault.Set{fault.NewSet(), faulty}

	var pool []reconfig.DecisionRequest
	for src := 0; src < g.Nodes(); src++ {
		for dst := 0; dst < g.Nodes(); dst++ {
			if src != dst && src != 7 {
				pool = append(pool, injectReq(src, dst))
			}
		}
	}
	// want[s][j] is the answer of state s = 2*version + fault state to
	// pool[j].
	var want [4][][]routing.Candidate
	for v, art := range arts {
		for fi, f := range faultStates {
			eng, err := reconfig.NewEngine(art, g)
			if err != nil {
				t.Fatal(err)
			}
			eng.UpdateFaults(f)
			s := 2*v + fi
			want[s] = make([][]routing.Candidate, len(pool))
			for j := range pool {
				hdr := routing.Header{Src: topology.NodeID(pool[j].Src), Dst: topology.NodeID(pool[j].Dst), Length: pool[j].Length}
				want[s][j] = eng.RouteAppend(routing.Request{Node: topology.NodeID(pool[j].Node), InPort: routing.InjectionPort, Hdr: &hdr}, nil)
				for k := range want[s][j] {
					want[s][j][k].Hop = routing.Hop{} // an answer carries no header update
				}
			}
		}
	}

	r, err := NewRegistry(arts[0], g, RegistryOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Reload(arts[1]); err != nil {
		t.Fatal(err)
	}
	rounds := 300
	if testing.Short() {
		rounds = 60
	}
	var (
		done     atomic.Bool
		mutators sync.WaitGroup
		workers  sync.WaitGroup
		decisive atomic.Int64 // batches only one state could have answered
	)
	mutators.Add(2)
	go func() {
		defer mutators.Done()
		for i := 0; !done.Load(); i++ {
			r.UpdateFaults(faultStates[i%2])
		}
	}()
	go func() {
		defer mutators.Done()
		for !done.Load() {
			if _, err := r.Rollback(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < 2; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			idx := make([]int, 48)
			reqs := make([]reconfig.DecisionRequest, len(idx))
			got := make([]answer, len(idx))
			for round := 0; round < rounds; round++ {
				for i := range idx {
					idx[i] = rng.Intn(len(pool))
					reqs[i] = pool[idx[i]]
				}
				r.DecideBatch(reqs, nil, collect(got))
				states := 0
				for s := range want {
					ok := true
					for i, j := range idx {
						if got[i].err != "" || got[i].epoch != got[0].epoch || !candidatesEqual(got[i].cands, want[s][j]) {
							ok = false
							break
						}
					}
					if ok {
						states++
					}
				}
				switch states {
				case 0:
					t.Errorf("round %d: no single (version, fault state) gives the batch's answers %v", round, got)
					return
				case 1:
					decisive.Add(1)
				}
			}
		}()
	}
	workers.Wait()
	done.Store(true)
	mutators.Wait()
	if decisive.Load() == 0 {
		t.Fatal("no batch told the four engine states apart — the property was vacuous")
	}
}

// TestBatchPathAllocatesNothing: a warm batch through the registry and
// through the service, into a reused candidate buffer, allocates
// nothing.
func TestBatchPathAllocatesNothing(t *testing.T) {
	r, g := testRegistry(t)
	reqs := make([]reconfig.DecisionRequest, 0, 256)
	for i := 0; len(reqs) < cap(reqs); i++ {
		if src, dst := i%g.Nodes(), (i*7+3)%g.Nodes(); src != dst {
			reqs = append(reqs, injectReq(src, dst))
		}
	}
	var (
		buf     []routing.Candidate
		decided int
	)
	emit := func(_ int, cands []routing.Candidate, _ uint64, err error) {
		if err == nil {
			decided += len(cands)
		}
	}
	buf = r.DecideBatch(reqs, buf, emit) // warm: the buffer grows once
	if allocs := testing.AllocsPerRun(100, func() { buf = r.DecideBatch(reqs, buf[:0], emit) }); allocs != 0 {
		t.Errorf("Registry.DecideBatch of %d requests: %v allocs", len(reqs), allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { buf = r.Service().DecideBatch(reqs, buf[:0], emit) }); allocs != 0 {
		t.Errorf("Service.DecideBatch of %d requests: %v allocs", len(reqs), allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { buf, _, _ = r.Decide(&reqs[0], buf[:0]) }); allocs != 0 {
		t.Errorf("Registry.Decide: %v allocs", allocs)
	}
	if decided == 0 {
		t.Fatal("no request was routable")
	}
}

// differentialOp is one operation of the batch-equivalence property
// test, drawn from the seed.
type differentialOp int

const (
	opReload differentialOp = iota + 1
	opFault
	opRollout
)

// runDifferential drives an identical operation sequence — requests in
// random-length batches, interleaved with hot reloads (nafta and maze
// programs), cumulative fault updates and push/canary/promote rollouts
// — through two registries: one answers each batch through
// DecideBatch, the other one request at a time through Decide. Every
// position must get the same candidates, epoch and error, and the
// canaries must sample and diverge alike: the batch path may change
// cost, never an answer.
func runDifferential(t *testing.T, seed int64, decisions int) {
	t.Helper()
	g := topology.NewMesh(5, 4)
	arts := []*reconfig.Artifact{buildArt(t, "nafta", 1, g), buildArt(t, "maze", 1, g)}
	var both [2]*Registry
	for i := range both {
		r, err := NewRegistry(arts[0], g, RegistryOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		both[i] = r
	}

	rng := rand.New(rand.NewSource(seed))
	faults := fault.NewSet()
	epoch := uint64(1)
	compare := func(op int, n int) {
		t.Helper()
		reqs := make([]reconfig.DecisionRequest, n)
		for i := range reqs {
			reqs[i] = randomDifferentialRequest(rng, g)
			switch rng.Intn(40) { // now and then one the service must refuse
			case 0:
				reqs[i].Node = g.Nodes() + rng.Intn(3)
			case 1:
				reqs[i].VNet = 5
			}
		}
		batch, one := make([]answer, n), make([]answer, n)
		both[0].DecideBatch(reqs, nil, collect(batch))
		for i := range reqs {
			cands, epoch, err := both[1].Decide(&reqs[i], nil)
			one[i] = answer{cands: cands, epoch: epoch}
			if err != nil {
				one[i].err = err.Error()
			}
			if !batch[i].equal(one[i]) {
				t.Fatalf("op %d: request %+v: batch %v, alone %v", op, reqs[i], batch[i], one[i])
			}
		}
	}
	for done := 0; done < decisions; {
		switch differentialOp(rng.Intn(4)) {
		case opReload:
			art := *arts[rng.Intn(len(arts))]
			epoch++
			art.Epoch = epoch
			for _, r := range both {
				if _, err := r.Reload(&art); err != nil {
					t.Fatalf("op %d: reload: %v", done, err)
				}
			}
		case opFault:
			if rng.Intn(4) == 0 {
				faults = fault.NewSet() // repair everything
			} else {
				faults.FailNode(topology.NodeID(rng.Intn(g.Nodes())))
			}
			for _, r := range both {
				r.UpdateFaults(faults)
			}
		case opRollout:
			art := *arts[rng.Intn(len(arts))]
			epoch++
			art.Epoch = epoch
			fraction := []float64{0.1, 0.25, 1}[rng.Intn(3)]
			for _, r := range both {
				v, err := r.Push(&art)
				if err != nil {
					t.Fatalf("op %d: push: %v", done, err)
				}
				if err := r.StartCanary(v.ID, fraction); err != nil {
					t.Fatalf("op %d: canary: %v", done, err)
				}
			}
			n := 1 + rng.Intn(40)
			compare(done, n)
			done += n
			a, b := both[0].Canary(), both[1].Canary()
			if a.Sampled != b.Sampled || a.Diverged != b.Diverged {
				t.Fatalf("op %d: canary over a batch sampled %d, diverged %d; alone %d, %d",
					done, a.Sampled, a.Diverged, b.Sampled, b.Diverged)
			}
			for _, r := range both {
				if _, err := r.Promote(); err != nil {
					t.Fatalf("op %d: promote: %v", done, err)
				}
			}
		}
		n := 1 + rng.Intn(40)
		compare(done, n)
		done += n
	}
}

// randomDifferentialRequest draws a request over the whole mesh:
// injections and transit hops, and marked headers.
func randomDifferentialRequest(rng *rand.Rand, g topology.Graph) reconfig.DecisionRequest {
	nodes := g.Nodes()
	src := rng.Intn(nodes)
	dst := rng.Intn(nodes)
	for dst == src {
		dst = rng.Intn(nodes)
	}
	req := reconfig.DecisionRequest{
		Node:   src,
		InPort: routing.InjectionPort,
		InVC:   0,
		Src:    src,
		Dst:    dst,
		Length: 1 + rng.Intn(4),
	}
	if rng.Intn(3) == 0 {
		req.InPort = rng.Intn(g.Ports())
		req.InVC = rng.Intn(2)
	}
	if rng.Intn(5) == 0 {
		req.Marked = true
	}
	return req
}

func TestBatchDifferential(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runDifferential(t, seed, 1500)
		})
	}
}

// FuzzBatchDifferential lets the fuzzer hunt for an operation
// interleaving where a batch answers differently from the same
// requests one at a time. `go test` runs the seed corpus;
// `go test -fuzz=FuzzBatchDifferential` explores.
func FuzzBatchDifferential(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(123456789))
	f.Add(int64(-987654321))
	f.Fuzz(func(t *testing.T, seed int64) {
		runDifferential(t, seed, 400)
	})
}
