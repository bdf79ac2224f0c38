package fleet

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestCacheHitMissInvalidate(t *testing.T) {
	c := NewCache(1024)
	k := Key{Node: 3, Src: 3, Dst: 9, InPort: -1, Length: 4}
	if _, _, ok := c.Get(k, nil); ok {
		t.Fatal("hit on an empty cache")
	}
	cands := []routing.Candidate{{Port: 1, VC: 0}, {Port: 2, VC: 1}}
	c.Put(k, c.Gen(), cands, 7)
	out, epoch, ok := c.Get(k, nil)
	if !ok || epoch != 7 {
		t.Fatalf("miss after put: ok=%v epoch=%d", ok, epoch)
	}
	if len(out) != 2 || out[0] != cands[0] || out[1] != cands[1] {
		t.Fatalf("memoized candidates %+v", out)
	}

	// The memoized slice must be an independent copy.
	cands[0].Port = 99
	out, _, _ = c.Get(k, nil)
	if out[0].Port == 99 {
		t.Fatal("cache aliases the caller's candidate slice")
	}

	c.Invalidate()
	if _, _, ok := c.Get(k, nil); ok {
		t.Fatal("hit after invalidation")
	}
	m := c.Metrics()
	if m.Invalidations != 1 || m.Entries != 0 {
		t.Fatalf("metrics after invalidate: %+v", m)
	}
}

func TestCacheStaleGenerationPutDropped(t *testing.T) {
	c := NewCache(64)
	k := Key{Node: 1, Dst: 2}
	gen := c.Gen()
	// An invalidation lands between the generation capture and the Put
	// (in production: a reload finishing while a decision is in flight).
	c.Invalidate()
	c.Put(k, gen, []routing.Candidate{{Port: 0}}, 1)
	if _, _, ok := c.Get(k, nil); ok {
		t.Fatal("stale-generation Put survived the invalidation")
	}
	c.Put(k, c.Gen(), []routing.Candidate{{Port: 0}}, 2)
	if _, _, ok := c.Get(k, nil); !ok {
		t.Fatal("fresh-generation Put rejected")
	}
}

func TestCacheUnroutableVerdictCached(t *testing.T) {
	c := NewCache(64)
	k := Key{Node: 5, Dst: 6}
	c.Put(k, c.Gen(), nil, 3)
	out, epoch, ok := c.Get(k, []routing.Candidate{{Port: 9}})
	if !ok || epoch != 3 {
		t.Fatal("unroutable verdict not memoized")
	}
	if len(out) != 1 {
		t.Fatalf("unroutable hit extended the buffer: %+v", out)
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache(cacheShards) // one entry per shard
	for i := 0; i < 10*cacheShards; i++ {
		c.Put(Key{Node: int32(i), Dst: int32(i + 1)}, c.Gen(), []routing.Candidate{{Port: 0}}, 1)
	}
	if got := c.Len(); got > cacheShards {
		t.Fatalf("%d entries live, capacity %d", got, cacheShards)
	}
	if c.Metrics().Evictions == 0 {
		t.Fatal("overflowing the cache recorded no evictions")
	}
}

func TestNewCacheDisabled(t *testing.T) {
	if NewCache(0) != nil || NewCache(-5) != nil {
		t.Fatal("non-positive capacity must disable the cache")
	}
}

// differentialStep is one operation of the cache-correctness property
// test, derived from the fuzz input stream.
type differentialOp int

const (
	opDecide differentialOp = iota
	opReload
	opFault
	opRollout
	opSentinel
)

// runDifferential drives an identical operation sequence — decisions
// interleaved with hot reloads (nafta and maze programs), cumulative
// fault updates and push/canary/promote rollouts — through a memoizing
// registry and an uncached one, and fails on the first decision where
// the two disagree. This is the memoization soundness property: the
// cache may only ever change latency, never an answer.
func runDifferential(t *testing.T, seed int64, decisions int) {
	t.Helper()
	g := topology.NewMesh(5, 4)
	nafta, err := reconfig.Build("nafta", reconfig.BuildOptions{Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	maze, err := reconfig.Build("maze", reconfig.BuildOptions{Epoch: 1, Ports: g.Ports()})
	if err != nil {
		t.Fatal(err)
	}
	arts := []*reconfig.Artifact{nafta, maze}

	cached, err := NewRegistry(nafta, g, RegistryOptions{Shards: 2, CacheEntries: 512})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewRegistry(nafta, g, RegistryOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	both := [2]*Registry{cached, plain}

	rng := rand.New(rand.NewSource(seed))
	faults := fault.NewSet()
	epoch := uint64(1)
	for i := 0; i < decisions; i++ {
		if i%64 == 63 {
			switch differentialOp(rng.Intn(3) + 1) {
			case opReload:
				art := *arts[rng.Intn(len(arts))]
				epoch++
				art.Epoch = epoch
				for _, r := range both {
					if _, err := r.Reload(&art); err != nil {
						t.Fatalf("op %d: reload: %v", i, err)
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
				for _, r := range both {
					v, err := r.Push(&art)
					if err != nil {
						t.Fatalf("op %d: push: %v", i, err)
					}
					if err := r.StartCanary(v.ID, 0.25); err != nil {
						t.Fatalf("op %d: canary: %v", i, err)
					}
				}
				// A few canaried decisions, then promote on both.
				for j := 0; j < 8; j++ {
					req := randomDifferentialRequest(rng, g)
					compareDecide(t, both, &req, i)
				}
				for _, r := range both {
					if _, err := r.Promote(); err != nil {
						t.Fatalf("op %d: promote: %v", i, err)
					}
				}
			}
		}
		req := randomDifferentialRequest(rng, g)
		compareDecide(t, both, &req, i)
	}
	if cached.Cache().Metrics().Hits == 0 {
		t.Fatal("differential run never hit the cache — the property was vacuous")
	}
}

func compareDecide(t *testing.T, both [2]*Registry, req *reconfig.DecisionRequest, op int) {
	t.Helper()
	a, aEpoch, aErr := both[0].Decide(req, nil)
	b, bEpoch, bErr := both[1].Decide(req, nil)
	if (aErr == nil) != (bErr == nil) {
		t.Fatalf("op %d: request %+v: cached err=%v, uncached err=%v", op, req, aErr, bErr)
	}
	if aErr != nil {
		return
	}
	if aEpoch != bEpoch {
		t.Fatalf("op %d: request %+v: cached epoch %d, uncached %d", op, req, aEpoch, bEpoch)
	}
	if !candidatesEqual(a, b) {
		t.Fatalf("op %d: request %+v: cached %+v, uncached %+v", op, req, a, b)
	}
}

// randomDifferentialRequest draws from a small key space so the cache
// actually hits, while still covering arrival ports, VCs and marked
// headers.
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

func TestCacheDifferential(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runDifferential(t, seed, 1500)
		})
	}
}

// FuzzCacheDifferential lets the fuzzer hunt for an operation
// interleaving where the memoized registry disagrees with the uncached
// one. `go test` runs the seed corpus; `go test -fuzz=FuzzCacheDifferential`
// explores.
func FuzzCacheDifferential(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(123456789))
	f.Add(int64(-987654321))
	f.Fuzz(func(t *testing.T, seed int64) {
		runDifferential(t, seed, 400)
	})
}

// churnKey is the i-th of an endless stream of distinct keys.
func churnKey(i int) Key {
	return Key{Node: int32(i % 1024), Src: int32(i % 1024), Dst: int32(i / 1024), InPort: int32(i%4) - 1, Length: 4}
}

// churnSets are the few distinct answers the churn's decisions have,
// as a node's decisions do.
var churnSets = [][]routing.Candidate{
	{{Port: 0, VC: 0}}, {{Port: 1, VC: 0}, {Port: 2, VC: 1}}, {{Port: 3, VC: 1}}, nil,
	{{Port: 2, VC: 0}, {Port: 0, VC: 1}, {Port: 1, VC: 1}},
}

func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestCacheMemoryBoundedUnderChurn: the cache's heap is a function of
// its capacity, not of how many keys have passed through it. (With a
// delete-one/insert-one map of copied slices it kept growing: 24.8 MB
// to 49.5 MB over 12 M puts.)
func TestCacheMemoryBoundedUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("3 M puts")
	}
	const capacity = 65536
	c := NewCache(capacity)
	put := func(from, to int) {
		for i := from; i < to; i++ {
			c.Put(churnKey(i), c.Gen(), churnSets[i%len(churnSets)], 1)
		}
	}
	put(0, 1_000_000)
	if n := c.Len(); n < capacity/2 || n > capacity {
		t.Fatalf("%d entries live after 1 M puts, capacity %d", n, capacity)
	}
	early := liveHeap()
	put(1_000_000, 3_000_000)
	late := liveHeap()
	if n := c.Len(); n < capacity/2 || n > capacity {
		t.Fatalf("%d entries live after 3 M puts, capacity %d", n, capacity)
	}
	t.Logf("live heap %.1f MB after 1 M puts, %.1f MB after 3 M", float64(early)/1e6, float64(late)/1e6)
	if float64(late) > 1.10*float64(early) {
		t.Fatalf("live heap grew from %d to %d bytes between the first and the third million puts into a full cache", early, late)
	}
	runtime.KeepAlive(c)
}

func TestCacheLenNeverExceedsCapacity(t *testing.T) {
	for _, capacity := range []int{cacheShards, 3 * cacheShards, 100, 1000} {
		c := NewCache(capacity)
		// Capacities are granted in whole entries per shard.
		limit := c.Metrics().Capacity
		if limit > capacity {
			t.Fatalf("NewCache(%d) grants %d entries", capacity, limit)
		}
		for i := 0; i < 30*capacity; i++ {
			c.Put(churnKey(i), c.Gen(), churnSets[i%len(churnSets)], 1)
			if n := c.Len(); n > limit {
				t.Fatalf("capacity %d: %d entries live after %d puts", capacity, n, i+1)
			}
			// What was just put is what the cache must still have.
			if got, _, ok := c.Get(churnKey(i), nil); !ok || !candidatesEqual(got, churnSets[i%len(churnSets)]) {
				t.Fatalf("capacity %d: put %d reads back as %+v (hit %v)", capacity, i, got, ok)
			}
		}
		if c.Metrics().Evictions == 0 {
			t.Fatalf("capacity %d: 30 capacities of distinct keys evicted nothing", capacity)
		}
	}
}

// TestCacheExactBelowCapacity: a working set that fits is never
// evicted, whatever order it is put and read in.
func TestCacheExactBelowCapacity(t *testing.T) {
	c := NewCache(65536)
	const working = 4096
	for round := 0; round < 3; round++ {
		for i := 0; i < working; i++ {
			if _, _, ok := c.Get(churnKey(i), nil); ok != (round > 0) {
				t.Fatalf("round %d key %d: hit %v", round, i, ok)
			}
			if round == 0 {
				c.Put(churnKey(i), c.Gen(), churnSets[i%len(churnSets)], 1)
			}
		}
	}
	if m := c.Metrics(); m.Evictions != 0 || m.Entries != working {
		t.Fatalf("a working set of %d in a cache of %d: %+v", working, m.Capacity, m)
	}
}

func TestCacheHotPathAllocatesNothing(t *testing.T) {
	c := NewCache(65536)
	next := 0
	put := func() {
		c.Put(churnKey(next), c.Gen(), churnSets[next%len(churnSets)], 1)
		next++
	}
	// Fill it several times over, so every shard has retired
	// generations and its maps have their final size.
	for next < 1_000_000 {
		put()
	}
	if allocs := testing.AllocsPerRun(200_000, put); allocs != 0 {
		t.Errorf("Put of a known candidate set into a full cache: %v allocs", allocs)
	}
	buf := make([]routing.Candidate, 0, 8)
	probe := next - 1
	if allocs := testing.AllocsPerRun(1000, func() {
		var ok bool
		if buf, _, ok = c.Get(churnKey(probe), buf[:0]); !ok {
			t.Fatal("the last key put is gone")
		}
	}); allocs != 0 {
		t.Errorf("Get: %v allocs", allocs)
	}
}

// TestCacheConcurrentUse is for the race detector (ci.sh runs the
// package under -race; run it with -count=10 after touching the
// cache): readers, writers and invalidations at once, and no reader
// may ever see candidates other than the ones its key was put with.
func TestCacheConcurrentUse(t *testing.T) {
	c := NewCache(4 * cacheShards) // small, so generations retire all the time
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []routing.Candidate
			for i := 0; i < 20000; i++ {
				k := churnKey(i%512 + w*100)
				want := churnSets[int(k.Dst+k.Node)%len(churnSets)]
				var ok bool
				if buf, _, ok = c.Get(k, buf[:0]); ok && !candidatesEqual(buf, want) {
					t.Errorf("key %+v: got %+v, put %+v", k, buf, want)
					return
				}
				c.Put(k, c.Gen(), want, 1)
				if w == 0 && i%1000 == 999 {
					c.Invalidate()
				}
			}
		}()
	}
	wg.Wait()
	if n, limit := c.Len(), c.Metrics().Capacity; n > limit {
		t.Fatalf("%d entries live, capacity %d", n, limit)
	}
}
