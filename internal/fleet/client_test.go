package fleet

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/topology"
)

// testFleet spins n in-process replicas over a fresh nafta mesh and
// returns the client plus the servers.
func testFleet(t *testing.T, n int) (*Client, []*Server) {
	t.Helper()
	g := topology.NewMesh(8, 8)
	art := buildArt(t, "nafta", 1, g)
	urls := make([]string, n)
	servers := make([]*Server, n)
	for i := 0; i < n; i++ {
		srv, err := NewServer(art, nil, g, Options{
			CacheEntries: 1024,
			Shard:        ShardInfo{Index: i, Count: n},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Mux())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
		servers[i] = srv
	}
	client, err := NewClient(urls, ClientOptions{Backoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return client, servers
}

func TestClientScatterGatherOrder(t *testing.T) {
	client, servers := testFleet(t, 3)
	g := servers[0].Graph()
	const n = 120
	reqs := make([]reconfig.DecisionRequest, n)
	for i := range reqs {
		reqs[i] = reconfig.DecisionRequest{
			Node: i % g.Nodes(), InPort: routing.InjectionPort,
			Src: i % g.Nodes(), Dst: (i + 9) % g.Nodes(), Length: 4,
		}
		if reqs[i].Src == reqs[i].Dst {
			reqs[i].Dst = (reqs[i].Dst + 1) % g.Nodes()
		}
	}
	out, err := client.DecideBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("%d decisions for %d requests", len(out), n)
	}
	// Order check: answer i must be the single-node answer for request
	// i — decided on the replica owning reqs[i].Node, gathered back to
	// position i.
	ref, err := reconfig.NewService(buildArt(t, "nafta", 1, g), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if out[i].Error != "" {
			t.Fatalf("decision %d: %s", i, out[i].Error)
		}
		want, _, _ := ref.Decide(&reqs[i], nil)
		if !candidatesEqual(out[i].Candidates, want) {
			t.Fatalf("decision %d out of order or wrong: got %+v want %+v", i, out[i].Candidates, want)
		}
	}
	// No replica answered a node it does not own.
	for i, srv := range servers {
		if m := srv.Metrics(); m.Misdirected != 0 {
			t.Fatalf("replica %d saw %d misdirected requests", i, m.Misdirected)
		}
	}
}

func TestNewClientLeavesItsArgumentAlone(t *testing.T) {
	urls := []string{"http://a.example/", "http://b.example//"}
	client, err := NewClient(urls, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if urls[0] != "http://a.example/" || urls[1] != "http://b.example//" {
		t.Fatalf("NewClient rewrote the caller's slice: %q", urls)
	}
	if client.URL(0) != "http://a.example" || client.URL(1) != "http://b.example" {
		t.Fatalf("replica URLs %q %q keep their trailing slashes", client.URL(0), client.URL(1))
	}
}

// TestClientInBandErrorsSurviveTheFrame: a request no replica can
// answer comes back as that decision's error beside its neighbours'
// answers, not as a failed batch.
func TestClientInBandErrorsSurviveTheFrame(t *testing.T) {
	client, servers := testFleet(t, 3)
	nodes := servers[0].Graph().Nodes()
	out, err := client.DecideBatch(context.Background(), []reconfig.DecisionRequest{
		injectReq(4, 9), {Node: -1, Src: 0, Dst: 1}, injectReq(5, 9), {Node: nodes + 1, Src: 0, Dst: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range out {
		if bad := i%2 == 1; bad != strings.Contains(d.Error, "out of range") || bad == (len(d.Candidates) > 0) {
			t.Fatalf("decision %d: %+v", i, d)
		}
	}
}

func TestClientRetriesFlakyReplica(t *testing.T) {
	g := topology.NewMesh(4, 4)
	art := buildArt(t, "nafta", 1, g)
	srv, err := NewServer(art, nil, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mux := srv.Mux()
	var failures atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The replica is down for the first two attempts, then recovers.
		if failures.Add(1) <= 2 {
			http.Error(w, "replica restarting", http.StatusServiceUnavailable)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	client, err := NewClient([]string{flaky.URL}, ClientOptions{Retries: 3, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	req := reconfig.DecisionRequest{Node: 0, InPort: routing.InjectionPort, Src: 0, Dst: 5, Length: 4}
	d, err := client.Decide(context.Background(), &req)
	if err != nil {
		t.Fatalf("retry did not mask the flaky replica: %v", err)
	}
	if d.Error != "" || d.Unroutable {
		t.Fatalf("decision %+v", d)
	}
	if got := failures.Load(); got != 3 {
		t.Fatalf("%d attempts, want 3 (2 failures + 1 success)", got)
	}
}

// TestClientRetryResendsIntactFrame: the replica refuses every frame
// the first time it sees those bytes and serves it the second, while
// several batches share the client's buffer pool. A retry that resent
// a buffer some other batch had taken over would never be recognised,
// or would be answered for the wrong requests.
func TestClientRetryResendsIntactFrame(t *testing.T) {
	g := topology.NewMesh(4, 4)
	art := buildArt(t, "nafta", 1, g)
	srv, err := NewServer(art, nil, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mux := srv.Mux()
	var mu sync.Mutex
	seen := map[string]bool{}
	var attempts atomic.Int64
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		mu.Lock()
		again := seen[string(body)]
		seen[string(body)] = true
		mu.Unlock()
		if !again {
			http.Error(w, "replica restarting", http.StatusServiceUnavailable)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		mux.ServeHTTP(w, r)
	}))
	defer replica.Close()
	client, err := NewClient([]string{replica.URL}, ClientOptions{Retries: 1, Backoff: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := reconfig.NewService(art, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	const lanes, batches = 8, 40
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				// The length makes every batch's bytes its own.
				reqs := make([]reconfig.DecisionRequest, 1+b%7)
				for i := range reqs {
					reqs[i] = injectReq((lane+i)%g.Nodes(), (lane+i+5)%g.Nodes())
					reqs[i].Length = 1 + lane*batches + b
				}
				out, err := client.DecideBatch(context.Background(), reqs)
				if err != nil {
					t.Errorf("lane %d batch %d: %v", lane, b, err)
					return
				}
				for i := range reqs {
					want, _, _ := ref.Decide(&reqs[i], nil)
					if out[i].Error != "" || !candidatesEqual(out[i].Candidates, want) {
						t.Errorf("lane %d batch %d request %d: got %+v want %+v", lane, b, i, out[i], want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := attempts.Load(); got != 2*lanes*batches {
		t.Fatalf("%d attempts for %d batches, want exactly two each", got, lanes*batches)
	}
}

func TestClientRetryBudgetExhausted(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "dead", http.StatusServiceUnavailable)
	}))
	defer down.Close()
	client, err := NewClient([]string{down.URL}, ClientOptions{Retries: 2, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	req := reconfig.DecisionRequest{Node: 0, InPort: routing.InjectionPort, Src: 0, Dst: 1, Length: 4}
	_, err = client.Decide(context.Background(), &req)
	if err == nil {
		t.Fatal("permanently down replica did not error")
	}
}

func TestClientContextCancelsBackoff(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "dead", http.StatusServiceUnavailable)
	}))
	defer down.Close()
	client, err := NewClient([]string{down.URL}, ClientOptions{Retries: 10, Backoff: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req := reconfig.DecisionRequest{Node: 0, InPort: routing.InjectionPort, Src: 0, Dst: 1, Length: 4}
	start := time.Now()
	_, err = client.Decide(ctx, &req)
	if err == nil {
		t.Fatal("cancelled context returned a decision")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("backoff ignored the context deadline")
	}
}

// scatterMatches sends reqs through the client and holds every answer
// to the single-node reference service, bit for bit.
func scatterMatches(t *testing.T, client *Client, ref *reconfig.Service, reqs []reconfig.DecisionRequest, phase string) {
	t.Helper()
	out, err := client.DecideBatch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("%s: %v", phase, err)
	}
	for i := range reqs {
		want, _, err := ref.Decide(&reqs[i], nil)
		if err != nil {
			t.Fatalf("%s: reference: %v", phase, err)
		}
		if out[i].Error != "" || out[i].Unroutable != (len(want) == 0) || !candidatesEqual(out[i].Candidates, want) {
			t.Fatalf("%s: request %+v: fleet answered %+v, reference %+v", phase, reqs[i], out[i], want)
		}
	}
}

// TestClientFleetRollout drives a hot push/canary/promote/rollback
// cycle over three shard-owning replicas. The rollout pushes the same
// program, so in every phase a scattered batch must answer exactly as
// a single-node reference service does; the canary must sample and
// never diverge, no replica may be sent a node it does not own, and a
// repeated batch must hit the memoization cache on every replica.
func TestClientFleetRollout(t *testing.T) {
	client, servers := testFleet(t, 3)
	g := servers[0].Graph()
	ref, err := reconfig.NewService(buildArt(t, "nafta", 1, g), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	batch := func() []reconfig.DecisionRequest {
		reqs := make([]reconfig.DecisionRequest, 48)
		for i := range reqs {
			reqs[i] = randomDifferentialRequest(rng, g)
		}
		return reqs
	}
	scatterMatches(t, client, ref, batch(), "before the rollout")

	ctx := context.Background()
	v, err := client.Push(ctx, encodeArt(t, buildArt(t, "nafta", 2, g)))
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("fleet push assigned version %d", v)
	}
	if err := client.Canary(ctx, v, 0.5); err != nil {
		t.Fatal(err)
	}
	scatterMatches(t, client, ref, batch(), "under canary")
	for i := range servers {
		st, err := client.RegistryStatus(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		if st.Canary == nil || st.Canary.Diverged != 0 || st.Canary.Sampled == 0 {
			t.Fatalf("replica %d: same-program canary %+v, want samples and no divergence", i, st.Canary)
		}
	}
	if err := client.Promote(ctx); err != nil {
		t.Fatal(err)
	}
	for i := range servers {
		st, err := client.RegistryStatus(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		if st.Serving != 2 || st.Previous != 1 {
			t.Fatalf("replica %d serving v%d (previous v%d) after fleet promote, want v2/v1", i, st.Serving, st.Previous)
		}
	}
	scatterMatches(t, client, ref, batch(), "after promote")
	if err := client.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
	for i := range servers {
		st, _ := client.RegistryStatus(ctx, i)
		if st.Serving != 1 {
			t.Fatalf("replica %d serving v%d after fleet rollback", i, st.Serving)
		}
	}
	scatterMatches(t, client, ref, batch(), "after rollback")

	// The gate the fleet smoke ended on: a repeated batch still matches
	// the reference, every replica served part of it from its cache, and
	// none was ever sent a node it does not own.
	t.Run("smoke gate", func(t *testing.T) {
		repeat := batch()
		scatterMatches(t, client, ref, repeat, "repeated batch, first pass")
		scatterMatches(t, client, ref, repeat, "repeated batch, second pass")
		for i := range servers {
			var doc MetricsDoc
			if err := client.Metrics(ctx, i, &doc); err != nil {
				t.Fatal(err)
			}
			if doc.Cache == nil || doc.Cache.Hits == 0 {
				t.Fatalf("replica %d: repeated batch produced no cache hits (%+v)", i, doc.Cache)
			}
			if doc.Misdirected != 0 {
				t.Fatalf("replica %d answered %d misdirected decisions", i, doc.Misdirected)
			}
		}
	})
}
