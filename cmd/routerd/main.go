// Command routerd serves routing decisions over HTTP from a compiled
// rule-table artifact — the deployment shape the paper argues for: the
// router is a fixed rule interpreter, the algorithm is data, and
// re-programming the router is an artifact upload, not a restart.
//
//	routerd -algo nafta -mesh 8x8 -addr :8070
//	routerd -artifact tables.art -addr :8070
//	routerd -artifact tables.bdl -addr :8070   # failover bundle: backups precompiled
//	routerd -shard 1/3 -cache 65536 -addr :8071  # replica 1 of a 3-node fleet
//
// Endpoints (served by internal/fleet):
//
//	POST /decide         one DecisionRequest -> Decision
//	POST /decide/batch   []DecisionRequest   -> []Decision (bounded by -max-batch);
//	                     JSON as above for curl, or — what fleet.Client sends —
//	                     Content-Type: application/x-routerd-batch, a fixed-width
//	                     little-endian frame answered by a frame (DESIGN.md §9.3;
//	                     same decisions, errors and limits, non-200 stays JSON)
//	POST /reload         raw artifact or bundle bytes -> {"epoch":N,"version":V}
//	POST /registry/push  raw artifact bytes -> {"version":V} (stored, not served)
//	GET  /registry       versions, serving/previous ids, canary status
//	POST /canary         {"version":V,"fraction":F} diff F of decisions against V
//	POST /canary/stop    abandon the canary
//	POST /promote        make the canaried version the incumbent
//	POST /rollback       restore the previously serving version
//	POST /fault          {"nodes":[..],"links":[[a,b],..]} -> {"flipped":bool,"epoch":N}
//	GET  /metrics        decision counters, latency percentiles, cache, registry, failover
//	GET  /healthz        liveness
//
// Errors are JSON documents ({"error":..., "valid":[...]}) so callers
// never scrape prose. On SIGINT/SIGTERM the server stops accepting
// connections and drains in-flight decisions for up to -drain before
// exiting — a fleet replica can be rolled without failing a batch.
//
// The -smoke flag runs the built-in load generator against an
// in-process server: workers stream batched decisions while the table
// artifact is hot-reloaded mid-load, and the run fails unless every
// decision succeeded and the epoch advanced.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("routerd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8070", "listen address")
		algo      = fs.String("algo", "nafta", "builtin rule program when no -artifact is given: nafta, routec or maze")
		artPath   = fs.String("artifact", "", "serve tables from this artifact or bundle file instead of compiling the builtin program")
		meshSpec  = fs.String("mesh", "8x8", "mesh size for nafta/maze, WxH (ignored when a bundle names its own topology)")
		cubeDim   = fs.Int("cube", 4, "hypercube dimension for routec")
		shards    = fs.Int("shards", runtime.GOMAXPROCS(0), "engine replicas (concurrent decision lanes)")
		failMode  = fs.String("failover", "auto", "failover plane: auto (precompile backups when the served file is a bundle) or off")
		cacheSize = fs.Int("cache", 65536, "decision memoization cache entries (0 disables)")
		shardSpec = fs.String("shard", "", "this replica's topology shard, index/count (e.g. 0/3); empty = own every node")
		maxBatch  = fs.Int("max-batch", 4096, "largest accepted /decide/batch")
		drain     = fs.Duration("drain", 5*time.Second, "in-flight drain budget on SIGINT/SIGTERM")
		pprof     = fs.Bool("pprof", false, "mount net/http/pprof profiling endpoints under /debug/pprof/")
		smoke     = fs.Bool("smoke", false, "run the load generator against an in-process server and exit")
		requests  = fs.Int("requests", 1000, "smoke: total decisions to issue")
		batch     = fs.Int("batch", 32, "smoke: decisions per batch request")
		workers   = fs.Int("workers", 8, "smoke: concurrent load workers")
		seed      = fs.Int64("seed", 1, "smoke: traffic seed")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	die := func(err error) int {
		fmt.Fprintln(stderr, "routerd:", err)
		return 1
	}
	if !fleet.ValidFailoverMode(*failMode) {
		return die(fmt.Errorf("unknown -failover mode %q (valid: %s)", *failMode, strings.Join(fleet.FailoverModes, ", ")))
	}
	shard, err := fleet.ParseShard(*shardSpec)
	if err != nil {
		return die(err)
	}

	art, bundle, err := fleet.LoadOrBuild(*artPath, *algo, reconfig.BuildOptions{CubeDim: *cubeDim})
	if err != nil {
		return die(err)
	}
	var g topology.Graph
	if bundle != nil {
		// A bundle pins the topology its classes were enumerated on.
		g, err = bundle.Graph()
	} else {
		g, err = fleet.TopologyFor(art, *meshSpec)
	}
	if err != nil {
		return die(err)
	}
	srv, err := fleet.NewServer(art, bundle, g, fleet.Options{
		Shards:       *shards,
		FailoverMode: *failMode,
		CacheEntries: *cacheSize,
		Shard:        shard,
		MaxBatch:     *maxBatch,
		Pprof:        *pprof,
	})
	if err != nil {
		return die(err)
	}

	if *smoke {
		if err := runSmoke(srv, art, stdout, *requests, *batch, *workers, *seed); err != nil {
			return die(fmt.Errorf("smoke: %w", err))
		}
		return 0
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return die(err)
	}
	sum, _ := art.Checksum()
	planeNote := ""
	if p := srv.Plane(); p != nil {
		planeNote = fmt.Sprintf(", %d failover classes", p.CoveredClasses())
	}
	log.Printf("routerd: serving %s (%s) on %s, shard %s, %d engine lanes, epoch %d, sha256:%.12s%s",
		art.Name, g.Name(), ln.Addr(), srv.Shard(), srv.Service().Shards(), srv.Service().Epoch(), sum, planeNote)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, ln, srv.Mux(), *drain); err != nil {
		return die(err)
	}
	log.Printf("routerd: drained, bye")
	return 0
}

// serve runs handler on ln until ctx is cancelled, then shuts down
// gracefully: the listener closes immediately, in-flight requests get
// up to drain to finish. A serve error other than the shutdown's own
// ErrServerClosed is returned as-is.
func serve(ctx context.Context, ln net.Listener, handler http.Handler, drain time.Duration) error {
	httpSrv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		// Drain budget exhausted: close whatever is left.
		httpSrv.Close()
		return fmt.Errorf("drain: %w", err)
	}
	<-errc // Serve has returned ErrServerClosed
	return nil
}

// Wire aliases so callers of the main package's test helpers read
// naturally; the types live in internal/fleet.
type (
	Decision     = fleet.Decision
	FaultRequest = fleet.FaultRequest
)

// runSmoke drives the built-in load generator: workers stream batched
// decisions over real HTTP while the artifact is hot-reloaded halfway
// through, then the counters are checked.
func runSmoke(srv *fleet.Server, art *reconfig.Artifact, stdout io.Writer, requests, batchSize, workers int, seed int64) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Mux()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	svc := srv.Service()
	nodes := srv.Graph().Nodes()

	// The reload payload: the same program stamped as the next epoch —
	// a same-regime swap, which is what a live re-program looks like.
	next := *art
	next.Epoch = svc.Epoch() + 1
	var artBytes bytes.Buffer
	if err := next.Encode(&artBytes); err != nil {
		return err
	}

	startEpoch := svc.Epoch()
	batches := make(chan []reconfig.DecisionRequest, workers)
	go func() {
		rng := rand.New(rand.NewSource(seed))
		left := requests
		for left > 0 {
			n := batchSize
			if n > left {
				n = left
			}
			b := make([]reconfig.DecisionRequest, n)
			for i := range b {
				b[i] = randomRequest(rng, nodes)
			}
			batches <- b
			left -= n
		}
		close(batches)
	}()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		done     int
		reloaded bool
	)
	client := &http.Client{Timeout: 30 * time.Second}
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range batches {
				payload, _ := json.Marshal(b)
				resp, err := client.Post(base+"/decide/batch", "application/json", bytes.NewReader(payload))
				if err != nil {
					fail(err)
					return
				}
				var out []Decision
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					fail(err)
					return
				}
				if len(out) != len(b) {
					fail(fmt.Errorf("batch of %d answered with %d decisions", len(b), len(out)))
					return
				}
				for i, d := range out {
					if d.Error != "" {
						fail(fmt.Errorf("decision failed: %s", d.Error))
						return
					}
					if d.Unroutable {
						fail(fmt.Errorf("fault-free request %+v judged unroutable", b[i]))
						return
					}
				}
				mu.Lock()
				done += len(b)
				trigger := !reloaded && done >= requests/2
				if trigger {
					reloaded = true
				}
				mu.Unlock()
				if trigger {
					resp, err := client.Post(base+"/reload", "application/octet-stream", bytes.NewReader(artBytes.Bytes()))
					if err != nil {
						fail(fmt.Errorf("hot reload: %w", err))
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						fail(fmt.Errorf("hot reload: %s: %s", resp.Status, bytes.TrimSpace(body)))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}

	m := svc.Metrics()
	switch {
	case m.Failed != 0:
		return fmt.Errorf("%d failed decisions", m.Failed)
	case m.Unroutable != 0:
		return fmt.Errorf("%d unroutable decisions under a fault-free table", m.Unroutable)
	case !reloaded:
		return fmt.Errorf("load finished before the hot reload fired")
	case m.Epoch <= startEpoch:
		return fmt.Errorf("epoch did not advance across the reload (still %d)", m.Epoch)
	}
	cacheNote := ""
	if c := srv.Registry().Cache(); c != nil {
		cm := c.Metrics()
		// With the cache on, served decisions = service decisions + hits;
		// the smoke still demands every issued decision was answered.
		if m.Decisions+cm.Hits != int64(requests) {
			return fmt.Errorf("issued %d decisions, served %d (+%d memoized)", requests, m.Decisions, cm.Hits)
		}
		cacheNote = fmt.Sprintf(", %d memoized (%.0f%% hit)", cm.Hits, 100*cm.HitRate)
	} else if m.Decisions != int64(requests) {
		return fmt.Errorf("issued %d decisions, served %d", requests, m.Decisions)
	}
	fmt.Fprintf(stdout, "smoke ok: %d decisions across %d workers, hot reload epoch %d -> %d, p50 %.1fus p99 %.1fus%s\n",
		int64(requests), workers, startEpoch, m.Epoch, m.LatencyP50, m.LatencyP99, cacheNote)
	return nil
}

// randomRequest builds a fault-free injection-time decision request
// (in_port = injection, clean header), which every builtin table must
// be able to route.
func randomRequest(rng *rand.Rand, nodes int) reconfig.DecisionRequest {
	src := rng.Intn(nodes)
	dst := rng.Intn(nodes)
	for dst == src {
		dst = rng.Intn(nodes)
	}
	return reconfig.DecisionRequest{
		Node:   src,
		InPort: routing.InjectionPort,
		InVC:   0,
		Src:    src,
		Dst:    dst,
		Length: 4,
	}
}
