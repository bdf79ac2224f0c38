// Command routerd serves routing decisions over HTTP from a compiled
// rule-table artifact — the deployment shape the paper argues for: the
// router is a fixed rule interpreter, the algorithm is data, and
// re-programming the router is an artifact upload, not a restart.
//
//	routerd -algo nafta -mesh 8x8 -addr :8070
//	routerd -artifact tables.art -addr :8070
//	routerd -shard 1/3 -addr :8071               # replica 1 of a 3-node fleet
//
// Endpoints (served by internal/fleet):
//
//	POST /decide         one DecisionRequest -> Decision
//	POST /decide/batch   []DecisionRequest   -> []Decision (bounded by -max-batch);
//	                     JSON as above for curl, or — what fleet.Client sends —
//	                     Content-Type: application/x-routerd-batch, a fixed-width
//	                     little-endian frame answered by a frame (DESIGN.md §9.3;
//	                     same decisions, errors and limits, non-200 stays JSON)
//	POST /reload         raw artifact bytes -> {"epoch":N,"version":V}
//	POST /registry/push  raw artifact bytes -> {"version":V} (stored, not served)
//	GET  /registry       versions, serving/previous ids, canary status
//	POST /canary         {"version":V,"fraction":F} diff F of decisions against V
//	POST /canary/stop    abandon the canary
//	POST /promote        make the canaried version the incumbent
//	POST /rollback       restore the previously serving version
//	POST /fault          {"nodes":[..],"links":[[a,b],..]} -> {"epoch":N}
//	GET  /metrics        decision counters, latency percentiles, registry
//	GET  /healthz        liveness
//
// A /fault names the cumulative fault state. Every engine that decides
// (the serving version's and a canary's) recomputes its fault
// knowledge from it before the answer, and every version activated
// later starts out knowing it; the epoch does not move.
//
// Errors are JSON documents ({"error":..., "valid":[...]}) so callers
// never scrape prose. On SIGINT/SIGTERM the server stops accepting
// connections and drains in-flight decisions for up to -drain before
// exiting — a fleet replica can be rolled without failing a batch.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/reconfig"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(argv []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("routerd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8070", "listen address")
		algo      = fs.String("algo", "nafta", "builtin rule program when no -artifact is given: nafta, routec or maze")
		artPath   = fs.String("artifact", "", "serve tables from this artifact file instead of compiling the builtin program")
		meshSpec  = fs.String("mesh", "8x8", "mesh size for nafta/maze, WxH")
		cubeDim   = fs.Int("cube", 4, "hypercube dimension for routec")
		shards    = fs.Int("shards", runtime.GOMAXPROCS(0), "engine replicas (concurrent decision lanes)")
		shardSpec = fs.String("shard", "", "this replica's topology shard, index/count (e.g. 0/3); empty = own every node")
		maxBatch  = fs.Int("max-batch", 4096, "largest accepted /decide/batch")
		drain     = fs.Duration("drain", 5*time.Second, "in-flight drain budget on SIGINT/SIGTERM")
		pprof     = fs.Bool("pprof", false, "mount net/http/pprof profiling endpoints under /debug/pprof/")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	die := func(err error) int {
		fmt.Fprintln(stderr, "routerd:", err)
		return 1
	}
	shard, err := fleet.ParseShard(*shardSpec)
	if err != nil {
		return die(err)
	}

	art, err := fleet.LoadOrBuild(*artPath, *algo, reconfig.BuildOptions{CubeDim: *cubeDim})
	if err != nil {
		return die(err)
	}
	g, err := fleet.TopologyFor(art, *meshSpec)
	if err != nil {
		return die(err)
	}
	srv, err := fleet.NewServer(art, nil, g, fleet.Options{
		Shards:   *shards,
		Shard:    shard,
		MaxBatch: *maxBatch,
		Pprof:    *pprof,
	})
	if err != nil {
		return die(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return die(err)
	}
	sum, _ := art.Checksum()
	log.Printf("routerd: serving %s (%s) on %s, shard %s, %d engine lanes, epoch %d, sha256:%.12s",
		art.Name, g.Name(), ln.Addr(), srv.Shard(), srv.Service().Lanes(), srv.Service().Epoch(), sum)

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
