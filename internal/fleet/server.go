// Package fleet turns the single-process decision service behind
// cmd/routerd into a multi-node decision fleet: a versioned artifact
// registry with canary/promote/rollback on top of the reconfig epoch
// machinery, topology-shard ownership for replica sets, a scattering
// client library, the /decide/batch binary frame, and the HTTP server
// the replicas run. Every encoding a replica speaks answers through one
// batch decision path (Registry.DecideBatch): one shard lock and one
// engine state per sub-batch, and no memo in front of the rule table.
package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Options configure one fleet replica server.
type Options struct {
	// Shards is the engine-replica count of the decision service
	// (default 1).
	Shards int
	// CacheEntries is accepted and ignored; see compat.go.
	CacheEntries int
	// Shard is this replica's slice of the topology (default: owns
	// everything).
	Shard ShardInfo
	// MaxBatch bounds /decide/batch length (default 4096).
	MaxBatch int
	// Pprof mounts net/http/pprof under /debug/pprof/ — opt-in, so a
	// production router is not profiling-exposed by accident.
	Pprof bool
}

// Server is one fleet replica: the registry-fronted decision service
// plus its HTTP surface. cmd/routerd runs exactly one; the repository
// benchmark and the fleet tests spin several in-process.
type Server struct {
	reg      *Registry
	g        topology.Graph
	nodes    int
	shard    ShardInfo
	maxBatch int
	pprof    bool
	bufs     sync.Pool // of *scratch

	misdirected atomic.Int64
}

// NewServer builds a replica serving art on g. The second parameter
// is a placeholder that only nil fills (compatibility block, see
// compat.go).
func NewServer(art *reconfig.Artifact, _ NoBackups, g topology.Graph, opts Options) (*Server, error) {
	if opts.Shard == (ShardInfo{}) {
		opts.Shard = Single
	}
	if !opts.Shard.Valid() {
		return nil, fmt.Errorf("bad shard %s", opts.Shard)
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 4096
	}
	reg, err := NewRegistry(art, g, RegistryOptions{Shards: opts.Shards})
	if err != nil {
		return nil, err
	}
	s := &Server{
		reg:      reg,
		g:        g,
		nodes:    g.Nodes(),
		shard:    opts.Shard,
		maxBatch: opts.MaxBatch,
		pprof:    opts.Pprof,
	}
	s.bufs.New = func() any { return new(scratch) }
	return s, nil
}

// Registry returns the replica's registry.
func (s *Server) Registry() *Registry { return s.reg }

// Service returns the underlying decision service.
func (s *Server) Service() *reconfig.Service { return s.reg.Service() }

// Graph returns the serving topology.
func (s *Server) Graph() topology.Graph { return s.g }

// Shard returns the replica's topology shard.
func (s *Server) Shard() ShardInfo { return s.shard }

// Mux builds the replica's HTTP surface.
func (s *Server) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /decide", s.handleDecide)
	mux.HandleFunc("POST /decide/batch", s.handleBatch)
	mux.HandleFunc("POST /reload", s.handleReload)
	mux.HandleFunc("POST /fault", s.handleFault)
	mux.HandleFunc("POST /registry/push", s.handlePush)
	mux.HandleFunc("GET /registry", s.handleRegistry)
	mux.HandleFunc("POST /canary", s.handleCanary)
	mux.HandleFunc("POST /canary/stop", s.handleCanaryStop)
	mux.HandleFunc("POST /promote", s.handlePromote)
	mux.HandleFunc("POST /rollback", s.handleRollback)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	return mux
}

// scratch is what one request borrows from the server's pool: the
// candidate buffer every decide path appends to, and for a binary
// batch the request body, the decoded requests and the response frame.
type scratch struct {
	cands     []routing.Candidate
	body, out []byte
	reqs      []reconfig.DecisionRequest
}

// Decision mirrors reconfig.Decision for the HTTP layer.
type Decision = reconfig.Decision

// serve is the one definition of served decisions, whatever encoding
// asked for them: it hands emit the answer to every reqs[i], in order.
// A request for a node this replica does not own is answered in place
// with the ownership error (and counted); each run of owned requests
// between such refusals goes through the registry's batch path, so a
// batch the client scattered correctly is answered under one engine
// state. The candidates are appended to buf, and the grown buf is
// returned for reuse.
func (s *Server) serve(reqs []reconfig.DecisionRequest, buf []routing.Candidate, emit reconfig.Emit) []routing.Candidate {
	for start := 0; start < len(reqs); {
		end := start
		for end < len(reqs) && !s.foreign(&reqs[end]) {
			end++
		}
		if end > start {
			off := start
			buf = s.reg.DecideBatch(reqs[start:end], buf, func(i int, cands []routing.Candidate, epoch uint64, err error) {
				emit(off+i, cands, epoch, err)
			})
		}
		if end < len(reqs) {
			node := reqs[end].Node
			s.misdirected.Add(1)
			emit(end, buf[len(buf):], 0, fmt.Errorf("node %d is owned by replica %d/%d (this is replica %s)",
				node, Owner(node, s.shard.Count), s.shard.Count, s.shard))
			end++
		}
		start = end
	}
	return buf
}

// foreign reports whether req names a node another replica owns (an
// out-of-range node is the service's error to report).
func (s *Server) foreign(req *reconfig.DecisionRequest) bool {
	return req.Node >= 0 && req.Node < s.nodes && !s.shard.Owns(req.Node)
}

// render is one served answer in the JSON encodings.
func render(cands []routing.Candidate, epoch uint64, err error) Decision {
	d := Decision{Epoch: epoch}
	switch {
	case err != nil:
		d.Error = err.Error()
	case len(cands) == 0:
		d.Unroutable = true
		d.Candidates = []routing.Candidate{}
	default:
		d.Candidates = append([]routing.Candidate(nil), cands...)
	}
	return d
}

func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	var req reconfig.DecisionRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err), nil)
		return
	}
	sc := s.bufs.Get().(*scratch)
	var d Decision
	sc.cands = s.serve([]reconfig.DecisionRequest{req}, sc.cands[:0], func(_ int, cands []routing.Candidate, epoch uint64, err error) {
		d = render(cands, epoch, err)
	})
	s.bufs.Put(sc)
	writeJSON(w, d)
}

// maxBatchBody bounds a /decide/batch body in either encoding.
const maxBatchBody = 8 << 20

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Content-Type") == BatchContentType {
		s.handleBatchFrame(w, r)
		return
	}
	var reqs []reconfig.DecisionRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody)).Decode(&reqs); err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("decoding batch: %v", err), nil)
		return
	}
	if len(reqs) > s.maxBatch {
		s.refuseBatch(w, len(reqs))
		return
	}
	out := make([]Decision, len(reqs))
	sc := s.bufs.Get().(*scratch)
	sc.cands = s.serve(reqs, sc.cands[:0], func(i int, cands []routing.Candidate, epoch uint64, err error) {
		out[i] = render(cands, epoch, err)
	})
	s.bufs.Put(sc)
	writeJSON(w, out)
}

func (s *Server) refuseBatch(w http.ResponseWriter, n int) {
	writeJSONError(w, http.StatusRequestEntityTooLarge,
		fmt.Sprintf("batch of %d decisions exceeds the %d limit (split the batch)", n, s.maxBatch), nil)
}

// handleBatchFrame is /decide/batch in the binary encoding (wire.go):
// the body, the decoded requests, the candidates and the response
// frame all live in one pooled scratch, and each answer is appended to
// the frame as it is served.
func (s *Server) handleBatchFrame(w http.ResponseWriter, r *http.Request) {
	sc := s.bufs.Get().(*scratch)
	defer s.bufs.Put(sc)
	var err error
	if sc.body, err = readAll(http.MaxBytesReader(w, r.Body, maxBatchBody), sc.body[:0]); err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("reading batch: %v", err), nil)
		return
	}
	n, err := batchRequestCount(sc.body)
	if err == nil && n > s.maxBatch {
		s.refuseBatch(w, n)
		return
	}
	if err == nil {
		sc.reqs, err = decodeRequests(sc.body, n, sc.reqs[:0])
	}
	if err != nil {
		var valid []string
		if errors.Is(err, errFrameVersion) {
			valid = frameVersions
		}
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("decoding batch: %v", err), valid)
		return
	}
	frame := beginResponse(sc.out[:0], n)
	var encErr error
	sc.cands = s.serve(sc.reqs, sc.cands[:0], func(i int, cands []routing.Candidate, epoch uint64, err error) {
		if encErr != nil {
			return
		}
		errText := ""
		if err != nil {
			errText = err.Error()
		}
		if err := frame.add(cands, epoch, errText); err != nil {
			encErr = fmt.Errorf("encoding decision %d: %v", i, err)
		}
	})
	if encErr != nil {
		writeJSONError(w, http.StatusInternalServerError, encErr.Error(), nil)
		return
	}
	sc.out = frame.finish()
	w.Header().Set("Content-Type", BatchContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(sc.out)))
	if _, err := w.Write(sc.out); err != nil {
		log.Printf("fleet: writing response: %v", err)
	}
}

// readArtifact decodes a request body as a table artifact, answering
// 400 itself when it is not one.
func readArtifact(w http.ResponseWriter, r *http.Request) (*reconfig.Artifact, bool) {
	art, err := reconfig.Decode(http.MaxBytesReader(w, r.Body, 80<<20))
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error(), nil)
		return nil, false
	}
	return art, true
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	art, ok := readArtifact(w, r)
	if !ok {
		return
	}
	epoch, err := s.reg.Reload(art)
	if err != nil {
		writeJSONError(w, http.StatusConflict, err.Error(), nil)
		return
	}
	writeJSON(w, map[string]any{"epoch": epoch, "version": s.reg.Serving()})
}

func (s *Server) handlePush(w http.ResponseWriter, r *http.Request) {
	art, ok := readArtifact(w, r)
	if !ok {
		return
	}
	v, err := s.reg.Push(art)
	if err != nil {
		writeJSONError(w, http.StatusConflict, err.Error(), nil)
		return
	}
	writeJSON(w, map[string]any{"version": v.ID, "checksum": v.Checksum})
}

func (s *Server) handleRegistry(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.reg.Status())
}

// CanaryRequest is the wire form of POST /canary.
type CanaryRequest struct {
	Version  int     `json:"version"`
	Fraction float64 `json:"fraction"`
}

func (s *Server) handleCanary(w http.ResponseWriter, r *http.Request) {
	var req CanaryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err), nil)
		return
	}
	if req.Fraction == 0 {
		req.Fraction = 0.1
	}
	if err := s.reg.StartCanary(req.Version, req.Fraction); err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error(), versionChoices(s.reg))
		return
	}
	writeJSON(w, s.reg.Canary())
}

func (s *Server) handleCanaryStop(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]bool{"stopped": s.reg.StopCanary()})
}

func (s *Server) handlePromote(w http.ResponseWriter, _ *http.Request) {
	epoch, err := s.reg.Promote()
	if err != nil {
		writeJSONError(w, http.StatusConflict, err.Error(), versionChoices(s.reg))
		return
	}
	writeJSON(w, map[string]any{"epoch": epoch, "serving": s.reg.Serving()})
}

func (s *Server) handleRollback(w http.ResponseWriter, _ *http.Request) {
	epoch, err := s.reg.Rollback()
	if err != nil {
		writeJSONError(w, http.StatusConflict, err.Error(), versionChoices(s.reg))
		return
	}
	writeJSON(w, map[string]any{"epoch": epoch, "serving": s.reg.Serving()})
}

// versionChoices renders the pushed version ids as the valid-choice
// list of registry errors.
func versionChoices(reg *Registry) []string {
	ids := reg.VersionIDs()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = fmt.Sprintf("%d", id)
	}
	return out
}

// FaultRequest is the wire form of a cumulative fault state.
type FaultRequest struct {
	Nodes []int    `json:"nodes,omitempty"`
	Links [][2]int `json:"links,omitempty"`
}

// Set materialises the request, validating it against the serving
// topology: nodes must be in range and every link must be one the
// topology has.
func (fr *FaultRequest) Set(g topology.Graph) (*fault.Set, error) {
	f := fault.NewSet()
	for _, n := range fr.Nodes {
		if n < 0 || n >= g.Nodes() {
			return nil, fmt.Errorf("fault node %d out of range [0,%d)", n, g.Nodes())
		}
		f.FailNode(topology.NodeID(n))
	}
	for _, l := range fr.Links {
		if l[0] < 0 || l[0] >= g.Nodes() || l[1] < 0 || l[1] >= g.Nodes() {
			return nil, fmt.Errorf("fault link %v out of range [0,%d)", l, g.Nodes())
		}
		if _, ok := g.PortTo(topology.NodeID(l[0]), topology.NodeID(l[1])); !ok {
			return nil, fmt.Errorf("fault link %v is not a link of %s", l, g.Name())
		}
		f.FailLink(topology.NodeID(l[0]), topology.NodeID(l[1]))
	}
	return f, nil
}

// handleFault applies a cumulative fault state through the registry
// (the live recompute on every engine that decides) and answers with
// the serving epoch, which a fault does not move.
func (s *Server) handleFault(w http.ResponseWriter, r *http.Request) {
	var req FaultRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err), nil)
		return
	}
	f, err := req.Set(s.g)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error(), nil)
		return
	}
	s.reg.UpdateFaults(f)
	writeJSON(w, map[string]any{"epoch": s.reg.Epoch()})
}

// MetricsDoc is the /metrics document: the decision-service snapshot
// plus the fleet layers (registry, shard). Cache is always nil
// (compatibility block, see compat.go).
type MetricsDoc struct {
	reconfig.MetricsSnapshot
	Shard       ShardInfo       `json:"shard"`
	Misdirected int64           `json:"misdirected"`
	Cache       *CacheMetrics   `json:"cache,omitempty"`
	Registry    *RegistryStatus `json:"registry,omitempty"`
}

// Metrics snapshots the replica's full metrics document.
func (s *Server) Metrics() MetricsDoc {
	doc := MetricsDoc{
		MetricsSnapshot: s.reg.Service().Metrics(),
		Shard:           s.shard,
		Misdirected:     s.misdirected.Load(),
	}
	st := s.reg.Status()
	doc.Registry = &st
	return doc
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.Metrics())
}

// errorDoc is the JSON error body every non-200 response carries:
// the message plus, when the input names one of an enumerable set,
// the valid choices (the HTTP face of the ftsim/rulec flag-validation
// convention).
type errorDoc struct {
	Error string   `json:"error"`
	Valid []string `json:"valid,omitempty"`
}

func writeJSONError(w http.ResponseWriter, code int, msg string, valid []string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(errorDoc{Error: msg, Valid: valid}); err != nil {
		log.Printf("fleet: writing error response: %v", err)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("fleet: writing response: %v", err)
	}
}

// LoadOrBuild reads an artifact file, or compiles the builtin program
// of the requested family when path is empty — routerd's startup path.
func LoadOrBuild(path, algo string, opts reconfig.BuildOptions) (*reconfig.Artifact, error) {
	if path == "" {
		return reconfig.Build(algo, opts)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return reconfig.Decode(f)
}

// TopologyFor builds the topology the artifact's family routes on:
// nafta and maze take the WxH mesh spec, routec pins the hypercube
// dimension the artifact was compiled for.
func TopologyFor(art *reconfig.Artifact, meshSpec string) (topology.Graph, error) {
	parseMesh := func() (int, int, error) {
		var w, h int
		if _, err := fmt.Sscanf(strings.ToLower(meshSpec), "%dx%d", &w, &h); err != nil || w < 2 || h < 2 {
			return 0, 0, fmt.Errorf("bad -mesh %q (want WxH, both >= 2)", meshSpec)
		}
		return w, h, nil
	}
	switch art.Algorithm {
	case "nafta":
		w, h, err := parseMesh()
		if err != nil {
			return nil, err
		}
		return topology.NewMesh(w, h), nil
	case "routec":
		return topology.NewHypercube(art.CubeDim), nil
	case "maze":
		w, h, err := parseMesh()
		if err != nil {
			return nil, err
		}
		m := topology.NewMesh(w, h)
		if m.Ports() != art.Ports {
			return nil, fmt.Errorf("maze artifact compiled for %d ports, mesh has %d", art.Ports, m.Ports())
		}
		return m, nil
	}
	return nil, fmt.Errorf("artifact names unknown algorithm %q", art.Algorithm)
}
