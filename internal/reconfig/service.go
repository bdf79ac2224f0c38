package reconfig

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/topology"
)

// DecisionRequest is the wire form of one routing decision: the
// deciding router, the arrival context and the message header state.
type DecisionRequest struct {
	Node   int `json:"node"`
	InPort int `json:"in_port"` // -1 = injection at the source
	InVC   int `json:"in_vc"`

	Src    int `json:"src"`
	Dst    int `json:"dst"`
	Length int `json:"length"`

	Misroutes   int  `json:"misroutes,omitempty"`
	Marked      bool `json:"marked,omitempty"`
	Phase       int  `json:"phase,omitempty"`
	DetourLevel int  `json:"detour_level,omitempty"`
	VNet        int  `json:"vnet,omitempty"`
}

// Decision is the wire form of one decision result.
type Decision struct {
	Candidates []routing.Candidate `json:"candidates"`
	// Epoch is the table epoch that made the decision.
	Epoch uint64 `json:"epoch"`
	// Unroutable is set when the engine returned no admissible output
	// (a legal answer under faults, distinct from a request error).
	Unroutable bool   `json:"unroutable,omitempty"`
	Error      string `json:"error,omitempty"`
}

// shard is one independently locked engine replica. Each shard owns a
// full engine instance (engines keep per-decision scratch state, so
// they are single-threaded by construction) plus a scratch header, so
// the steady-state decision path performs zero allocations, and the
// latencies of the decisions it served (merged across shards when
// Metrics is read), so recording one takes no lock beyond mu.
type shard struct {
	mu    sync.Mutex
	eng   routing.Algorithm
	epoch uint64
	hdr   routing.Header
	lat   *metrics.Histogram
}

// newLatencyHistogram: decision latencies sit in the microsecond range;
// 2µs bins up to 2ms keep the percentiles meaningful without tracking
// raw samples.
func newLatencyHistogram() *metrics.Histogram { return metrics.NewHistogram(2, 1000) }

// Service is the concurrent decision engine behind cmd/routerd:
// requests are spread round-robin over sharded engine replicas, and
// Reload atomically replaces every replica with engines built from a
// new artifact while decisions keep flowing — callers mid-decision
// finish on the old epoch, the next decision uses the new tables, and
// the old engines' dense tables are invalidated once unreachable.
type Service struct {
	g      topology.Graph
	shards []*shard
	rr     atomic.Uint64

	// reloadMu serializes Reload, Install and UpdateFaults against each
	// other and guards faults, the cumulative fault state every engine
	// the service installs already knows; decisions only take shard
	// locks.
	reloadMu sync.Mutex
	faults   *fault.Set
	epoch    atomic.Uint64

	infoMu   sync.Mutex
	algo     string
	name     string
	checksum string

	decisions  atomic.Int64
	failed     atomic.Int64
	unroutable atomic.Int64
	reloads    atomic.Int64
}

// MetricsSnapshot is the JSON document served by routerd's /metrics.
type MetricsSnapshot struct {
	Algorithm  string  `json:"algorithm"`
	Table      string  `json:"table"`
	Checksum   string  `json:"checksum"`
	Epoch      uint64  `json:"epoch"`
	Shards     int     `json:"shards"`
	Decisions  int64   `json:"decisions"`
	Failed     int64   `json:"failed"`
	Unroutable int64   `json:"unroutable"`
	Reloads    int64   `json:"reloads"`
	LatencyP50 float64 `json:"latency_us_p50"`
	LatencyP95 float64 `json:"latency_us_p95"`
	LatencyP99 float64 `json:"latency_us_p99"`
}

// NewService builds a decision service over nshards engine replicas
// bound from the artifact.
func NewService(art *Artifact, g topology.Graph, nshards int) (*Service, error) {
	if nshards <= 0 {
		nshards = 1
	}
	s := &Service{g: g}
	engines, err := s.buildEngines(art, nshards)
	if err != nil {
		return nil, err
	}
	s.shards = make([]*shard, nshards)
	for i := range s.shards {
		s.shards[i] = &shard{eng: engines[i], epoch: art.Epoch, lat: newLatencyHistogram()}
	}
	s.epoch.Store(art.Epoch)
	s.noteArtifact(art)
	return s, nil
}

// buildEngines binds nshards independent engine replicas (each replica
// re-analyses the artifact program, so replicas share no state).
func (s *Service) buildEngines(art *Artifact, nshards int) ([]routing.Algorithm, error) {
	engines := make([]routing.Algorithm, nshards)
	for i := range engines {
		eng, err := NewEngine(art, s.g)
		if err != nil {
			return nil, err
		}
		engines[i] = eng
	}
	return engines, nil
}

func (s *Service) noteArtifact(art *Artifact) {
	sum, _ := art.Checksum()
	s.infoMu.Lock()
	s.algo = art.Algorithm
	s.name = art.Name
	s.checksum = sum
	s.infoMu.Unlock()
}

// Epoch returns the current table epoch.
func (s *Service) Epoch() uint64 { return s.epoch.Load() }

// Decide performs one routing decision, appending the admissible
// outputs to buf (pass buf[:0] of a reused slice for an allocation-free
// call). It returns the candidates, the deciding table epoch, and an
// error only for malformed requests — an empty candidate set with a
// nil error means the engine judged the message unroutable under the
// current fault state.
func (s *Service) Decide(req *DecisionRequest, buf []routing.Candidate) ([]routing.Candidate, uint64, error) {
	nodes := s.g.Nodes()
	if req.Node < 0 || req.Node >= nodes {
		s.failed.Add(1)
		return buf, 0, fmt.Errorf("node %d out of range [0,%d)", req.Node, nodes)
	}
	if req.Src < 0 || req.Src >= nodes || req.Dst < 0 || req.Dst >= nodes {
		s.failed.Add(1)
		return buf, 0, fmt.Errorf("src/dst (%d,%d) out of range [0,%d)", req.Src, req.Dst, nodes)
	}
	if req.InPort != routing.InjectionPort && (req.InPort < 0 || req.InPort >= s.g.Ports()) {
		s.failed.Add(1)
		return buf, 0, fmt.Errorf("in_port %d out of range", req.InPort)
	}
	length := req.Length
	if length <= 0 {
		length = 1
	}

	sh := s.shards[s.rr.Add(1)%uint64(len(s.shards))]
	start := time.Now()
	sh.mu.Lock()
	// The engine's own VC count: an engine that ignores vnet or in_vc
	// would otherwise answer on a channel the router does not have.
	if vcs := sh.eng.NumVCs(); req.VNet < 0 || req.VNet >= vcs || req.InVC < 0 || req.InVC >= vcs {
		sh.mu.Unlock()
		s.failed.Add(1)
		return buf, 0, fmt.Errorf("vnet %d / in_vc %d out of range [0,%d)", req.VNet, req.InVC, vcs)
	}
	sh.hdr = routing.Header{
		Src:         topology.NodeID(req.Src),
		Dst:         topology.NodeID(req.Dst),
		Length:      length,
		Misroutes:   req.Misroutes,
		Marked:      req.Marked,
		Phase:       req.Phase,
		DetourLevel: req.DetourLevel,
		VNet:        req.VNet,
	}
	out := sh.eng.RouteAppend(routing.Request{
		Node:   topology.NodeID(req.Node),
		InPort: req.InPort,
		InVC:   req.InVC,
		Hdr:    &sh.hdr,
	}, buf)
	epoch := sh.epoch
	sh.lat.Add(float64(time.Since(start)) / float64(time.Microsecond))
	sh.mu.Unlock()

	s.decisions.Add(1)
	if len(out) == len(buf) {
		s.unroutable.Add(1)
	}
	return out, epoch, nil
}

// Reload atomically swaps every shard to engines built from art. The
// new engines are fully constructed, and given the recorded fault
// state, before any shard lock is taken: the diagnosis fixpoint runs
// off to the side, so the per-shard critical section is a pointer
// exchange and no shard ever serves fresh tables that do not know the
// live faults. A decision in flight on a shard finishes on the old
// engine, the next one sees the new tables. The epoch moves to
// max(current+1, art.Epoch) and the old engines' dense tables are
// invalidated.
func (s *Service) Reload(art *Artifact) (uint64, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	engines, err := s.buildEngines(art, len(s.shards))
	if err != nil {
		return s.epoch.Load(), err
	}
	if s.faults != nil && !s.faults.Empty() {
		for _, eng := range engines {
			eng.UpdateFaults(s.faults)
		}
	}
	newEpoch := s.epoch.Load() + 1
	if art.Epoch > newEpoch {
		newEpoch = art.Epoch
	}
	s.flip(engines, newEpoch)
	s.reloads.Add(1)
	s.noteArtifact(art)
	return newEpoch, nil
}

// flip exchanges every shard's engine for engines[i] under the shard
// lock, retires the old engines' dense tables and publishes epoch. The
// caller holds reloadMu and has checked len(engines).
func (s *Service) flip(engines []routing.Algorithm, epoch uint64) {
	for i, sh := range s.shards {
		sh.mu.Lock()
		old := sh.eng
		sh.eng = engines[i]
		sh.epoch = epoch
		sh.mu.Unlock()
		if inv, ok := old.(tableInvalidator); ok {
			inv.InvalidateTables()
		}
	}
	s.epoch.Store(epoch)
}

// Install atomically flips every shard to prebuilt engines that
// already carry the post-fault state for f — the failover fast path
// behind routerd's /fault endpoint. Unlike Reload, nothing is
// compiled, deserialized or replayed here: the engines were
// constructed when the failover plane was built, so the per-shard
// critical section is a pointer exchange. f is recorded in the same
// critical section, so a Reload racing the flip either precedes it or
// builds engines that know f. len(engines) must equal Lanes(). The
// epoch advances by one and the old engines' dense tables are
// invalidated.
func (s *Service) Install(engines []routing.Algorithm, f *fault.Set) error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if len(engines) != len(s.shards) {
		return fmt.Errorf("reconfig: %d engines for %d shards", len(engines), len(s.shards))
	}
	s.faults = cloneFaults(f)
	s.flip(engines, s.epoch.Load()+1)
	return nil
}

// UpdateFaults records the cumulative fault set f and runs the
// live-recompute fallback on every shard engine: the diagnosis
// fixpoint for f, serialized per shard so decisions in flight finish
// first. This is the slow path the failover plane measures against for
// uncovered fault classes.
func (s *Service) UpdateFaults(f *fault.Set) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	s.faults = cloneFaults(f)
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.eng.UpdateFaults(f)
		sh.mu.Unlock()
	}
}

// Faults returns a copy of the recorded cumulative fault set (nil when
// none was ever applied).
func (s *Service) Faults() *fault.Set {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	return cloneFaults(s.faults)
}

// cloneFaults copies f so the holder's record survives the caller
// reusing and mutating its set; nil stays nil.
func cloneFaults(f *fault.Set) *fault.Set {
	if f == nil {
		return nil
	}
	return f.Clone()
}

// Lanes returns the number of engine replicas: an Install takes one
// engine per shard.
func (s *Service) Lanes() int { return len(s.shards) }

// Metrics returns a consistent-enough snapshot of the service
// counters (individual counters are exact; the set is not atomic).
func (s *Service) Metrics() MetricsSnapshot {
	s.infoMu.Lock()
	algo, name, sum := s.algo, s.name, s.checksum
	s.infoMu.Unlock()
	lat := newLatencyHistogram()
	for _, sh := range s.shards {
		sh.mu.Lock()
		_ = lat.Merge(sh.lat) // same shape by construction
		sh.mu.Unlock()
	}
	return MetricsSnapshot{
		Algorithm:  algo,
		Table:      name,
		Checksum:   sum,
		Epoch:      s.epoch.Load(),
		Shards:     len(s.shards),
		Decisions:  s.decisions.Load(),
		Failed:     s.failed.Load(),
		Unroutable: s.unroutable.Load(),
		Reloads:    s.reloads.Load(),
		LatencyP50: lat.Percentile(0.50),
		LatencyP95: lat.Percentile(0.95),
		LatencyP99: lat.Percentile(0.99),
	}
}
