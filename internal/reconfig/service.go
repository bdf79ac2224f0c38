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

	// reloadMu serializes Reload and UpdateFaults against each other
	// and guards faults, the cumulative fault state every engine the
	// service serves already knows; decisions only take shard locks.
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
// current fault state. It is DecideBatch on one request.
func (s *Service) Decide(req *DecisionRequest, buf []routing.Candidate) ([]routing.Candidate, uint64, error) {
	var (
		epoch uint64
		err   error
	)
	one := [1]DecisionRequest{*req}
	out := s.DecideBatch(one[:], buf, func(_ int, _ []routing.Candidate, e uint64, er error) {
		epoch, err = e, er
	})
	return out, epoch, err
}

// Emit receives the answer to reqs[i] of a DecideBatch call: the
// candidates (empty with a nil err is an unroutable verdict), the
// deciding epoch, and the request's error. cands is scratch, valid
// only during the call, and Emit runs under a shard lock, so it should
// only encode the answer.
type Emit func(i int, cands []routing.Candidate, epoch uint64, err error)

// DecideBatch decides reqs in order on one shard: one round-robin
// pick, one lock, one clock pair, and one add per counter for the
// whole call, so the whole batch is answered under one engine state —
// a Reload or UpdateFaults lands before it or after it, never
// between two of its decisions. Each request is validated as Decide
// always has (same error texts), and its answer goes to emit at once.
// The candidates are appended to buf, which is reused for every
// request; the return value is buf as extended by the last answer
// (with whatever capacity it grew), so a one-request call returns
// exactly Decide's slice. The latency histogram records the call's
// mean per decided request, weighted by their number.
func (s *Service) DecideBatch(reqs []DecisionRequest, buf []routing.Candidate, emit Emit) []routing.Candidate {
	if len(reqs) == 0 {
		return buf
	}
	base := len(buf)
	out := buf
	var decided, unroutable, failed int64
	sh := s.shards[s.rr.Add(1)%uint64(len(s.shards))]
	start := time.Now()
	sh.mu.Lock()
	vcs := sh.eng.NumVCs()
	for i := range reqs {
		req := &reqs[i]
		if err := s.validate(req, vcs); err != nil {
			failed++
			out = buf
			emit(i, buf[base:], 0, err)
			continue
		}
		length := req.Length
		if length <= 0 {
			length = 1
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
		out = sh.eng.RouteAppend(routing.Request{
			Node:   topology.NodeID(req.Node),
			InPort: req.InPort,
			InVC:   req.InVC,
			Hdr:    &sh.hdr,
		}, buf)
		buf = out[:base] // keep what the engine grew
		decided++
		if len(out) == base {
			unroutable++
		}
		emit(i, out[base:], sh.epoch, nil)
	}
	if decided > 0 {
		sh.lat.AddN(float64(time.Since(start))/float64(time.Microsecond)/float64(decided), decided)
	}
	sh.mu.Unlock()

	if decided > 0 {
		s.decisions.Add(decided)
	}
	if unroutable > 0 {
		s.unroutable.Add(unroutable)
	}
	if failed > 0 {
		s.failed.Add(failed)
	}
	return out
}

// validate refuses a request whose node, endpoints, arrival port or
// channels the serving topology and engine (vcs virtual channels) do
// not have.
func (s *Service) validate(req *DecisionRequest, vcs int) error {
	nodes := s.g.Nodes()
	switch {
	case req.Node < 0 || req.Node >= nodes:
		return fmt.Errorf("node %d out of range [0,%d)", req.Node, nodes)
	case req.Src < 0 || req.Src >= nodes || req.Dst < 0 || req.Dst >= nodes:
		return fmt.Errorf("src/dst (%d,%d) out of range [0,%d)", req.Src, req.Dst, nodes)
	case req.InPort != routing.InjectionPort && (req.InPort < 0 || req.InPort >= s.g.Ports()):
		return fmt.Errorf("in_port %d out of range", req.InPort)
	case req.VNet < 0 || req.VNet >= vcs || req.InVC < 0 || req.InVC >= vcs:
		// The engine's own VC count: an engine that ignores vnet or
		// in_vc would otherwise answer on a channel the router does
		// not have.
		return fmt.Errorf("vnet %d / in_vc %d out of range [0,%d)", req.VNet, req.InVC, vcs)
	}
	return nil
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
	for i, sh := range s.shards {
		sh.mu.Lock()
		old := sh.eng
		sh.eng = engines[i]
		sh.epoch = newEpoch
		sh.mu.Unlock()
		if inv, ok := old.(tableInvalidator); ok {
			inv.InvalidateTables()
		}
	}
	s.epoch.Store(newEpoch)
	s.reloads.Add(1)
	s.noteArtifact(art)
	return newEpoch, nil
}

// UpdateFaults records a copy of the cumulative fault set f and runs
// the diagnosis fixpoint for it on every shard engine, one shard at a
// time under its lock, so decisions in flight on a shard finish first
// and a batch never sees two fault states. The engines get the
// recorded copy, never f itself: an engine keeps the set it is given,
// and the caller may go on changing f. This is the one way a fault
// reaches the service's engines.
func (s *Service) UpdateFaults(f *fault.Set) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	s.faults = cloneFaults(f)
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.eng.UpdateFaults(s.faults)
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

// Lanes returns the number of engine replicas (shards) the service
// decides on.
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
