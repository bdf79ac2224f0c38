package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Version is one pushed artifact in the registry.
type Version struct {
	ID        int    `json:"id"`
	Name      string `json:"name"`
	Algorithm string `json:"algorithm"`
	Epoch     uint64 `json:"epoch"`
	Checksum  string `json:"checksum"`

	art *reconfig.Artifact
}

// canaryFractionDenom is the resolution of the canary sampling
// fraction (0.01% steps).
const canaryFractionDenom = 10000

// Divergence is one recorded canary disagreement: the request and the
// two answers.
type Divergence struct {
	Request   reconfig.DecisionRequest `json:"request"`
	Incumbent []routing.Candidate      `json:"incumbent"`
	Candidate []routing.Candidate      `json:"candidate"`
}

// canaryRun is one live canary: a full engine-replica service built
// from the candidate version (with the live fault state replayed onto
// it), plus the diff counters. It is swapped in and out through an
// atomic pointer so the decision hot path never takes the registry
// lock.
type canaryRun struct {
	version  int
	fraction float64
	numer    uint64 // sampled decisions per canaryFractionDenom
	svc      *reconfig.Service

	seq      atomic.Uint64
	sampled  atomic.Int64
	diverged atomic.Int64

	exMu     sync.Mutex
	examples []Divergence
}

// take reports whether this decision is canaried, spreading sampled
// decisions evenly over the sequence (Bresenham on the fraction) so a
// 10% canary diffs every 10th decision rather than the first 10% of a
// burst.
func (c *canaryRun) take() bool {
	s := c.seq.Add(1)
	return (s*c.numer)/canaryFractionDenom != ((s-1)*c.numer)/canaryFractionDenom
}

// CanaryStatus is the observable state of a live canary.
type CanaryStatus struct {
	Version  int          `json:"version"`
	Fraction float64      `json:"fraction"`
	Sampled  int64        `json:"sampled"`
	Diverged int64        `json:"diverged"`
	Examples []Divergence `json:"examples,omitempty"`
}

// RegistryStatus is the GET /registry document.
type RegistryStatus struct {
	Serving  int           `json:"serving"`
	Previous int           `json:"previous,omitempty"`
	Versions []Version     `json:"versions"`
	Canary   *CanaryStatus `json:"canary,omitempty"`
}

// Registry is the versioned artifact plane of one fleet replica. It
// owns the decision path end to end: requests flow canary-sampling →
// sharded Service, one batch under one shard lock, and every state
// mutation (reload, promote, rollback, fault event) funnels through it
// so the live fault state stays coherent with the engines. Nothing sits
// in front of the engines' tables: the rule table is already the memo.
// A fault event is a live recompute on the serving engines and on the
// canary's, and every activation builds engines that already know the
// recorded fault state.
//
// Rollout protocol: Push registers a candidate version (validated
// against the serving topology but not serving), Canary routes a
// configurable fraction of live decisions through engines built from
// the candidate and diffs them against the incumbent (the incumbent's
// answer is always the one served — a diverging canary can be
// observed, never felt), Promote atomically reloads the incumbent
// from the candidate with the live fault state pre-applied, and
// Rollback restores the previously serving version in one call.
type Registry struct {
	g   topology.Graph
	svc *reconfig.Service

	mu       sync.Mutex
	versions []*Version
	serving  int
	previous int

	canary atomic.Pointer[canaryRun]
}

// RegistryOptions tune NewRegistry.
type RegistryOptions struct {
	// Shards is the engine-replica count of the serving service (and of
	// canary services). Defaults to 1.
	Shards int
	// CacheEntries is accepted and ignored; see compat.go.
	CacheEntries int
}

// NewRegistry builds a registry serving art on topology g as version 1.
func NewRegistry(art *reconfig.Artifact, g topology.Graph, opts RegistryOptions) (*Registry, error) {
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	svc, err := reconfig.NewService(art, g, opts.Shards)
	if err != nil {
		return nil, err
	}
	r := &Registry{g: g, svc: svc}
	v, err := r.push(art)
	if err != nil {
		return nil, err
	}
	r.serving = v.ID
	return r, nil
}

// Service exposes the underlying decision service (metrics, epoch).
func (r *Registry) Service() *reconfig.Service { return r.svc }

// Epoch returns the serving table epoch.
func (r *Registry) Epoch() uint64 { return r.svc.Epoch() }

// Decide performs one routing decision through the fleet decision
// path: DecideBatch on one request, appending to buf as
// reconfig.Service.Decide does.
func (r *Registry) Decide(req *reconfig.DecisionRequest, buf []routing.Candidate) ([]routing.Candidate, uint64, error) {
	var (
		epoch uint64
		err   error
	)
	one := [1]reconfig.DecisionRequest{*req}
	out := r.DecideBatch(one[:], buf, func(_ int, _ []routing.Candidate, e uint64, er error) {
		epoch, err = e, er
	})
	return out, epoch, err
}

// DecideBatch answers reqs through the serving service's batch path
// (one shard lock, one engine state for the whole batch; see
// reconfig.Service.DecideBatch), handing each answer to emit. With a
// canary running, each answer draws its sample in request order,
// exactly as single decisions would, and the sampled requests are
// replayed on the candidate engines after the incumbent's batch,
// outside its shard lock. The incumbent's answer is always the one
// served.
func (r *Registry) DecideBatch(reqs []reconfig.DecisionRequest, buf []routing.Candidate, emit reconfig.Emit) []routing.Candidate {
	c := r.canary.Load()
	if c == nil {
		return r.svc.DecideBatch(reqs, buf, emit)
	}
	var samples []Divergence
	buf = r.svc.DecideBatch(reqs, buf, func(i int, cands []routing.Candidate, epoch uint64, err error) {
		emit(i, cands, epoch, err)
		if c.take() && err == nil {
			samples = append(samples, Divergence{Request: reqs[i], Incumbent: append([]routing.Candidate(nil), cands...)})
		}
	})
	var scratch []routing.Candidate
	for i := range samples {
		scratch = c.diff(&samples[i], scratch[:0])
	}
	return buf
}

// diff decides d.Request on the candidate engines, appending to buf
// (returned for reuse), and records d as a divergence when the answer
// differs from d.Incumbent.
func (c *canaryRun) diff(d *Divergence, buf []routing.Candidate) []routing.Candidate {
	cand, _, err := c.svc.Decide(&d.Request, buf)
	c.sampled.Add(1)
	if err == nil && candidatesEqual(d.Incumbent, cand) {
		return cand
	}
	c.diverged.Add(1)
	c.exMu.Lock()
	if len(c.examples) < 8 {
		d.Candidate = append([]routing.Candidate(nil), cand...)
		c.examples = append(c.examples, *d)
	}
	c.exMu.Unlock()
	return cand
}

// candidatesEqual compares two decisions exactly: same admissible
// outputs in the same preference order. Decision functions are
// deterministic, so a same-algorithm candidate must match bit for bit.
func candidatesEqual(a, b []routing.Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Push registers an artifact as a new version after validating that it
// binds against the serving topology. The version is stored, not
// served; Canary or Promote (or Reload, which is push-and-promote)
// activate it.
func (r *Registry) Push(art *reconfig.Artifact) (*Version, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.push(art)
}

func (r *Registry) push(art *reconfig.Artifact) (*Version, error) {
	if _, err := reconfig.NewEngine(art, r.g); err != nil {
		return nil, err
	}
	sum, err := art.Checksum()
	if err != nil {
		return nil, err
	}
	v := &Version{
		ID:        len(r.versions) + 1,
		Name:      art.Name,
		Algorithm: art.Algorithm,
		Epoch:     art.Epoch,
		Checksum:  sum,
		art:       art,
	}
	r.versions = append(r.versions, v)
	return v, nil
}

// version returns the stored version by id (registry lock held).
func (r *Registry) version(id int) (*Version, error) {
	if id < 1 || id > len(r.versions) {
		return nil, fmt.Errorf("unknown version %d", id)
	}
	return r.versions[id-1], nil
}

// VersionIDs returns the ids of all pushed versions (the valid-choice
// list for canary/promote errors).
func (r *Registry) VersionIDs() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]int, len(r.versions))
	for i := range r.versions {
		ids[i] = i + 1
	}
	return ids
}

// StartCanary builds candidate engines from version id (live fault
// state replayed onto them) and starts diffing fraction of decisions
// against the incumbent. A running canary is replaced.
func (r *Registry) StartCanary(id int, fraction float64) error {
	if fraction <= 0 || fraction > 1 {
		return fmt.Errorf("canary fraction %g out of (0,1]", fraction)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, err := r.version(id)
	if err != nil {
		return err
	}
	svc, err := reconfig.NewService(v.art, r.g, r.svc.Lanes())
	if err != nil {
		return err
	}
	if f := r.svc.Faults(); f != nil && !f.Empty() {
		svc.UpdateFaults(f)
	}
	numer := uint64(fraction*canaryFractionDenom + 0.5)
	if numer == 0 {
		numer = 1
	}
	r.canary.Store(&canaryRun{version: id, fraction: fraction, numer: numer, svc: svc})
	return nil
}

// StopCanary abandons the live canary, reporting whether one was
// running.
func (r *Registry) StopCanary() bool {
	return r.canary.Swap(nil) != nil
}

// Canary returns the live canary status (nil when none).
func (r *Registry) Canary() *CanaryStatus {
	c := r.canary.Load()
	if c == nil {
		return nil
	}
	c.exMu.Lock()
	ex := append([]Divergence(nil), c.examples...)
	c.exMu.Unlock()
	return &CanaryStatus{
		Version:  c.version,
		Fraction: c.fraction,
		Sampled:  c.sampled.Load(),
		Diverged: c.diverged.Load(),
		Examples: ex,
	}
}

// Promote makes the canaried version the incumbent: the serving
// service atomically reloads from the candidate artifact with the
// live fault state pre-applied, the previously serving version is
// remembered for Rollback, and the canary ends. Promote does not gate
// on a zero divergence count — that judgement belongs to the operator
// reading the canary diff — but the diff is there to be read first.
func (r *Registry) Promote() (uint64, error) {
	c := r.canary.Load()
	if c == nil {
		return r.svc.Epoch(), fmt.Errorf("no canary to promote")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, err := r.version(c.version)
	if err != nil {
		return r.svc.Epoch(), err
	}
	epoch, err := r.activate(v)
	if err != nil {
		return epoch, err
	}
	r.canary.Store(nil)
	return epoch, nil
}

// Rollback restores the previously serving version in one call (the
// operator's big red button: no artifact re-upload, no canary). The
// rolled-back-from version becomes the new "previous", so a second
// Rollback toggles back.
func (r *Registry) Rollback() (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.previous == 0 {
		return r.svc.Epoch(), fmt.Errorf("no previous version to roll back to")
	}
	v, err := r.version(r.previous)
	if err != nil {
		return r.svc.Epoch(), err
	}
	epoch, err := r.activate(v)
	if err != nil {
		return epoch, err
	}
	r.canary.Store(nil)
	return epoch, nil
}

// Reload is push-and-promote in one step — the semantics of routerd's
// POST /reload, now registry-aware so a plain reload is still
// rollback-able.
func (r *Registry) Reload(art *reconfig.Artifact) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, err := r.push(art)
	if err != nil {
		return r.svc.Epoch(), err
	}
	return r.activate(v)
}

// activate makes v the serving version (registry lock held): the
// service reloads from v's artifact, its engines knowing the live fault
// state before they serve.
func (r *Registry) activate(v *Version) (uint64, error) {
	epoch, err := r.svc.Reload(v.art)
	if err != nil {
		return epoch, err
	}
	if r.serving != v.ID {
		r.previous = r.serving
		r.serving = v.ID
	}
	return epoch, nil
}

// UpdateFaults applies a cumulative fault state to the incumbent and
// to any canary candidate: the live recompute on their engines. The
// service records the state, so every later activation serves engines
// that know it. The registry lock is held throughout, so an activation
// or a new canary lands wholly before or after the event.
func (r *Registry) UpdateFaults(f *fault.Set) {
	if f == nil {
		f = fault.NewSet()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.svc.UpdateFaults(f)
	if c := r.canary.Load(); c != nil {
		c.svc.UpdateFaults(f)
	}
}

// Status snapshots the registry for GET /registry.
func (r *Registry) Status() RegistryStatus {
	r.mu.Lock()
	vs := make([]Version, len(r.versions))
	for i, v := range r.versions {
		vs[i] = *v
	}
	st := RegistryStatus{Serving: r.serving, Previous: r.previous, Versions: vs}
	r.mu.Unlock()
	st.Canary = r.Canary()
	return st
}

// Serving returns the serving version id.
func (r *Registry) Serving() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.serving
}
