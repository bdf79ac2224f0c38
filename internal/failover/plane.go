package failover

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Host is an engine holder the plane flips into: the simulator's
// reconfig.Swapper (one lane) or the sharded reconfig.Service behind a
// fleet Registry (one lane per shard). A host remembers the cumulative
// fault state, and every engine it installs already knows it. Install
// takes one prebuilt engine per lane together with the observed fault
// set; UpdateFaults is the measured fall-back — the live diagnosis
// fixpoint on the engines already serving.
type Host interface {
	Lanes() int
	Install(engines []routing.Algorithm, f *fault.Set) error
	UpdateFaults(f *fault.Set)
}

var (
	_ Host = (*reconfig.Swapper)(nil)
	_ Host = (*reconfig.Service)(nil)
)

// backup is one precompiled class: its engines (one per lane) carry
// the class's post-fault distributed state, applied eagerly at plane
// construction. Engines are stateful (per-decision scratch plus the
// fault Information Units), so an instance can be installed only once;
// used marks consumption — a second occurrence of the same class (the
// fault repaired and re-injected) takes the recompute path rather than
// re-installing an engine whose tables were invalidated on retirement.
type backup struct {
	class   Class
	engines []routing.Algorithm
	used    bool
}

// Plane is the runtime failover decision plane: fault classes mapped
// to engines precompiled at construction time. OnFault resolves an
// observed cumulative fault state by canonical key: a covered, unused
// class is installed with an atomic engine flip (no diagnosis fixpoint
// at fault time); anything else falls back to the live recompute the
// plane measures against. Both paths are timed into histograms so the
// flip-vs-recompute gap is observable, not assumed.
//
// Concurrency: OnFault serializes on the plane mutex. The simulator
// calls it from the network goroutine; routerd through
// fleet.Registry.UpdateFaults, under the registry lock that also
// guards the plane's replacement when the serving version changes.
type Plane struct {
	host Host

	mu      sync.Mutex
	classes map[string]*backup

	flips      atomic.Int64
	recomputes atomic.Int64

	// Latencies in microseconds: flips sit in the low-µs range (0.5µs
	// bins to 1ms), recomputes in the tens-of-µs-to-ms range (5µs bins
	// to 10ms).
	histMu     sync.Mutex
	flipHist   *metrics.Histogram
	recompHist *metrics.Histogram
}

// PlaneMetrics is the plane's observable state, embedded into
// routerd's /metrics document.
type PlaneMetrics struct {
	CoveredClasses  int     `json:"covered_classes"`
	ConsumedClasses int     `json:"consumed_classes"`
	Flips           int64   `json:"flips"`
	Recomputes      int64   `json:"recomputes"`
	FlipP50         float64 `json:"flip_us_p50"`
	FlipP99         float64 `json:"flip_us_p99"`
	FlipP999        float64 `json:"flip_us_p999"`
	RecomputeP50    float64 `json:"recompute_us_p50"`
	RecomputeP99    float64 `json:"recompute_us_p99"`
	RecomputeP999   float64 `json:"recompute_us_p999"`
}

// NewPlane precompiles a backup for each class against art, the
// artifact host serves on topology g: one EngineBuilder per host lane
// amortises program analysis and table deserialization across all
// classes, each engine gets its class's fault set applied (the
// diagnosis fixpoint runs HERE, at build time), and the finished
// engines wait in a map keyed by canonical fault key. Every backup
// shares the served tables — they are fault-independent; fault state
// enters each decision through the Information Units — so a plane is
// only valid for the artifact it was built from. Classes with the same
// key collapse to the first (a length-1 chain is the same fault set as
// the single west-border link).
func NewPlane(art *reconfig.Artifact, g topology.Graph, classes []Class, host Host) (*Plane, error) {
	builders := make([]*reconfig.EngineBuilder, host.Lanes())
	for lane := range builders {
		eb, err := reconfig.NewEngineBuilder(art, g)
		if err != nil {
			return nil, err
		}
		builders[lane] = eb
	}
	p := &Plane{
		host:       host,
		classes:    make(map[string]*backup),
		flipHist:   metrics.NewHistogram(0.5, 2000),
		recompHist: metrics.NewHistogram(5, 2000),
	}
	for _, class := range classes {
		set := class.Set()
		key := KeyOf(set)
		if _, dup := p.classes[key]; dup {
			continue
		}
		engines := make([]routing.Algorithm, len(builders))
		for lane, eb := range builders {
			eng, err := eb.Build()
			if err != nil {
				return nil, fmt.Errorf("failover: class %s: %w", class.String(), err)
			}
			eng.UpdateFaults(set)
			engines[lane] = eng
		}
		p.classes[key] = &backup{class: class, engines: engines}
	}
	return p, nil
}

// CoveredClasses returns the number of precompiled classes.
func (p *Plane) CoveredClasses() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.classes)
}

// Covered reports whether the cumulative fault set f has an unused
// precompiled backup.
func (p *Plane) Covered(f *fault.Set) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	bk := p.classes[KeyOf(f)]
	return bk != nil && !bk.used
}

// Classes returns the precompiled classes in unspecified order.
func (p *Plane) Classes() []Class {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Class, 0, len(p.classes))
	for _, bk := range p.classes {
		out = append(out, bk.class)
	}
	return out
}

// OnFault resolves the observed cumulative fault state f: a covered,
// unused class flips its precompiled engines in (return true); every
// other non-empty state runs the measured live recompute (return
// false). An empty set is forwarded to the recompute path but not
// counted — it is fault *clearing*, which no backup anticipates.
// This is the network.FaultHandler hook.
func (p *Plane) OnFault(f *fault.Set) bool {
	if f == nil || f.Empty() {
		p.host.UpdateFaults(f)
		return false
	}
	p.mu.Lock()
	bk := p.classes[KeyOf(f)]
	if bk != nil && !bk.used {
		bk.used = true
	} else {
		bk = nil
	}
	p.mu.Unlock()

	if bk != nil {
		start := time.Now()
		err := p.host.Install(bk.engines, f)
		elapsed := time.Since(start)
		if err == nil {
			p.flips.Add(1)
			p.histMu.Lock()
			p.flipHist.Add(float64(elapsed) / float64(time.Microsecond))
			p.histMu.Unlock()
			return true
		}
		// The host refused the flip (regime gate); fall through to the
		// recompute path so the network still converges on f.
	}
	start := time.Now()
	p.host.UpdateFaults(f)
	elapsed := time.Since(start)
	p.recomputes.Add(1)
	p.histMu.Lock()
	p.recompHist.Add(float64(elapsed) / float64(time.Microsecond))
	p.histMu.Unlock()
	return false
}

// Flips returns the number of completed precompiled flips.
func (p *Plane) Flips() int64 { return p.flips.Load() }

// Recomputes returns the number of live-recompute fallbacks.
func (p *Plane) Recomputes() int64 { return p.recomputes.Load() }

// Metrics snapshots the plane counters and latency percentiles.
func (p *Plane) Metrics() PlaneMetrics {
	p.mu.Lock()
	covered := len(p.classes)
	consumed := 0
	for _, bk := range p.classes {
		if bk.used {
			consumed++
		}
	}
	p.mu.Unlock()
	p.histMu.Lock()
	defer p.histMu.Unlock()
	return PlaneMetrics{
		CoveredClasses:  covered,
		ConsumedClasses: consumed,
		Flips:           p.flips.Load(),
		Recomputes:      p.recomputes.Load(),
		FlipP50:         p.flipHist.Percentile(0.50),
		FlipP99:         p.flipHist.Percentile(0.99),
		FlipP999:        p.flipHist.Percentile(0.999),
		RecomputeP50:    p.recompHist.Percentile(0.50),
		RecomputeP99:    p.recompHist.Percentile(0.99),
		RecomputeP999:   p.recompHist.Percentile(0.999),
	}
}
