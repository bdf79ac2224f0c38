package reconfig

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/routing"
)

// ErrRegimeMismatch is wrapped by Swap when the incoming engine's
// deadlock regime differs from the current one and force is off.
var ErrRegimeMismatch = fmt.Errorf("deadlock regimes incompatible")

// epochEngine is one table generation: the engine, its epoch number
// and the count of in-flight worms admitted under it.
type epochEngine struct {
	epoch  uint64
	alg    routing.Algorithm
	pinned atomic.Int64
}

// tableInvalidator is implemented by engines whose dense tables can be
// retired explicitly (the rule adapters); retiring an epoch calls it
// so stale fast-path state fails loudly instead of routing silently.
type tableInvalidator interface{ InvalidateTables() }

// Swapper is the RCU-style hot-swap shell around a routing engine: it
// is itself a routing.Algorithm, so a network built on a Swapper can
// replace its decision tables mid-run.
//
// Epoch protocol: every message materialised into the network is
// pinned to the current epoch (AdmitEpoch, stored in its header);
// every routing call dispatches on the header's epoch, so an in-flight
// worm keeps deciding on the tables that admitted it while new head
// flits use the new generation. When the last worm of a non-current
// epoch leaves the network (ReleaseEpoch from delivery, drop or fault
// kill), the epoch is retired: the engine's dense tables are
// invalidated and the OnRetire hooks fire — the quiescence point after
// which no state of the old generation is reachable.
//
// Safety gate: Swap refuses an engine whose deadlock regime differs
// from the current one (worms routed under incompatible VC disciplines
// could close a wait cycle together); force overrides the gate for
// callers that drained the network first (network.Reconfigure does
// exactly that).
//
// RouteAppend/Steps/UpdateFaults are as concurrency-safe
// as the wrapped engines (the simulator is single-goroutine per
// network); AdmitEpoch/ReleaseEpoch/Swap use atomics plus a mutex so
// observers on other goroutines see consistent state.
type Swapper struct {
	mu   sync.Mutex
	cur  atomic.Pointer[epochEngine]
	live map[uint64]*epochEngine // all un-retired epochs, including current

	loads  routing.LoadView
	faults *fault.Set

	swaps    atomic.Int64
	retired  atomic.Int64
	onSwap   []func(oldEpoch, newEpoch uint64)
	onRetire []func(epoch uint64)
}

// NewSwapper wraps the initial engine at epoch 1 (epoch 0 is the
// "no epoch source" sentinel in message headers).
func NewSwapper(initial routing.Algorithm) *Swapper {
	s := &Swapper{live: make(map[uint64]*epochEngine)}
	e := &epochEngine{epoch: 1, alg: initial}
	s.live[e.epoch] = e
	s.cur.Store(e)
	return s
}

// Current returns the engine of the current epoch.
func (s *Swapper) Current() routing.Algorithm { return s.cur.Load().alg }

// CurrentEpoch returns the current table epoch.
func (s *Swapper) CurrentEpoch() uint64 { return s.cur.Load().epoch }

// Swaps returns the number of completed swaps.
func (s *Swapper) Swaps() int64 { return s.swaps.Load() }

// Retired returns the number of retired epochs.
func (s *Swapper) Retired() int64 { return s.retired.Load() }

// LiveEpochs returns the number of un-retired engine generations (1
// when quiesced).
func (s *Swapper) LiveEpochs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.live)
}

// Quiesced reports whether only the current epoch is live.
func (s *Swapper) Quiesced() bool { return s.LiveEpochs() == 1 }

// OnSwap registers a hook fired after every completed swap.
func (s *Swapper) OnSwap(f func(oldEpoch, newEpoch uint64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onSwap = append(s.onSwap, f)
}

// OnEpochRetired registers a hook fired when an epoch quiesces.
func (s *Swapper) OnEpochRetired(f func(epoch uint64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onRetire = append(s.onRetire, f)
}

// Swap installs next as the current engine and returns the epoch
// transition. The previous engine keeps serving its pinned worms until
// they leave the network; if none are pinned it retires immediately.
// The incoming engine receives the last known fault state (the
// Information Units are shared router state, not table state) and the
// attached load view before it becomes visible.
func (s *Swapper) Swap(next routing.Algorithm, force bool) (oldEpoch, newEpoch uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.cur.Load()
	if !force {
		if or, nr := routing.RegimeOf(cur.alg), routing.RegimeOf(next); or != nr {
			return cur.epoch, cur.epoch, fmt.Errorf(
				"reconfig: %w: %s runs %q, %s runs %q (drain the network and force to swap anyway)",
				ErrRegimeMismatch, cur.alg.Name(), or, next.Name(), nr)
		}
	}
	if s.faults != nil {
		next.UpdateFaults(s.faults)
	}
	if s.loads != nil {
		next.AttachLoads(s.loads)
	}
	ne := &epochEngine{epoch: cur.epoch + 1, alg: next}
	s.live[ne.epoch] = ne
	s.cur.Store(ne)
	s.swaps.Add(1)
	for _, f := range s.onSwap {
		f(cur.epoch, ne.epoch)
	}
	if cur.pinned.Load() == 0 {
		s.retireLocked(cur)
	}
	return cur.epoch, ne.epoch, nil
}

// retireLocked removes a quiesced epoch; s.mu must be held.
func (s *Swapper) retireLocked(e *epochEngine) {
	delete(s.live, e.epoch)
	s.retired.Add(1)
	if inv, ok := e.alg.(tableInvalidator); ok {
		inv.InvalidateTables()
	}
	for _, f := range s.onRetire {
		f(e.epoch)
	}
}

// AdmitEpoch pins one message to the current epoch and returns it.
// The network calls this when a message materialises.
func (s *Swapper) AdmitEpoch() uint64 {
	e := s.cur.Load()
	e.pinned.Add(1)
	return e.epoch
}

// ReleaseEpoch unpins one message from its admission epoch (delivery,
// drop, or fault kill). When a non-current epoch's pin count reaches
// zero its engine is retired.
func (s *Swapper) ReleaseEpoch(epoch uint64) {
	if cur := s.cur.Load(); cur.epoch == epoch {
		cur.pinned.Add(-1)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.live[epoch]
	if e == nil {
		return // unknown or already retired: tolerate
	}
	if e.pinned.Add(-1) == 0 && e != s.cur.Load() {
		s.retireLocked(e)
	}
}

// engineFor resolves the engine a message routes on: its admission
// epoch's engine while that epoch is live, the current engine
// otherwise (epoch 0 marks messages admitted before the swapper was
// attached).
func (s *Swapper) engineFor(epoch uint64) routing.Algorithm {
	e := s.cur.Load()
	if epoch == e.epoch || epoch == 0 {
		return e.alg
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.live[epoch]; old != nil {
		return old.alg
	}
	return e.alg
}

// --- routing.Algorithm, dispatching on the message's pinned epoch ---
//
// The Swapper implements every method itself: a method added to the
// contract is a compile error here until it is forwarded.

func (s *Swapper) Name() string { return s.Current().Name() }
func (s *Swapper) NumVCs() int  { return s.Current().NumVCs() }

// DeadlockRegime forwards the current engine's regime tag.
func (s *Swapper) DeadlockRegime() string { return s.Current().DeadlockRegime() }

// AllocNeedsCredit forwards the current engine's credit-gated
// allocation requirement. VA gating is a router-wide property, so —
// like NumVCs — it follows the current engine rather than a message's
// pinned epoch; gating is conservative for the engines that don't need
// it, so a mid-swap mix is safe.
func (s *Swapper) AllocNeedsCredit() bool { return s.Current().AllocNeedsCredit() }

// FlushOnFault forwards the reconfiguration-flush question to the
// engine the message routes on: whether its held resources are
// orientation-ordered is that engine's call.
func (s *Swapper) FlushOnFault(h *routing.Header) bool {
	return s.engineFor(h.Epoch).FlushOnFault(h)
}

func (s *Swapper) RouteAppend(req routing.Request, buf []routing.Candidate) []routing.Candidate {
	return s.engineFor(req.Hdr.Epoch).RouteAppend(req, buf)
}

func (s *Swapper) Steps(req routing.Request) int {
	return s.engineFor(req.Hdr.Epoch).Steps(req)
}

// UnreachableVerdict forwards the verdict question to the engine the
// message routes on.
func (s *Swapper) UnreachableVerdict(req routing.Request) bool {
	return s.engineFor(req.Hdr.Epoch).UnreachableVerdict(req)
}

// UpdateFaults forwards the diagnosis to every live engine generation:
// the fault state is shared router knowledge — old-epoch worms must
// route around new faults too — and is replayed onto engines swapped
// in later.
func (s *Swapper) UpdateFaults(f *fault.Set) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = f
	for _, e := range s.live {
		e.alg.UpdateFaults(f)
	}
}

// AttachLoads forwards the load view to every live engine and replays
// it onto engines swapped in later.
func (s *Swapper) AttachLoads(v routing.LoadView) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loads = v
	for _, e := range s.live {
		e.alg.AttachLoads(v)
	}
}

// Blocks exposes the current engine's fault-block view (the traffic
// generator excludes disabled nodes through it).
func (s *Swapper) Blocks() *fault.BlockInfo { return s.Current().Blocks() }

var _ routing.Algorithm = (*Swapper)(nil)
