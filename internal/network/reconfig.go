package network

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/trace"
)

// The network cooperates with a hot-swappable decision engine
// (reconfig.Swapper) purely structurally — the interfaces below keep
// this package free of a reconfig import (reconfig already imports the
// packages network builds on).

// epochSource hands out table epochs: messages pin the current epoch
// when they materialise and release it when they leave the network
// (delivery, drop or fault kill).
type epochSource interface {
	AdmitEpoch() uint64
	ReleaseEpoch(epoch uint64)
}

// hotSwapper is a decision engine that can replace its tables while
// worms are in flight.
type hotSwapper interface {
	Swap(next routing.Algorithm, force bool) (oldEpoch, newEpoch uint64, err error)
	OnEpochRetired(func(epoch uint64))
}

// FaultHandler is the failover decision plane's hook into ApplyFaults
// (structurally typed for the same reason as the interfaces above:
// internal/failover imports reconfig, which sits above this package).
// OnFault receives the new cumulative fault set after the network's
// worm surgery and reports whether it installed a precompiled backup
// engine (true = atomic flip, false = it ran the live recompute).
type FaultHandler interface {
	OnFault(f *fault.Set) bool
}

// attachEngine wires an algorithm into the network: the network as
// its load view (a hot swapper replays it onto engines installed
// later), and for an epoch-aware one, epoch pin/release on the message
// lifecycle and epoch-retirement trace events.
func (n *Network) attachEngine(alg routing.Algorithm) {
	alg.AttachLoads(n)
	n.epochs, _ = alg.(epochSource)
	hs, ok := alg.(hotSwapper)
	if !ok {
		return
	}
	hs.OnEpochRetired(func(epoch uint64) {
		if n.rec != nil {
			n.rec.Record(trace.Event{Cycle: n.now, Kind: trace.KEpochRetired,
				Node: -1, Msg: -1, Port: -1, VC: -1, Arg: int32(epoch)})
		}
	})
}

// Reconfigure replaces the network's decision engine while the
// simulation runs. The running engine must be a hot swapper
// (reconfig.Swapper); any other engine is refused. The swap is atomic:
// in-flight worms keep routing under the epoch that admitted them, new
// head flits decide on the new tables. An incompatible deadlock regime
// is refused unless force is set, in which case the network is fully
// drained first (mixing worms of two VC disciplines could deadlock) —
// a forced swap therefore stalls injection until the network empties.
func (n *Network) Reconfigure(next routing.Algorithm, force bool) error {
	if next.NumVCs() > n.cfg.VCs {
		return fmt.Errorf("network: %s needs %d VCs, network has %d",
			next.Name(), next.NumVCs(), n.cfg.VCs)
	}
	hs, ok := n.alg.(hotSwapper)
	if !ok {
		return fmt.Errorf("network: %s cannot hot-swap (not an epoch swapper)", n.alg.Name())
	}
	_, newEpoch, err := hs.Swap(next, false)
	if err != nil {
		if !force {
			return err
		}
		if !n.Drain(n.cfg.WatchdogCycles) {
			return fmt.Errorf("network: forced reconfigure: network failed to drain within %d cycles", n.cfg.WatchdogCycles)
		}
		if _, newEpoch, err = hs.Swap(next, true); err != nil {
			return err
		}
	}
	if n.rec != nil {
		n.rec.Record(trace.Event{Cycle: n.now, Kind: trace.KReconfigSwap,
			Node: -1, Msg: -1, Port: -1, VC: -1, Arg: int32(newEpoch)})
	}
	return nil
}
