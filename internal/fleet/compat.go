package fleet

import "repro/internal/reconfig"

// Compatibility block: Key, KeyOf, CacheMetrics and NoBackups here,
// with RegistryOptions.CacheEntries, Options.CacheEntries and
// MetricsDoc.Cache on their structs and NewServer's second parameter,
// are kept for bench/, which builds against them and changes only in a
// change of the benchmark itself; ROADMAP item 2 is that change and
// deletes them, together with the fleet.cache.* metrics and the
// hit-ratio gates. No other package may use them. There is no decision
// cache behind them: both CacheEntries fields are accepted and
// ignored, and MetricsDoc.Cache is always nil. NewServer ignores its
// NoBackups parameter.

// Key is every field of a DecisionRequest, fixed-width: two requests
// with equal keys are the same decision. It is half the size of the
// request, which matters to the bench's distinct-request sets.
type Key struct {
	Node, InPort, InVC       int32
	Src, Dst, Length         int32
	Misroutes, Phase, Detour int32
	VNet                     int32
	Marked                   bool
}

// KeyOf packs a decision request into its Key.
func KeyOf(req *reconfig.DecisionRequest) Key {
	return Key{
		Node: int32(req.Node), InPort: int32(req.InPort), InVC: int32(req.InVC),
		Src: int32(req.Src), Dst: int32(req.Dst), Length: int32(req.Length),
		Misroutes: int32(req.Misroutes), Phase: int32(req.Phase),
		Detour: int32(req.DetourLevel), VNet: int32(req.VNet),
		Marked: req.Marked,
	}
}

// CacheMetrics is the type of MetricsDoc.Cache, which is always nil.
type CacheMetrics struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
}

// NoBackups is the type of NewServer's second parameter, which keeps
// bench/'s call compiling: NewServer ignores it, and every caller
// passes nil.
type NoBackups []struct{}
