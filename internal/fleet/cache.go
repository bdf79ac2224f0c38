// Package fleet turns the single-process decision service behind
// cmd/routerd into a multi-node decision fleet: a memoization cache
// over the pure per-epoch decision function, a versioned artifact
// registry with canary/promote/rollback on top of the reconfig epoch
// machinery, topology-shard ownership for replica sets, a scattering
// client library, and the HTTP server the replicas run.
package fleet

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/reconfig"
	"repro/internal/routing"
)

// Key is the memoization key of one routing decision. It is the
// service-boundary image of the dense InputVector: a DecisionRequest
// carries exactly the values the rule adapters load into the flat
// input slots before a DenseTable lookup (deciding node, arrival
// port/VC, header state), so two requests with equal keys fill
// bit-identical input vectors and — the ARON table being a pure
// function per epoch — must produce bit-identical decisions. Nothing
// outside the key reaches the decision: fault state and table version
// are epoch-level inputs handled by whole-cache invalidation, not per
// key.
type Key struct {
	Node, InPort, InVC       int32
	Src, Dst, Length         int32
	Misroutes, Phase, Detour int32
	VNet                     int32
	Marked                   bool
}

// KeyOf packs a decision request into its memoization key.
func KeyOf(req *reconfig.DecisionRequest) Key {
	return Key{
		Node: int32(req.Node), InPort: int32(req.InPort), InVC: int32(req.InVC),
		Src: int32(req.Src), Dst: int32(req.Dst), Length: int32(req.Length),
		Misroutes: int32(req.Misroutes), Phase: int32(req.Phase),
		Detour: int32(req.DetourLevel), VNet: int32(req.VNet),
		Marked: req.Marked,
	}
}

// cacheEntry is one memoized decision: the deciding epoch and the
// index of its candidate set in the shard's interned sets. A node has
// few distinct answers, so an entry names one instead of owning a
// copy; the empty set is a memoized unroutable verdict — a legal
// answer worth caching.
type cacheEntry struct {
	epoch uint64
	set   uint32
}

// cacheShard is one independently locked slice of the key space. Its
// entries live in two generations: cur takes every insert, old is the
// generation before it and is only read. Nothing is ever deleted key
// by key — see Put.
type cacheShard struct {
	mu       sync.Mutex
	cur, old map[Key]cacheEntry
	// sets are the distinct candidate sets of the shard's entries and
	// index finds one by its varint encoding; both live until the next
	// Invalidate.
	sets  [][]routing.Candidate
	index map[string]uint32
}

const cacheShards = 16

// Cache memoizes routing decisions across requests. Correctness rests
// on two facts: (1) the decision function is pure per epoch — the
// Service already spreads identical requests over interchangeable
// engine replicas, so a memoized answer is just one more replica that
// answers from memory; (2) every input that is not in the Key (table
// version, fault state) only changes through the registry's mutation
// path, which bumps the generation counter *after* the mutation
// completes. Writers capture the generation before deciding and Put
// refuses a stale generation, so a decision computed against old
// tables can never be stored after the invalidation that retired them.
//
// Its memory is a function of the capacity alone, however many keys
// pass through: the maps grow to their share once and are cleared and
// reused, never deleted from.
type Cache struct {
	gen    atomic.Uint64
	shards [cacheShards]cacheShard
	// perShard is each shard's share of the capacity; a generation is
	// retired when cur reaches half of it.
	perShard, half int

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
}

// CacheMetrics is the cache section of routerd's /metrics document.
// Evictions counts the entries dropped when a shard retired a
// generation (see Put), not individual displacements.
type CacheMetrics struct {
	Entries       int     `json:"entries"`
	Capacity      int     `json:"capacity"`
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	Evictions     int64   `json:"evictions"`
	Invalidations int64   `json:"invalidations"`
	HitRate       float64 `json:"hit_rate"`
}

// NewCache builds a decision cache that holds at most capacity
// entries (one per shard at the least) and keeps, per shard, at least
// the most recent half of its share. A capacity <= 0 returns nil — the
// registry and server treat a nil cache as memoization disabled.
// Nothing is sized up front: a working set far below the capacity
// costs only its own entries.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	per := max(capacity/cacheShards, 1)
	c := &Cache{perShard: per, half: max(per/2, 1)}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.cur, sh.old = make(map[Key]cacheEntry), make(map[Key]cacheEntry)
		sh.index = make(map[string]uint32)
	}
	return c
}

// shardOf spreads keys over the shards; the deciding node is the
// natural spreader (uniform under scattered traffic) with the header
// fields folded in so single-node replays still spread.
func (c *Cache) shardOf(k *Key) *cacheShard {
	h := uint32(k.Node)*31 ^ uint32(k.Src)*17 ^ uint32(k.Dst)*13 ^ uint32(k.InPort+7)
	return &c.shards[h%cacheShards]
}

// Gen returns the current generation. Callers capture it BEFORE
// computing the decision they intend to Put — see Put.
func (c *Cache) Gen() uint64 { return c.gen.Load() }

// Get appends the memoized candidates for k to buf and returns the
// extended slice, the memoized epoch and whether it hit. A hit with an
// unextended buf is a memoized unroutable verdict.
func (c *Cache) Get(k Key, buf []routing.Candidate) ([]routing.Candidate, uint64, bool) {
	sh := c.shardOf(&k)
	sh.mu.Lock()
	e, ok := sh.cur[k]
	if !ok {
		e, ok = sh.old[k]
	}
	if ok {
		buf = append(buf, sh.sets[e.set]...)
	}
	sh.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return buf, 0, false
	}
	c.hits.Add(1)
	return buf, e.epoch, true
}

// Put memoizes a decision computed while the cache was at generation
// gen. If an invalidation ran since gen was captured the entry is
// dropped: the decision may predate a reload, fault event or epoch
// retirement and must not outlive it. The generation check and the
// insert share the shard lock, and Invalidate sweeps each shard after
// bumping the generation, so no stale entry can survive an
// invalidation (inserted-before entries are swept; inserted-after
// attempts see the new generation and drop).
//
// Eviction is by generation, not by key: when cur reaches half the
// shard's share, old is cleared whole and the two swap, so the shard
// never holds more than its share and always holds its most recent
// half. The cache is a throughput device, not an LRU contract. Evicting
// one key per insert instead kept Go's map deleting and reinserting
// for ever, and its heap grew with the keys that had passed through
// rather than with the capacity (DESIGN.md §9.1); a cleared map keeps
// its buckets, so at capacity a Put of a known candidate set allocates
// nothing.
func (c *Cache) Put(k Key, gen uint64, cands []routing.Candidate, epoch uint64) {
	sh := c.shardOf(&k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c.gen.Load() != gen {
		return
	}
	set := c.intern(sh, cands) // may start the shard over, so before the insert
	sh.cur[k] = cacheEntry{epoch: epoch, set: set}
	if len(sh.cur) >= c.half {
		c.evictions.Add(int64(len(sh.old)))
		clear(sh.old)
		sh.cur, sh.old = sh.old, sh.cur
	}
}

// intern returns the index of cands among the shard's candidate sets,
// adding a copy on first sight (shard lock held).
func (c *Cache) intern(sh *cacheShard, cands []routing.Candidate) uint32 {
	var scratch [64]byte
	enc := scratch[:0]
	for _, cd := range cands {
		enc = binary.AppendVarint(enc, int64(cd.Port))
		enc = binary.AppendVarint(enc, int64(cd.VC))
	}
	if i, ok := sh.index[string(enc)]; ok {
		return i
	}
	if len(sh.sets) >= c.perShard {
		// More distinct answers than the shard has entries for: no
		// routing function does this, but the bound on memory must not
		// rest on that. Start the shard over.
		c.evictions.Add(int64(len(sh.cur) + len(sh.old)))
		sh.reset()
	}
	i := uint32(len(sh.sets))
	sh.sets = append(sh.sets, slices.Clone(cands))
	sh.index[string(enc)] = i
	return i
}

// reset empties the shard, keeping what its maps have grown to (shard
// lock held).
func (sh *cacheShard) reset() {
	clear(sh.cur)
	clear(sh.old)
	clear(sh.index)
	clear(sh.sets)
	sh.sets = sh.sets[:0]
}

// Invalidate atomically retires every memoized decision: the
// generation bump instantly blocks stale Puts, then each shard is
// swept so no pre-bump entry remains once Invalidate returns. Callers
// must mutate the decision state (reload, fault update, engine
// install) BEFORE invalidating — a miss that observes the new
// generation must be guaranteed to decide on the new state.
func (c *Cache) Invalidate() {
	c.gen.Add(1)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.reset()
		sh.mu.Unlock()
	}
	c.invalidations.Add(1)
}

// Len returns the number of live entries, at most the capacity.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.cur) + len(sh.old)
		sh.mu.Unlock()
	}
	return n
}

// Metrics snapshots the cache counters.
func (c *Cache) Metrics() CacheMetrics {
	hits, misses := c.hits.Load(), c.misses.Load()
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	return CacheMetrics{
		Entries:       c.Len(),
		Capacity:      c.perShard * cacheShards,
		Hits:          hits,
		Misses:        misses,
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		HitRate:       rate,
	}
}
