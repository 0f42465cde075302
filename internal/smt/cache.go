package smt

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"pathslice/internal/faults"
	"pathslice/internal/logic"
)

// DefaultCacheSize is the entry bound NewCache applies when the caller
// passes a non-positive capacity.
const DefaultCacheSize = 1 << 16

// Cache memoizes definitive solver verdicts across queries. Keys are
// canonical serializations (logic.Key), so two queries that differ only
// in the fresh-variable counter they were generated under share one
// entry. A lookup serializes into a pooled buffer and allocates
// nothing; a key string is made only to store a new entry. Only Sat and Unsat verdicts are stored: they are
// limit-independent (Unsat verdicts are exact, Sat verdicts carry a
// validated model), whereas Unknown depends on the Limits in force and
// must be re-derived. A hit returns the verdict without a model — the
// model of the original solve is not transferable across the renaming
// the canonical key quotients out — so callers that need a witness must
// call Solve directly.
//
// The cache is sharded and safe for concurrent use; each shard is an
// LRU list bounded so the total entry count stays at the configured
// capacity.
type Cache struct {
	shards   []cacheShard
	perShard int

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheShard struct {
	mu    sync.Mutex
	m     map[string]*list.Element
	order *list.List // front = most recently used
}

type cacheEntry struct {
	key string
	st  Status
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
// Misses counts actual decision-procedure runs issued through the
// cache (including ones whose Unknown verdict was not stored).
// The same hits/misses/evictions are mirrored process-wide into the
// obs registry as smt_cache_{hits,misses,evictions}_total; Stats
// remains the per-cache view used for per-check attribution.
type CacheStats struct {
	Hits, Misses, Evictions, Entries int64
}

// NewCache returns a cache bounded to roughly capacity entries
// (DefaultCacheSize when capacity <= 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	const nShards = 16
	per := (capacity + nShards - 1) / nShards
	c := &Cache{shards: make([]cacheShard, nShards), perShard: per}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*list.Element)
		c.shards[i].order = list.New()
	}
	return c
}

// keyers holds the buffers lookups serialize keys into; the cache is
// shared across goroutines (slicerd sessions, parallel checks).
var keyers = sync.Pool{New: func() any { return new(logic.Keyer) }}

// shard picks key's shard by its 32-bit FNV-1a hash.
func shard[K string | []byte](c *Cache, key K) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return &c.shards[h%uint32(len(c.shards))]
}

// SolveCtx decides f under ctx and explicit limits, consulting and
// populating the cache: canonical-key lookup, the CacheEvict fault
// draw, one decision-procedure run on miss, and a
// definitive-verdicts-only store. A cancelled or deadline-expired
// solve returns StatusUnknown and is never stored, so a timeout can
// never poison the cache with a wrong verdict. Cached verdicts are
// returned regardless of lim: they are definitive for any limit
// setting.
func (c *Cache) SolveCtx(ctx context.Context, f logic.Formula, lim Limits) Result {
	k := keyers.Get().(*logic.Keyer)
	key := k.Key(f)
	// Fault injection (docs/ROBUSTNESS.md): drop the entry before the
	// lookup, forcing a re-solve through the concurrent-eviction path.
	// Harmless for correctness — only Sat/Unsat verdicts are cached
	// and re-solving rederives them.
	if faults.Should(faults.CacheEvict) {
		c.evict(key)
	}
	st, ok := c.peek(key)
	var stored string
	if !ok {
		stored = string(key)
	}
	keyers.Put(k)
	if ok {
		return Result{Status: st}
	}
	r := SolveCtx(ctx, f, lim)
	if r.Status != StatusUnknown {
		c.store(stored, r.Status)
	}
	return r
}

// peek looks key up, counting a hit or a miss.
func (c *Cache) peek(key []byte) (Status, bool) {
	sh := shard(c, key)
	sh.mu.Lock()
	if el, ok := sh.m[string(key)]; ok {
		sh.order.MoveToFront(el)
		st := el.Value.(*cacheEntry).st
		sh.mu.Unlock()
		c.hits.Add(1)
		mCacheHits.Inc()
		return st, true
	}
	sh.mu.Unlock()
	c.misses.Add(1)
	mCacheMisses.Inc()
	return StatusUnknown, false
}

// store inserts a definitive verdict (callers must not pass Unknown),
// evicting the shard's LRU entry when over capacity. It reports
// whether key was new.
func (c *Cache) store(key string, st Status) bool {
	sh := shard(c, key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.m[key]; ok {
		return false
	}
	sh.m[key] = sh.order.PushFront(&cacheEntry{key: key, st: st})
	if sh.order.Len() > c.perShard {
		oldest := sh.order.Back()
		sh.order.Remove(oldest)
		delete(sh.m, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
		mCacheEvictions.Inc()
	}
	return true
}

// evict drops key if present (the CacheEvict fault path).
func (c *Cache) evict(key []byte) {
	sh := shard(c, key)
	sh.mu.Lock()
	if el, ok := sh.m[string(key)]; ok {
		sh.order.Remove(el)
		delete(sh.m, el.Value.(*cacheEntry).key)
		c.evictions.Add(1)
		mCacheEvictions.Inc()
	}
	sh.mu.Unlock()
}

// CacheEntry is one exported verdict: the canonical formula key and
// whether the verdict was Sat (false means Unsat — Unknown is never
// cached, so never exported). It is the wire/disk form slicerd's
// warm-state snapshot uses.
type CacheEntry struct {
	Key string
	Sat bool
}

// Export snapshots every cached verdict, most recently used first
// within each shard. Safe to call concurrently with lookups.
func (c *Cache) Export() []CacheEntry {
	var out []CacheEntry
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for el := sh.order.Front(); el != nil; el = el.Next() {
			ce := el.Value.(*cacheEntry)
			out = append(out, CacheEntry{Key: ce.key, Sat: ce.st == StatusSat})
		}
		sh.mu.Unlock()
	}
	return out
}

// Restore inserts exported verdicts back into the cache, returning how
// many were accepted. Entries with empty keys are dropped and existing
// entries are never overwritten, so restoring can add verdicts (future
// hits) but never change one: a wrong or stale record costs at most a
// miss-equivalent (an entry nothing will ever look up), never a wrong
// answer for a formula the restored process actually queries — keys
// are canonical serializations, so a key either matches the exact
// formula it encodes or matches nothing.
func (c *Cache) Restore(entries []CacheEntry) int {
	restored := 0
	for _, e := range entries {
		if e.Key == "" {
			continue
		}
		st := StatusUnsat
		if e.Sat {
			st = StatusSat
		}
		if c.store(e.Key, st) {
			restored++
		}
	}
	return restored
}

// Stats snapshots the hit/miss/eviction counters and the current entry
// count.
func (c *Cache) Stats() CacheStats {
	s := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += int64(len(sh.m))
		sh.mu.Unlock()
	}
	return s
}

// CachedSolveCtx decides f through cache c under ctx and explicit
// limits; a nil cache falls back to SolveCtx directly, so callers can
// thread an optional cache without branching.
func CachedSolveCtx(ctx context.Context, c *Cache, f logic.Formula, lim Limits) Result {
	if c == nil {
		return SolveCtx(ctx, f, lim)
	}
	return c.SolveCtx(ctx, f, lim)
}
