package cache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// lruShards is the fixed shard count: enough to keep concurrent handlers
// off each other's locks, few enough that tiny caches still hold entries.
const lruShards = 16

// LRU is a sharded least-recently-used cache of opaque values keyed by
// signature strings. Get and Add take one shard mutex each, so concurrent
// queries with different signatures rarely contend; hit and miss counters
// are atomics shared across shards.
//
// Purge is generation-aware: it invalidates the cache *and* any insert
// still in flight. Add carries the generation observed when its value was
// computed, and an Add whose generation predates the latest Purge is
// dropped — a propagation that started before an invalidation can never
// re-populate the cache afterwards.
type LRU struct {
	gen    atomic.Uint64
	hits   atomic.Int64
	misses atomic.Int64
	shards [lruShards]lruShard
	// perShard is the eviction bound of one shard.
	perShard int
}

type lruShard struct {
	mu    sync.Mutex
	ll    *list.List
	items map[string]*list.Element
	size  int64 // sum of the entries' sizes
}

type lruEntry struct {
	key  string
	val  any
	size int64
}

// NewLRU returns a cache for about capacity entries. The bound is enforced
// per shard, so the capacity that actually holds — the one Cap reports — is
// the request rounded down to a multiple of lruShards, and never less than
// one entry per shard: 4 becomes 16, 40 becomes 32.
func NewLRU(capacity int) *LRU {
	c := &LRU{perShard: max(1, capacity/lruShards)}
	for i := range c.shards {
		c.shards[i].ll = list.New()
		c.shards[i].items = make(map[string]*list.Element)
	}
	return c
}

// fnv32a hashes the key onto a shard.
func fnv32a(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

func (c *LRU) shardFor(key string) *lruShard {
	return &c.shards[fnv32a(key)%lruShards]
}

// Get returns the cached value for key, bumping it to most-recently-used,
// and counts the lookup as a hit or a miss.
func (c *LRU) Get(key string) (any, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	el, ok := s.items[key]
	var val any
	if ok {
		s.ll.MoveToFront(el)
		val = el.Value.(*lruEntry).val // Add's refresh writes it under the lock
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return val, true
}

// Peek returns the cached value for key without counting the lookup or
// touching its recency: the second look of a caller whose Get already counted
// a miss.
func (c *LRU) Peek(key string) (any, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		return el.Value.(*lruEntry).val, true
	}
	return nil, false
}

// Generation returns the current purge generation; pass it to Add so an
// insert computed before a Purge is dropped instead of resurrecting stale
// state.
func (c *LRU) Generation() uint64 { return c.gen.Load() }

// Add inserts (or refreshes) key with the value computed under generation
// gen, evicting the shard's least-recently-used entry when full. Values
// computed before the latest Purge (gen mismatch) are silently dropped. size
// is what the value costs to keep, in the caller's unit; the cache only adds
// the sizes of its live entries up (Fill).
func (c *LRU) Add(key string, val any, size int64, gen uint64) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.gen.Load() != gen {
		return
	}
	s.size += size
	if el, ok := s.items[key]; ok {
		e := el.Value.(*lruEntry)
		s.size -= e.size
		e.val, e.size = val, size
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(&lruEntry{key: key, val: val, size: size})
	for s.ll.Len() > c.perShard {
		oldest := s.ll.Remove(s.ll.Back()).(*lruEntry)
		delete(s.items, oldest.key)
		s.size -= oldest.size
	}
}

// Purge drops every entry and advances the generation, so in-flight Adds
// whose values were computed before the purge are dropped too. Evicted
// values are left to the garbage collector — consumers still holding them
// keep valid (immutable) data.
func (c *LRU) Purge() {
	c.gen.Add(1)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.ll.Init()
		clear(s.items)
		s.size = 0
		s.mu.Unlock()
	}
}

// Len returns the number of cached entries.
func (c *LRU) Len() int {
	n, _ := c.Fill()
	return n
}

// Fill returns the number of cached entries and the sum of the sizes they
// were added with.
func (c *LRU) Fill() (entries int, size int64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		entries += s.ll.Len()
		size += s.size
		s.mu.Unlock()
	}
	return entries, size
}

// Cap returns the effective capacity: the most entries the cache can hold,
// which is the per-shard bound times the shard count and may differ from the
// number NewLRU was asked for. Len never exceeds it.
func (c *LRU) Cap() int { return c.perShard * lruShards }

// Hits and Misses return the lifetime lookup counters.
func (c *LRU) Hits() int64   { return c.hits.Load() }
func (c *LRU) Misses() int64 { return c.misses.Load() }
