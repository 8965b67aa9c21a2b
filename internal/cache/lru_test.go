package cache

import (
	"fmt"
	"sync"
	"testing"
)

// get looks key up as the engine does, from its bytes.
func get(c *LRU, key string) (any, bool) {
	v, _, ok := c.Lookup([]byte(key))
	return v, ok
}

func TestLRUGetAddEvict(t *testing.T) {
	c := NewLRU(lruShards) // one entry per shard
	gen := c.Generation()
	c.Add("a", 1, 1, gen)
	if v, stored, ok := c.Lookup([]byte("a")); !ok || v.(int) != 1 || stored != "a" {
		t.Fatalf("Lookup(a) = %v, %q, %v", v, stored, ok)
	}
	if c.Hits() != 1 || c.Misses() != 0 {
		t.Fatalf("hits/misses = %d/%d, want 1/0", c.Hits(), c.Misses())
	}
	if _, ok := get(c, "nope"); ok {
		t.Fatal("Lookup(nope) hit")
	}
	if c.Misses() != 1 {
		t.Fatalf("misses = %d, want 1", c.Misses())
	}
	// Peek answers like Lookup and counts nothing.
	if v, ok := c.Peek("a"); !ok || v.(int) != 1 {
		t.Fatalf("Peek(a) = %v, %v", v, ok)
	}
	if _, ok := c.Peek("nope"); ok || c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("Peek(nope) = %v, hits/misses = %d/%d, want miss and 1/1", ok, c.Hits(), c.Misses())
	}
	// Refresh keeps a single entry, at its new size.
	c.Add("a", 2, 40, gen)
	if v, _ := get(c, "a"); v.(int) != 2 {
		t.Fatal("Add did not refresh the value")
	}
	if n, size := c.Fill(); n != 1 || size != 40 || c.Len() != 1 {
		t.Fatalf("Fill = %d entries of size %d, want 1 of 40", n, size)
	}
}

func TestLRUEvictsOldestPerShard(t *testing.T) {
	c := NewLRU(lruShards) // capacity 1 per shard
	// Find two keys landing on the same shard.
	var keys []string
	shard := c.shardFor("k0")
	for i := 0; len(keys) < 3; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.shardFor(k) == shard {
			keys = append(keys, k)
		}
	}
	gen := c.Generation()
	c.Add(keys[0], 0, 100, gen)
	c.Add(keys[1], 1, 7, gen)
	if _, ok := get(c, keys[0]); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, size := c.Fill(); size != 7 {
		t.Fatalf("size %d after evicting the entry of size 100, want 7", size)
	}
	if v, ok := get(c, keys[1]); !ok || v.(int) != 1 {
		t.Fatal("newest entry evicted")
	}
	// Recency matters: touch keys[1], add keys[2]; keys[1] survives only if
	// capacity allows one — here per-shard cap is 1 so keys[2] wins.
	c.Add(keys[2], 2, 1, gen)
	if _, ok := get(c, keys[1]); ok {
		t.Fatal("LRU kept more than its per-shard capacity")
	}
}

func TestLRUPurgeDropsStaleInFlightAdd(t *testing.T) {
	c := NewLRU(64)
	gen := c.Generation()
	c.Add("live", 1, 1, gen)
	c.Purge()
	if n, size := c.Fill(); n != 0 || size != 0 {
		t.Fatalf("Fill after purge = %d entries of size %d", n, size)
	}
	// An Add computed before the purge must be dropped…
	c.Add("stale", 2, 1, gen)
	if _, ok := get(c, "stale"); ok {
		t.Fatal("pre-purge Add resurrected a stale entry")
	}
	if _, size := c.Fill(); size != 0 {
		t.Fatalf("a dropped Add left size %d", size)
	}
	// …while a fresh-generation Add lands.
	c.Add("fresh", 3, 1, c.Generation())
	if _, ok := get(c, "fresh"); !ok {
		t.Fatal("post-purge Add did not land")
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := NewLRU(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*31+i)%200)
				if v, ok := get(c, k); ok {
					_ = v.(int)
				} else {
					c.Add(k, i, 1, c.Generation())
				}
				if i%97 == 0 {
					c.Purge()
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > c.Cap() {
		t.Fatalf("Len %d exceeds capacity %d", c.Len(), c.Cap())
	}
}

// TestLRUCapIsEffective pins Cap to what the shards actually hold: the
// requested capacity rounded down to whole entries per shard, at least one
// each — so a full cache never reports more entries than capacity.
func TestLRUCapIsEffective(t *testing.T) {
	for _, tc := range []struct{ asked, want int }{{1, 16}, {4, 16}, {32, 32}, {40, 32}} {
		c := NewLRU(tc.asked)
		if c.Cap() != tc.want {
			t.Errorf("NewLRU(%d).Cap() = %d, want %d", tc.asked, c.Cap(), tc.want)
		}
		gen := c.Generation()
		for i := 0; i < 50*lruShards; i++ {
			c.Add(fmt.Sprintf("k%d", i), i, 1, gen)
			if c.Len() > c.Cap() {
				t.Fatalf("NewLRU(%d): Len %d exceeds Cap %d after %d adds", tc.asked, c.Len(), c.Cap(), i+1)
			}
		}
		if c.Len() != c.Cap() {
			t.Errorf("NewLRU(%d): Len %d after overfilling, want Cap %d", tc.asked, c.Len(), c.Cap())
		}
	}
}

// TestLRUGetDuringRefresh: Add on a live key rewrites the entry's value under
// the shard lock, so Lookup must read it there too — -race flags a Lookup that
// reads the interface after unlocking.
func TestLRUGetDuringRefresh(t *testing.T) {
	c := NewLRU(lruShards)
	gen := c.Generation()
	c.Add("k", 0, 1, gen)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 2000; i++ {
			c.Add("k", i, 1, gen)
		}
	}()
	for i := 0; i < 2000; i++ {
		if v, ok := get(c, "k"); !ok || v.(int) < 0 {
			t.Fatalf("Get(k) = %v, %v", v, ok)
		}
	}
	<-done
}
