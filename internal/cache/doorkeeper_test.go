package cache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoorkeeperSecondSight(t *testing.T) {
	d := NewDoorkeeper(32)
	if len(d.slots) != doorkeeperSlotsPerEntry*32 {
		t.Fatalf("%d slots for an LRU of 32", len(d.slots))
	}
	if d.Seen("a") {
		t.Fatal("first sight of a reported seen")
	}
	if !d.Seen("a") || !d.Seen("a") {
		t.Fatal("later sights of a reported unseen")
	}
	if d.Seen("") {
		t.Fatal("first sight of the empty signature reported seen")
	}
}

// A later signature on the same slot overwrites the earlier one: that is the
// table's ageing, and the overwritten key pays one more first sight.
func TestDoorkeeperOverwriteForgets(t *testing.T) {
	d := NewDoorkeeper(1) // 8 slots: nine keys must share one
	owner := map[*atomic.Uint64]string{}
	var a, b string
	for i := 0; b == ""; i++ {
		k := fmt.Sprintf("k%d", i)
		slot, _ := d.slot(k)
		if prev, ok := owner[slot]; ok {
			a, b = prev, k
		}
		owner[slot] = k
	}
	if d.Seen(a) || d.Seen(b) || d.Seen(a) {
		t.Fatalf("%q and %q share a slot: each sight after the other must read as a first", a, b)
	}
	if !d.Seen(a) {
		t.Fatalf("%q twice in a row read as unseen", a)
	}
}

// Of any number of concurrent callers with one cold signature, exactly one is
// its first sight.
func TestDoorkeeperOneFirstSightPerHerd(t *testing.T) {
	d := NewDoorkeeper(16)
	for round := 0; round < 50; round++ {
		sig := fmt.Sprintf("sig-%d", round)
		var first atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if !d.Seen(sig) {
					first.Add(1)
				}
			}()
		}
		close(start)
		wg.Wait()
		if n := first.Load(); n != 1 {
			t.Fatalf("round %d: %d first sights among 8 concurrent callers", round, n)
		}
	}
}
