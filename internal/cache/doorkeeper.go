package cache

import "sync/atomic"

// Doorkeeper remembers which signatures have been looked up before, so the
// engine can admit a result to the LRU on the second sight of its signature
// and spend nothing on a signature nobody asks for twice. It is a direct-mapped
// table of 64-bit signature hashes: Seen is one atomic swap, a later signature
// on the same slot overwrites the earlier one — which is all the ageing there
// is — and Purge has nothing to reset here, the LRU's generation already
// fences stale Adds.
//
// Both ways it can be wrong are harmless to an answer: two signatures with one
// hash (or a hash of 0, the empty slot) read as seen and pin a result one query
// early; a signature whose slot was overwritten reads as unseen and pays one
// more propagation.
type Doorkeeper struct {
	slots []atomic.Uint64
}

// doorkeeperSlotsPerEntry is the table's size in units of the LRU's capacity.
// A key whose reuse distance the LRU could still serve (under Cap other
// signatures since its first sight) has been overwritten by one of them with
// probability ≈ Cap/N, so at 8 one such key in eight is propagated a third time.
const doorkeeperSlotsPerEntry = 8

// NewDoorkeeper returns the table that goes with an LRU of capacity lruCap.
func NewDoorkeeper(lruCap int) *Doorkeeper {
	return &Doorkeeper{slots: make([]atomic.Uint64, doorkeeperSlotsPerEntry*max(1, lruCap))}
}

// Seen records sig and reports whether it was already the last signature
// recorded on its slot. Of any number of concurrent callers with one signature
// on an untouched slot, exactly one is told false.
func (d *Doorkeeper) Seen(sig string) bool {
	slot, h := d.slot(sig)
	return slot.Swap(h) == h
}

// slot returns sig's slot and the hash it is remembered by there.
func (d *Doorkeeper) slot(sig string) (*atomic.Uint64, uint64) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64) // FNV-1a
	for i := 0; i < len(sig); i++ {
		h ^= uint64(sig[i])
		h *= prime64
	}
	// The low bits of FNV-1a depend only on the low bits of the input bytes;
	// fold the high half in before reducing.
	return &d.slots[(h^h>>32)%uint64(len(d.slots))], h
}
