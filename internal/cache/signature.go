// Package cache is the serving stack's shared-evidence result cache: a
// canonical evidence signature, a sharded LRU of completed propagation
// results, and a context-aware singleflight group that collapses concurrent
// identical queries into one propagation.
//
// The three pieces are deliberately independent of the engine: the
// signature is a pure function of a propagation's inputs, the LRU stores
// opaque values, and the singleflight group runs arbitrary callbacks. The
// engine in internal/core wires them together.
package cache

import (
	"encoding/binary"
	"math"
	"slices"

	"evprop/internal/potential"
)

// Signature returns the canonical signature of one propagation's inputs:
// the semiring mode, the hard evidence and the soft (likelihood) evidence.
// The signature is the key of the result cache and the singleflight group,
// so it must be injective — two different inputs must never share a
// signature, and equal inputs must always produce one — regardless of map
// insertion order.
//
// The encoding is self-delimiting and order-canonical, which makes it
// injective by construction rather than by hashing: mode byte, then the
// hard-evidence pairs sorted by variable id as (uvarint id, uvarint state),
// then the soft-evidence entries sorted by variable id as (uvarint id,
// uvarint len, 8-byte little-endian IEEE bits per weight), each section
// prefixed with its entry count. Weights are compared by bit pattern, so
// distinct NaN payloads or signed zeros key distinct entries — a spurious
// miss at worst, never a wrong hit.
func Signature(mode byte, ev potential.Evidence, like potential.Likelihood) string {
	var buf [128]byte // the encoding stays on the stack unless it is long
	return string(AppendSignature(buf[:0], mode, ev, like))
}

// AppendSignature appends the Signature of its inputs to buf, for a caller
// that looks it up without making it a string (LRU.Lookup).
func AppendSignature(buf []byte, mode byte, ev potential.Evidence, like potential.Likelihood) []byte {
	var idsArr [32]int // the ids sorted stay on the stack unless they are many
	buf = append(buf, mode)
	buf = binary.AppendUvarint(buf, uint64(len(ev)))
	ids := idsArr[:0]
	for id := range ev {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = binary.AppendUvarint(buf, uint64(ev[id]))
	}
	buf = binary.AppendUvarint(buf, uint64(len(like)))
	ids = ids[:0]
	for id := range like {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		w := like[id]
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = binary.AppendUvarint(buf, uint64(len(w)))
		for _, x := range w {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
	}
	return buf
}
