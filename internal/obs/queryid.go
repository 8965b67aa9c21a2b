package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"strconv"
	"sync/atomic"
)

// Query identity: every propagation carries a query ID so one request can be
// followed from the HTTP access log through the scheduler into the flight
// recorder. IDs flow through a context; a propagation whose context carries
// no ID is assigned a fresh one by the engine so engine-level callers (tests,
// benchmarks, library users) correlate too.

// QueryIDKey is the context key query IDs travel under, as a string or a
// *string. WithQueryID stores one; a context of its own that answers
// Value(QueryIDKey{}) carries one without a context.WithValue, and with a
// *string without boxing the ID.
type QueryIDKey struct{}

// WithQueryID returns a context carrying the query ID.
func WithQueryID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, QueryIDKey{}, id)
}

// QueryIDFrom extracts the query ID from the context, or "" when none is set.
func QueryIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	switch id := ctx.Value(QueryIDKey{}).(type) {
	case string:
		return id
	case *string:
		return *id
	}
	return ""
}

// idPrefix distinguishes processes: two server restarts writing to the same
// log must not reuse IDs, so the per-process counter is salted with four
// random bytes read once at startup.
var idPrefix = func() string {
	var b [4]byte
	if _, err := crand.Read(b[:]); err != nil {
		return "q-0000"
	}
	return "q-" + hex.EncodeToString(b[:])
}()

var idCounter atomic.Uint64

// NewQueryID returns a process-unique query ID, e.g. "q-9f2c41d3-17". It is
// cheap enough for the propagation hot path: one atomic add and one integer
// format.
func NewQueryID() string {
	var b [32]byte
	return string(AppendQueryID(b[:0]))
}

// AppendQueryID appends a NewQueryID to b, for a caller that keeps it in a
// string of its own.
func AppendQueryID(b []byte) []byte {
	b = append(append(b, idPrefix...), '-')
	return strconv.AppendUint(b, idCounter.Add(1), 10)
}
