// Package trace is a zero-dependency distributed-tracing span model for
// the serving pipeline: 128-bit trace IDs, parent-linked spans with
// monotonic timestamps and typed attributes, W3C traceparent/tracestate
// interop, tail-based sampling into a bounded in-memory store, and
// OTLP/JSON-over-HTTP export.
//
// Every request records its spans into a pooled, cache-line-padded
// fixed-capacity arena with no allocation after warm-up, and the keep/drop
// decision is deferred to the end of the request (tail sampling). Recycling
// is reference-counted, last-one-out: the request holds a base reference
// from StartRequest to Finish, every open span holds one, and the arena
// returns to the pool only when the count hits zero after the trace is
// sealed. A detached run's straggler span (a singleflight leader outliving
// its caller, a cancelled propagation) therefore keeps the arena alive
// until its own End — a late write can never land in a buffer that has been
// handed to another request.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a W3C 128-bit trace ID. The all-zero value is invalid.
type TraceID [16]byte

// SpanID is a W3C 64-bit span ID. The all-zero value is invalid.
type SpanID [8]byte

// IsValid reports whether the ID is non-zero.
func (id TraceID) IsValid() bool { return id != TraceID{} }

// IsValid reports whether the ID is non-zero.
func (id SpanID) IsValid() bool { return id != SpanID{} }

// String returns the 32-char lowercase hex form.
func (id TraceID) String() string {
	var b [2 * len(id)]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// String returns the 16-char lowercase hex form.
func (id SpanID) String() string {
	var b [2 * len(id)]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// FlagSampled is the traceparent trace-flags bit meaning "the caller has
// decided to sample this trace"; tail sampling always keeps flagged traces.
const FlagSampled byte = 0x01

// SpanContext identifies one span for propagation across process
// boundaries: the W3C traceparent tuple plus the opaque tracestate.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Flags   byte
	State   string // raw tracestate header, passed through untouched
}

// Sampled reports whether the sampled flag bit is set.
func (sc SpanContext) Sampled() bool { return sc.Flags&FlagSampled != 0 }

// IsValid reports whether both IDs are non-zero.
func (sc SpanContext) IsValid() bool { return sc.TraceID.IsValid() && sc.SpanID.IsValid() }

// Attr is one typed span attribute. Exactly one value field is used,
// selected by Kind; keys follow OTel dot notation ("cache.hit").
type Attr struct {
	Key  string
	Kind AttrKind
	Str  string
	Int  int64
	F64  float64
	Bool bool
}

// AttrKind selects an Attr's value field.
type AttrKind uint8

// Attribute value kinds.
const (
	AttrString AttrKind = iota
	AttrInt
	AttrFloat
	AttrBool
)

// String, Int, Float and Bool construct typed attributes.
func String(k, v string) Attr    { return Attr{Key: k, Kind: AttrString, Str: v} }
func Int(k string, v int64) Attr { return Attr{Key: k, Kind: AttrInt, Int: v} }
func Float(k string, v float64) Attr {
	return Attr{Key: k, Kind: AttrFloat, F64: v}
}
func Bool(k string, v bool) Attr { return Attr{Key: k, Kind: AttrBool, Bool: v} }

// maxSpans is an arena's fixed span capacity. A fully instrumented query
// (root + cache + singleflight + plan + run + per-kind children + batch
// items) stays well under it; overflow increments the arena's dropped
// counter instead of allocating.
const maxSpans = 64

// maxAttrs is the per-span attribute capacity; excess attributes are
// dropped silently (the span's attrDrop flag marks the loss).
const maxAttrs = 10

// spanSlot is one span's storage inside an arena. All fields except the
// two atomics are written only by the goroutine that owns the span,
// between slot reservation and the committed store; readers (the seal-time
// collector) only look at slots whose committed flag is set, and the
// atomic store/load pair orders the plain writes before the reads.
type spanSlot struct {
	id       SpanID
	parent   SpanID
	name     string
	start    time.Time
	dur      time.Duration
	status   string // non-empty = error
	attrs    [maxAttrs]Attr
	nattrs   int
	attrDrop bool
	// committed is set once the span has ended and every field is final.
	committed atomic.Bool
}

// Trace is one request's span arena: a pooled, fixed-capacity,
// cache-line-padded buffer the request's spans are recorded into. It is
// safe for concurrent span starts/ends from any number of goroutines.
//
// Lifecycle invariants (the recycling discipline):
//   - refs counts the base reference (StartRequest → Finish) plus one per
//     open span, plus transient guards taken by in-flight StartChild.
//   - phase goes open → sealed once, in Finish, before the base reference
//     drops.
//   - the release that takes refs to 0 while sealed recycles the arena,
//     winning the exclusive CAS sealed → recycling so exactly one goroutine
//     resets. The arena stays closed to StartChild for the whole reset: it
//     reopens (recycling → open) only after the generation bump has turned
//     every handle of the finished request stale, so there is no instant at
//     which such a handle passes both the phase and the generation check.
//   - non-atomic fields (id, flags, state, slots) are only touched while
//     holding a reference, so the reset never races a late writer.
type Trace struct {
	id    TraceID
	flags byte
	state string
	// head marks the sampled flag as this process's head-sampling coin
	// rather than a caller's explicit choice (only affects the recorded
	// keep reason).
	head bool
	// slow is the request's slow-trace threshold (see SetSlowThreshold).
	slow time.Duration

	n       atomic.Int32  // reserved slots
	refs    atomic.Int32  // base + open spans + in-flight starts
	phase   atomic.Uint32 // arenaOpen → arenaSealed (Finish) → arenaRecycling → arenaOpen
	gen     atomic.Uint32 // bumped on recycle; stale handles become inert
	dropped atomic.Int64  // spans lost to arena overflow

	spans [maxSpans]spanSlot

	// Pad the hot atomics' cache line away from whatever the pool
	// allocates next to this arena (same discipline as sched.traceBuf).
	_ [64]byte
}

// ID returns the trace ID. Valid only between StartRequest and Finish.
func (t *Trace) ID() TraceID { return t.id }

// Flags returns the trace flags (FlagSampled et al.). Valid only between
// StartRequest and Finish.
func (t *Trace) Flags() byte { return t.flags }

// Dropped returns the number of spans lost to arena overflow so far.
func (t *Trace) Dropped() int64 { return t.dropped.Load() }

// SetSlowThreshold gives tail sampling its "slow" rule for this request:
// Finish keeps the trace when the root span lasted at least d. The threshold
// belongs to the request, not the tracer, because it is the adaptive 2×p99
// of whichever model the request resolved to; 0 (the default) means no slow
// rule. Call it between StartRequest and Finish, from the goroutine that
// calls Finish.
func (t *Trace) SetSlowThreshold(d time.Duration) { t.slow = d }

// The phases of an arena's life. Only an open arena admits new spans.
const (
	arenaOpen uint32 = iota
	arenaSealed
	arenaRecycling
)

// release drops one reference; the last release of a sealed trace
// recycles the arena.
func (t *Trace) release() {
	if t.lastOut() {
		t.recycle()
	}
}

// lastOut drops one reference and reports whether the caller took the last
// one out of a sealed trace and must recycle it. The CAS elects exactly one
// recycler even when a stale handle's transient guard and the real last
// release race, and leaves the arena in a phase that admits nothing.
func (t *Trace) lastOut() bool {
	return t.refs.Add(-1) == 0 && t.phase.CompareAndSwap(arenaSealed, arenaRecycling)
}

// recycle resets the arena for reuse and returns it to the pool. Runs
// with refs == 0 in the recycling phase: nobody holds a live reference and
// StartChild admits nobody, so the plain-field writes cannot race. The
// generation bump comes first, turning every span handle of the finished
// request inert before its slot is cleared; the arena reopens last.
func (t *Trace) recycle() {
	t.gen.Add(1)
	n := int(t.n.Load())
	if n > maxSpans {
		n = maxSpans
	}
	for i := 0; i < n; i++ {
		t.spans[i] = spanSlot{}
	}
	t.n.Store(0)
	t.dropped.Store(0)
	t.id = TraceID{}
	t.flags = 0
	t.state = ""
	t.head = false
	t.slow = 0
	t.phase.Store(arenaOpen)
	arenaPool.Put(t)
}

// Span is a handle to one open span. The zero/nil Span is inert: every
// method is a no-op, so instrumented code needs no "is tracing on"
// branches beyond the single context lookup that produced the handle.
// The handle carries its own copy of the trace identity, so propagation
// (Context, TraceID) never reads arena fields a recycler could be
// resetting.
//
// A handle holds one reference on its arena from the start of its span to
// End, and writes its slot only in between: ended, set by End, makes the
// handle inert by itself. Asking the arena instead (is the generation still
// mine, is the slot committed) reads without a reference, and the arena may
// be recycled and handed to another request between the answer and the write.
// ended belongs to the goroutine that owns the span, like the slot.
type Span struct {
	tr    *Trace
	slot  int32
	gen   uint32
	id    SpanID
	tid   TraceID
	flags byte
	state string
	ended bool
}

// mixSpanID derives a deterministic span ID from a 64-bit seed and the
// slot index (splitmix64). Determinism makes replayed traces diff
// cleanly; uniqueness within a trace follows from distinct slot indices.
func mixSpanID(seed uint64, slot int32) SpanID {
	x := seed + uint64(slot+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	var id SpanID
	binary.LittleEndian.PutUint64(id[:], x)
	if !id.IsValid() {
		id[0] = 1
	}
	return id
}

// spanID derives the ID for a trace's slot from the trace ID.
func spanID(tid TraceID, slot int32) SpanID {
	return mixSpanID(binary.LittleEndian.Uint64(tid[:8])^binary.LittleEndian.Uint64(tid[8:]), slot)
}

// startChild reserves a slot and opens a span under parent. Returns the zero
// Span, which is inert, when the arena is sealed (the request already
// finished — the detached case), being recycled or recycled under the caller
// (stale generation), or full.
func (parent *Span) startChild(name string, attrs []Attr) Span {
	t := parent.tr
	// Take a reference before the phase/generation checks: a reference
	// held by anyone forbids recycling, so passing the checks guarantees
	// the slot write below targets this request's arena.
	t.refs.Add(1)
	if t.phase.Load() != arenaOpen || parent.gen != t.gen.Load() {
		t.release()
		return Span{}
	}
	slot := t.n.Add(1) - 1
	if slot >= maxSpans {
		t.n.Add(-1)
		t.dropped.Add(1)
		t.release()
		return Span{}
	}
	s := &t.spans[slot]
	id := mixSpanID(binary.LittleEndian.Uint64(parent.id[:]), slot)
	s.id = id
	s.parent = parent.id
	s.name = name
	s.start = time.Now()
	s.nattrs = copy(s.attrs[:], attrs)
	s.attrDrop = len(attrs) > maxAttrs
	return Span{
		tr: t, slot: slot, gen: parent.gen, id: id,
		tid: parent.tid, flags: parent.flags, state: parent.state,
	}
}

// root opens the trace's root span (parent = the caller's remote span ID,
// zero when this process starts the trace) in the handle sp. Called by Start
// only, under the base reference.
func (t *Trace) root(remoteParent SpanID, name string, sp *Span) {
	t.refs.Add(1)
	s := &t.spans[0]
	t.n.Store(1)
	id := spanID(t.id, 0)
	s.id = id
	s.parent = remoteParent
	s.name = name
	s.start = time.Now()
	*sp = Span{
		tr: t, slot: 0, gen: t.gen.Load(), id: id,
		tid: t.id, flags: t.flags, state: t.state,
	}
}

// StartChild opens a child span of s. Safe on the nil span (returns nil)
// and on a finished trace (returns nil): instrumentation never needs to
// check whether tracing is live.
func (s *Span) StartChild(name string, attrs ...Attr) *Span {
	if s == nil || s.tr == nil {
		return nil
	}
	c := s.startChild(name, attrs)
	if c.tr == nil {
		return nil
	}
	return &c
}

// Child is StartChild for a span its caller holds by value instead of
// handing it down a context (ContextWith takes the *Span StartChild returns):
// the handle costs no allocation. Where StartChild returns nil, Child returns
// the zero Span, which is as inert.
func (s *Span) Child(name string, attrs ...Attr) Span {
	if s == nil || s.tr == nil {
		return Span{}
	}
	return s.startChild(name, attrs)
}

// ChildInterval records an already-measured child span in one call:
// start/duration come from an external clock (the scheduler's per-kind
// busy metrics, folded in after the run so the hot path pays nothing).
func (s *Span) ChildInterval(name string, start time.Time, d time.Duration, attrs ...Attr) {
	if s == nil || s.tr == nil {
		return
	}
	c := s.startChild(name, attrs)
	if c.tr == nil {
		return
	}
	sl := &c.tr.spans[c.slot]
	sl.start = start
	sl.dur = d
	c.End()
}

// SetAttr adds attributes to an open span. Must be called by the span's
// owner before End.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil || s.tr == nil || s.ended {
		return
	}
	sl := &s.tr.spans[s.slot]
	n := copy(sl.attrs[sl.nattrs:], attrs)
	sl.nattrs += n
	if n < len(attrs) {
		sl.attrDrop = true
	}
}

// Fail marks the span as errored with the given message.
func (s *Span) Fail(msg string) {
	if s == nil || s.tr == nil || s.ended {
		return
	}
	s.tr.spans[s.slot].status = msg
}

// End closes the span, fixing its duration, and drops its reference —
// possibly recycling the arena when it is the last one out of a sealed
// trace. Idempotent.
func (s *Span) End() {
	if s == nil || s.tr == nil || s.ended {
		return
	}
	s.ended = true
	sl := &s.tr.spans[s.slot]
	if sl.dur == 0 && !sl.start.IsZero() {
		sl.dur = time.Since(sl.start)
	}
	sl.committed.Store(true)
	s.tr.release()
}

// Context returns the span's propagation context (for injecting a
// traceparent into an outbound request). The zero SpanContext on the nil
// span.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.tid, SpanID: s.id, Flags: s.flags, State: s.state}
}

// TraceID returns the trace ID this span belongs to (zero on nil).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.tid
}

// snapshot collects the committed spans. Called by Finish under the base
// reference, after seal: open spans are skipped (their owners still hold
// references, and their half-written slots are fenced off behind the
// committed flag).
func (t *Trace) snapshot() []SpanData {
	n := int(t.n.Load())
	if n > maxSpans {
		n = maxSpans
	}
	out := make([]SpanData, 0, n)
	for i := 0; i < n; i++ {
		sl := &t.spans[i]
		if !sl.committed.Load() {
			continue
		}
		sd := SpanData{
			SpanID: sl.id, Parent: sl.parent, Name: sl.name,
			Start: sl.start, Duration: sl.dur, Status: sl.status,
		}
		if sl.nattrs > 0 {
			sd.Attrs = append([]Attr(nil), sl.attrs[:sl.nattrs]...)
		}
		out = append(out, sd)
	}
	return out
}

var arenaPool = sync.Pool{New: func() any { return new(Trace) }}

// idState seeds process-unique trace IDs: a random 128-bit base from
// crypto/rand mixed with a counter, so IDs are unpredictable across
// processes but cost one atomic add each.
var idState struct {
	once sync.Once
	hi   uint64
	lo   uint64
	ctr  atomic.Uint64
}

// NewTraceID returns a fresh non-zero 128-bit trace ID.
func NewTraceID() TraceID {
	idState.once.Do(func() {
		var b [16]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Fall back to the clock; IDs stay unique per process via ctr.
			binary.LittleEndian.PutUint64(b[:8], uint64(time.Now().UnixNano()))
		}
		idState.hi = binary.LittleEndian.Uint64(b[:8])
		idState.lo = binary.LittleEndian.Uint64(b[8:])
	})
	c := idState.ctr.Add(1)
	x := idState.lo + c*0x9e3779b97f4a7c15
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	var id TraceID
	binary.LittleEndian.PutUint64(id[:8], idState.hi)
	binary.LittleEndian.PutUint64(id[8:], x)
	if !id.IsValid() {
		id[0] = 1
	}
	return id
}

// SpanKey is the context key the current *Span travels under. ContextWith
// stores one; a context of its own that answers Value(SpanKey{}) with a
// *Span carries one without a context.WithValue.
type SpanKey struct{}

// ContextWith returns ctx carrying the span; instrumented layers below
// retrieve it with FromContext. A nil span stores nothing.
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, SpanKey{}, s)
}

// FromContext returns the span carried by ctx, nil when untraced. This is
// the single per-stage cost instrumentation pays when tracing is off.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(SpanKey{}).(*Span)
	return s
}
