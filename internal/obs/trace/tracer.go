package trace

import (
	"encoding/binary"
	"sync/atomic"
)

// Tracer owns the serving side of tracing: it hands out pooled span
// arenas per request, decides at request end whether to keep the trace
// (tail sampling), and fans kept traces into the bounded store and the
// optional OTLP exporter.
//
// Tail-sampling policy: a trace is always kept when its root span errored,
// when the request was slow (at or beyond the threshold the request was
// given by Trace.SetSlowThreshold — the adaptive 2× observed p99 the flight
// recorder of its model maintains), or when the caller explicitly flagged
// it (traceparent sampled bit). Everything else is
// head-sampled at SampleRate, decided deterministically from the trace ID
// so all participants of one distributed trace agree.
type Tracer struct {
	// SampleRate is the probabilistic head-sampling rate in [0, 1] for
	// traces not otherwise kept (default 0 = keep only slow/error/flagged).
	SampleRate float64
	// Store receives kept traces; nil discards them.
	Store *Store
	// Exporter receives kept traces for OTLP push; nil disables export.
	Exporter *Exporter

	started atomic.Int64 // requests traced
	kept    atomic.Int64 // traces kept by tail sampling
	spans   atomic.Int64 // spans dropped to arena overflow (lifetime)
}

// TracerStats is a snapshot of the tracer's lifetime counters.
type TracerStats struct {
	Started      int64 `json:"started"`
	Kept         int64 `json:"kept"`
	SpansDropped int64 `json:"spans_dropped"`
	StoreLen     int   `json:"store_len"`
}

// Stats snapshots the tracer's counters.
func (t *Tracer) Stats() TracerStats {
	if t == nil {
		return TracerStats{}
	}
	s := TracerStats{
		Started:      t.started.Load(),
		Kept:         t.kept.Load(),
		SpansDropped: t.spans.Load(),
	}
	if t.Store != nil {
		s.StoreLen = t.Store.Len()
	}
	return s
}

// headSampled decides head sampling deterministically from the trace ID's
// low 8 bytes, so retries and distributed peers agree on the verdict.
func (t *Tracer) headSampled(id TraceID) bool {
	if t.SampleRate <= 0 {
		return false
	}
	if t.SampleRate >= 1 {
		return true
	}
	x := binary.LittleEndian.Uint64(id[8:])
	// Map the rate onto the full uint64 range.
	return x < uint64(t.SampleRate*float64(1<<63)*2)
}

// StartRequest opens a trace for one request. When the caller supplied a
// valid parent, its trace ID, flags and tracestate carry over and the root
// span links to the remote parent; otherwise a fresh trace ID is minted
// and the head-sampling coin may set the sampled flag. Always returns a
// live arena — recording is unconditional, the keep decision is Finish's.
func (t *Tracer) StartRequest(name string, parent SpanContext) (*Trace, *Span) {
	if t == nil {
		return nil, nil
	}
	root := new(Span)
	return t.Start(name, parent, root), root
}

// Start is StartRequest opening the root span in a handle the caller owns,
// so that a server keeping it in its per-request record allocates none. The
// handle must not be reused for another request.
func (t *Tracer) Start(name string, parent SpanContext, root *Span) *Trace {
	t.started.Add(1)
	tr := arenaPool.Get().(*Trace)
	// The base reference: held by the request from here until Finish
	// releases it, so the arena can never recycle under live spans.
	tr.refs.Add(1)
	var remote SpanID
	if parent.IsValid() {
		tr.id = parent.TraceID
		tr.flags = parent.Flags
		tr.state = parent.State
		remote = parent.SpanID
	} else {
		tr.id = NewTraceID()
		if t.headSampled(tr.id) {
			tr.flags = FlagSampled
			tr.head = true
		}
	}
	tr.root(remote, name, root)
	return tr
}

// Finish seals the trace, applies tail sampling and either retains it
// (store + export) or forgets it, then drops the request's base reference,
// and reports whether it kept the trace. The arena returns to the pool only
// once every outstanding span has also ended (last reference out recycles),
// so stragglers of a detached run cannot corrupt a reused buffer. The root
// span must already be Ended.
func (t *Tracer) Finish(tr *Trace, root *Span) bool {
	if t == nil || tr == nil {
		return false
	}
	t.spans.Add(tr.dropped.Load())

	reason := ""
	if tr.flags&FlagSampled != 0 {
		if tr.head {
			reason = "head"
		} else {
			reason = "flagged"
		}
	}
	rootSlot := -1
	if root != nil && root.tr == tr {
		rootSlot = int(root.slot)
	}
	if rootSlot >= 0 {
		sl := &tr.spans[rootSlot]
		if sl.committed.Load() {
			if sl.status != "" {
				reason = "error"
			} else if reason == "" {
				if tr.slow > 0 && sl.dur >= tr.slow {
					reason = "slow"
				}
			}
		}
	}

	// Seal first: from here on StartChild returns the inert span.
	tr.phase.Store(arenaSealed)

	if reason != "" {
		t.kept.Add(1)
		td := &TraceData{
			TraceID: tr.id,
			Flags:   tr.flags,
			State:   tr.state,
			Reason:  reason,
			Dropped: tr.dropped.Load(),
			Spans:   tr.snapshot(),
		}
		if t.Store != nil {
			t.Store.Put(td)
		}
		if t.Exporter != nil {
			t.Exporter.Enqueue(td)
		}
	}

	// Drop the base reference. If no span is still open this recycles the
	// arena now; otherwise the last straggler's End recycles it later.
	tr.release()
	return reason != ""
}
