package evclient

import (
	"context"
	"crypto/rand"
	"net/http"
	"net/url"
	"time"

	"evprop/internal/obs/trace"
)

// W3C Trace Context support: callers attach a traceparent to the request
// context and every evclient call injects it, so evserve adopts the
// caller's trace ID instead of minting its own. Mint one with
// NewTraceparent, pass the sampled form to force tail sampling to keep the
// trace, then fetch the finished span tree back with Trace.
//
//	tp, id := evclient.NewTraceparent(true)
//	resp, err := c.Query(evclient.WithTraceparent(ctx, tp), model, ev)
//	tr, err := c.Trace(ctx, id)

type traceparentKey struct{}

// WithTraceparent returns a context carrying a W3C traceparent header
// value (`00-<32 hex trace id>-<16 hex span id>-<2 hex flags>`); every
// request made with the returned context sends it.
func WithTraceparent(ctx context.Context, traceparent string) context.Context {
	return context.WithValue(ctx, traceparentKey{}, traceparent)
}

// NewTraceparent mints a fresh traceparent and returns it with its 32-char
// hex trace ID. sampled sets the W3C sampled flag, which evserve's tail
// sampler treats as "always keep" — use it when you intend to fetch the
// trace back, leave it false to let the server's own sampling decide.
func NewTraceparent(sampled bool) (traceparent, traceID string) {
	var b [24]byte // 16-byte trace ID + 8-byte span ID
	if _, err := rand.Read(b[:]); err != nil {
		// The clock is a fine fallback: uniqueness, not secrecy, is the
		// requirement here.
		now := time.Now().UnixNano()
		for i := range b {
			b[i] = byte(now >> (8 * (i % 8)))
		}
	}
	sc := trace.SpanContext{TraceID: trace.TraceID(b[:16]), SpanID: trace.SpanID(b[16:])}
	if !sc.TraceID.IsValid() {
		sc.TraceID[0] = 1 // the all-zero trace ID is invalid per spec
	}
	if !sc.SpanID.IsValid() {
		sc.SpanID[0] = 1
	}
	if sampled {
		sc.Flags = trace.FlagSampled
	}
	return sc.Traceparent(), sc.TraceID.String()
}

// injectTraceparent copies the context's traceparent, if any, onto the
// outgoing request.
func injectTraceparent(ctx context.Context, req *http.Request) {
	if tp, ok := ctx.Value(traceparentKey{}).(string); ok && tp != "" {
		req.Header.Set("traceparent", tp)
	}
}

// Trace fetches one kept trace by its 32-char hex trace ID. Traces land in
// the store a beat after the response that produced them (the root span
// finishes after the body is written), and tail sampling only retains
// flagged, failed or slow traces — expect ErrTraceNotFound otherwise.
func (c *Client) Trace(ctx context.Context, id string) (*TraceResponse, error) {
	var out TraceResponse
	if err := c.get(ctx, "/v1/debug/trace?id="+url.QueryEscape(id), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RecentTraces lists the most recently kept trace IDs, newest first.
func (c *Client) RecentTraces(ctx context.Context) ([]string, error) {
	var out TraceList
	if err := c.get(ctx, "/v1/debug/trace", &out); err != nil {
		return nil, err
	}
	return out.Recent, nil
}
