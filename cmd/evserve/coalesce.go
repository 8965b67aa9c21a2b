package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"evprop"
	"evprop/internal/audit"
	"evprop/internal/obs/trace"
	"evprop/internal/registry"
)

// Server-side micro-batching: when -batch-window is set, /v1/batch
// sub-queries with identical evidence are coalesced into one propagation.
// The first sub-query of an evidence signature opens a group and becomes its
// leader; sub-queries arriving within the window ride along. When the window
// closes the leader runs a single all-posteriors propagation and every
// member projects its own requested variables from the shared result.
//
// This sits above the engine's own cache and singleflight: those collapse
// queries that are in flight *simultaneously*, the window additionally
// gathers queries that arrive spread over the window. The shared run is
// detached from the leader's request context — a leader whose client
// disconnects must not void its riders — but keeps the server's per-request
// timeout.
//
// Groups are keyed by (model version, evidence signature): two models may
// share variable names and therefore evidence signatures, and one model's
// versions may swap mid-window, so the version pointer itself is part of
// the key — riders only ever project from a propagation of the exact
// engine build their batch pinned.

// coalesceKey identifies one open window: the pinned model version and
// the evidence signature within it.
type coalesceKey struct {
	v   *registry.Version
	sig string
}

// coalescer groups same-version same-evidence sub-queries inside a batch
// window.
type coalescer struct {
	window time.Duration
	mu     sync.Mutex
	groups map[coalesceKey]*coalesceGroup
	// coalesced counts sub-queries that rode on another sub-query's
	// propagation instead of running their own.
	coalesced atomic.Int64
}

func newCoalescer(window time.Duration) *coalescer {
	return &coalescer{window: window, groups: map[coalesceKey]*coalesceGroup{}}
}

// coalesceGroup is one open window's shared run. done is closed exactly
// once, after which out is immutable and safe to read from any number of
// members.
type coalesceGroup struct {
	done chan struct{}
	// leader is the leader sub-query's span (nil when tracing is off):
	// riders link themselves under it, so the leader's trace shows every
	// query its one propagation answered. Written before the group is
	// published under co.mu, read by riders after that same lock.
	leader *trace.Span
	// out is the shared all-posteriors run's outcome; every member carves
	// its own answer out of it.
	out outcome
}

// coalesce answers one batch sub-query through the coalescer. It blocks for
// up to the batch window (plus the propagation) and fills in the sub-query's
// projected answer. o.v is the version the enclosing batch pinned; the batch
// holds its reference until every sub-query finishes, so the shared run's
// engine outlives the window.
func (s *server) coalesce(ctx context.Context, co *coalescer, o *outcome) {
	// The signature both validates the evidence and keys the group; queries
	// the engine would cache together are exactly the ones that share it.
	sig, err := o.v.Engine.EvidenceSignature(o.evidence, nil)
	if err != nil {
		o.err = err
		return
	}
	key := coalesceKey{v: o.v, sig: sig}
	sp := trace.FromContext(ctx)
	co.mu.Lock()
	g, rider := co.groups[key]
	if !rider {
		g = &coalesceGroup{done: make(chan struct{}), leader: sp,
			out: outcome{kind: audit.KindQuery, v: o.v, evidence: o.evidence}}
		co.groups[key] = g
		co.mu.Unlock()
		go s.runCoalesced(ctx, co, key, g)
	} else {
		co.mu.Unlock()
		co.coalesced.Add(1)
		// Cross-link the two traces: the rider's span records that it rode,
		// and the leader's trace gains a child naming the rider. The child
		// start is seal-safe — a leader that already finished (client gone)
		// simply yields no link.
		sp.SetAttr(trace.Bool("coalesced", true))
		if c := g.leader.StartChild("coalesced.rider",
			trace.String("rider.trace_id", sp.TraceID().String())); c != nil {
			c.End()
		}
	}
	select {
	case <-g.done:
	case <-ctx.Done():
		// This caller gives up; the shared run keeps going for the rest.
		o.err = ctx.Err()
		return
	}
	// The leader's answer cost what the shared run cost — its engine
	// records are the leader's. A rider was answered by a window-mate's
	// propagation, exactly like a cache hit.
	if rider {
		o.cached = true
	} else {
		o.runs, o.cached = g.out.runs, g.out.cached
	}
	if o.err = g.out.err; o.err == nil {
		o.err = projectQuery(o.v.Net, &g.out, o)
	}
}

// runCoalesced is the group leader: it holds the window open, then runs the
// one shared propagation and publishes its outcome. The run is detached from
// the leader's cancellation (riders depend on it) but re-bounded by the
// server's per-request timeout, and it keeps the leader's query ID and span
// so the flight-recorder entry and the trace correlate with the access log.
func (s *server) runCoalesced(leaderCtx context.Context, co *coalescer, key coalesceKey, g *coalesceGroup) {
	defer close(g.done)
	timer := time.NewTimer(co.window)
	defer timer.Stop()
	<-timer.C
	// Close enrollment before propagating: sub-queries arriving during the
	// propagation open a fresh window (and will typically hit the engine's
	// result cache).
	co.mu.Lock()
	delete(co.groups, key)
	co.mu.Unlock()

	runCtx := context.WithoutCancel(leaderCtx)
	if s.timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(runCtx, s.timeout)
		defer cancel()
	}
	s.propagate(runCtx, &g.out)
}

// projectQuery carves one sub-query's answer out of the group's shared
// all-posteriors outcome, mirroring a direct query's semantics: no requested
// variables means every non-evidence variable, and a requested variable that
// is itself evidence gets its exact one-hot posterior.
func projectQuery(net *evprop.Network, shared, o *outcome) error {
	o.pe = shared.pe
	if o.pe <= 0 || len(o.targets) == 0 {
		o.posteriors = shared.posteriors // empty when P(e) is zero
		return nil
	}
	o.posteriors = make(map[string][]float64, len(o.targets))
	for _, name := range o.targets {
		if p, ok := shared.posteriors[name]; ok {
			o.posteriors[name] = p
			continue
		}
		if state, ok := o.evidence[name]; ok {
			oneHot := make([]float64, net.States(name))
			oneHot[state] = 1
			o.posteriors[name] = oneHot
			continue
		}
		return fmt.Errorf("%w: %q", evprop.ErrUnknownVariable, name)
	}
	return nil
}
