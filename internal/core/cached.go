package core

import (
	"context"
	"time"

	"evprop/internal/cache"
	"evprop/internal/obs"
	otrace "evprop/internal/obs/trace"
	"evprop/internal/potential"
	"evprop/internal/taskgraph"
)

// The shared-evidence result cache: serving traffic is heavily skewed
// toward a small set of evidence configurations, so completed propagation
// results are retained in a sharded LRU keyed by the canonical signature of
// (semiring mode, hard evidence, soft evidence), and concurrent queries
// with one signature collapse into a single propagation via a
// context-aware singleflight group.
//
// Admission is on second sight: the first lookup of a signature (as far as the
// cache's Doorkeeper remembers) runs as on an engine without a cache — its own
// propagation, on a recycled state, nothing retained — and only from the second
// on is a miss collapsed, pinned and added. A signature nobody repeats therefore
// costs the cache nothing, and N identical queries of a cold one cost min(N, 2)
// propagations however they interleave: the first sight skips the singleflight
// so that the count is exact, not "one, or two when the herd straddles it".
//
// Cached results are *pinned*: their result tables never return to the
// engine's state pool, so any number of concurrent readers may derive
// posteriors from one shared result while later propagations recycle
// other states freely. What an entry retains is those tables and nothing
// else — 8 bytes per entry of the clique and separator tables as sliced on the
// result's evidence, at most Engine.ResultBytes (the run that will be pinned
// never takes a recycled state, see absorb); the run scratch went back to
// the task graph's pool when the run succeeded, before the result was pinned,
// and later misses run on it. Eviction and
// invalidation simply drop the pinned result — readers still holding it keep
// valid immutable data, and the garbage collector reclaims it when the last
// reader lets go.

// PropagateCachedContext is PropagateSoftContext through the result cache:
// a hit returns the shared pinned result of an earlier identical
// propagation; a miss on a signature's first sight propagates privately and
// retains nothing (the caller's Release recycles the state), any later miss
// propagates once — collapsing concurrent identical misses into that one run —
// and caches the result. The query's record is
// returned beside the result, not on it: a pinned result is shared between
// readers, each of which has its own record. rec.Cached reports whether this
// call was served without starting its own propagation (a cache hit or a
// collapsed singleflight waiter). like may be nil for hard-only evidence.
// Engines compiled without a cache fall back to a plain propagation with
// rec.Cached == false.
//
// A waiter's cancellation is its own: the shared propagation keeps running
// for the other waiters and is cancelled only when none remain.
// targets (none: every variable; empty, non-nil: P(e) alone) shape a private
// run only, never what a read returns (propagateFull).
func (e *Engine) PropagateCachedContext(ctx context.Context, ev potential.Evidence, like potential.Likelihood, targets ...int) (*Result, *obs.QueryRecord, error) {
	return e.propagateCached(ctx, ev, like, taskgraph.SumProduct, targets)
}

// PropagateMaxCachedContext is PropagateMaxContext through the result
// cache. Sum- and max-product results are keyed under distinct signatures,
// so the two semirings never serve each other's tables.
func (e *Engine) PropagateMaxCachedContext(ctx context.Context, ev potential.Evidence) (*Result, *obs.QueryRecord, error) {
	return e.propagateCached(ctx, ev, nil, taskgraph.MaxProduct, nil)
}

// flown is what the singleflight leader's run hands back: the shared
// result for everyone, the run's record for the leader alone.
type flown struct {
	res *Result
	rec *obs.QueryRecord
}

func (e *Engine) propagateCached(ctx context.Context, ev potential.Evidence, like potential.Likelihood, mode taskgraph.Mode, targets []int) (*Result, *obs.QueryRecord, error) {
	if e.cache == nil {
		return e.propagateFull(ctx, ev, like, mode, "", false, targets)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	sp := otrace.FromContext(ctx)
	var sigBuf [128]byte // a hit reads the signature the cache holds
	key := cache.AppendSignature(sigBuf[:0], byte(mode), ev, like)
	lsp := sp.Child("cache.lookup")
	if v, sig, ok := e.cache.Lookup(key); ok {
		lsp.SetAttr(otrace.Bool("cache.hit", true))
		lsp.End()
		return v.(*Result), e.recordCached(ctx, mode, sig, ev, start), nil
	}
	sig := string(key)
	first := !e.door.Seen(sig)
	lsp.SetAttr(otrace.Bool("cache.hit", false), otrace.Bool("cache.first_sight", first))
	lsp.End()
	if first {
		e.firstSight.Add(1)
		return e.propagateFull(ctx, ev, like, mode, sig, false, targets)
	}
	// A caller that has already given up must not start a shared run only
	// to abandon it (propagateFull makes the same check for direct runs).
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// The generation is read before the propagation starts: should an
	// InvalidateCache land while the run is in flight, the Add below is
	// dropped and the (potentially stale) result is never cached.
	gen := e.cache.Generation()
	fsp := sp.Child("singleflight")
	v, err, shared := e.flight.Do(ctx, sig, func(runCtx context.Context) (any, error) {
		// The lookup above and joining the flight are two steps: the previous
		// leader for sig may have published its result and left in between.
		if v, ok := e.cache.Peek(sig); ok {
			return flown{res: v.(*Result)}, nil
		}
		res, rec, err := e.propagateFull(runCtx, ev, like, mode, sig, true, nil)
		if err != nil {
			return nil, err
		}
		e.cache.Add(sig, res, res.retainedBytes(), gen)
		return flown{res, rec}, nil
	})
	// A leader whose second look found the result rode another caller's run
	// as much as a waiter did.
	f, _ := v.(flown)
	shared = shared || (err == nil && f.rec == nil)
	if shared {
		fsp.SetAttr(otrace.String("role", "waiter"))
	} else {
		fsp.SetAttr(otrace.String("role", "leader"))
	}
	if err != nil {
		fsp.Fail(err.Error())
	}
	fsp.End()
	if err != nil {
		return nil, nil, err
	}
	if shared {
		e.collapsed.Add(1)
		f.rec = e.recordCached(ctx, mode, sig, ev, start)
	}
	return f.res, f.rec, nil
}

// recordCached builds and publishes a cache-served query's record. No
// scheduler ran, so it carries no report.
func (e *Engine) recordCached(ctx context.Context, mode taskgraph.Mode, sig string, ev potential.Evidence, start time.Time) *obs.QueryRecord {
	rec := e.newRecord(ctx, mode.String(), mode, ev, nil, sig)
	rec.Cached = true
	rec.Time = time.Now()
	rec.Elapsed = rec.Time.Sub(start)
	if fr := e.opts.Recorder; fr != nil {
		fr.Record(rec)
	}
	return rec
}

// EvidenceSignature returns the sum-product cache key of an evidence
// configuration — the signature under which PropagateCachedContext would
// look it up.
func (e *Engine) EvidenceSignature(ev potential.Evidence, like potential.Likelihood) string {
	return cache.Signature(byte(taskgraph.SumProduct), ev, like)
}

// CacheStats is a snapshot of the result cache's counters.
type CacheStats struct {
	// Enabled is false when the engine has no cache (CacheSize 0).
	Enabled bool
	// Capacity is the most results the cache holds — Options.CacheSize
	// rounded to whole entries per shard (cache.LRU.Cap), so it can differ
	// from the configured number — and Entries its current fill.
	Capacity, Entries int
	// Bytes is what the entries pin: the sum, over the live entries, of 8
	// bytes per table entry each result retains. An eager result's tables are
	// sliced on its evidence, so entries differ in size and none exceeds
	// ResultBytes; a lazy result is charged ResultBytes, an upper bound — its
	// overlays clone only the tables the evidence perturbs.
	Bytes int64
	// Hits and Misses count lookups; Collapsed counts queries served by
	// another caller's in-flight propagation (singleflight waiters);
	// FirstSight counts the misses that were the first sight of their
	// signature and so ran privately, retaining nothing.
	Hits, Misses, Collapsed, FirstSight int64
}

// CacheStats returns the result cache's counters (zero value when the
// engine has no cache).
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	entries, bytes := e.cache.Fill()
	return CacheStats{
		Enabled:    true,
		Capacity:   e.cache.Cap(),
		Entries:    entries,
		Bytes:      bytes,
		Hits:       e.cache.Hits(),
		Misses:     e.cache.Misses(),
		Collapsed:  e.collapsed.Load(),
		FirstSight: e.firstSight.Load(),
	}
}

// ResultBytes is the size of one propagation result's tables at the full
// domain: 8 bytes per clique and separator entry of the engine's tree. It is
// the ceiling of what a held Result, and so a cache entry, keeps alive — what
// a result without evidence costs; hard evidence slices the tables, and a
// result then retains Π(unobserved cardinalities) entries per table.
func (e *Engine) ResultBytes() int64 { return e.resultBytes }

// retainedBytes is what holding the result costs once its run scratch is
// released: its state's tables for an eager result, the full-domain ceiling for
// a lazy one.
func (r *Result) retainedBytes() int64 {
	if st, ok := r.state.(*taskgraph.State); ok {
		return 8 * int64(st.RetainedEntries())
	}
	return r.eng.resultBytes
}

// InvalidateCache drops every cached result and fences in-flight inserts:
// propagations started before the call can never re-populate the cache,
// so no query after InvalidateCache returns is served a pre-invalidation
// result. Results already handed out stay valid — they are immutable.
func (e *Engine) InvalidateCache() {
	if e.cache != nil {
		e.cache.Purge()
	}
}
