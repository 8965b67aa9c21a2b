package core

import (
	"context"
	"fmt"
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
// A cache entry is the answers of one full run, read off its state once (pin),
// which then goes back to the pool; a reader that wants tables runs its own
// (Result.Tables).

// PropagateCachedContext is PropagateSoftContext through the result cache:
// a hit returns the shared cached result of an earlier identical
// propagation; a miss on a signature's first sight propagates privately and
// retains nothing (the caller's Release recycles the state), any later miss
// propagates once — collapsing concurrent identical misses into that one run —
// and caches its answers. The query's record is
// returned beside the result, not on it: a cached result is shared between
// readers, each of which has its own record. rec.Cached reports whether this
// call was served without starting its own propagation (a cache hit or a
// collapsed singleflight waiter). like may be nil for hard-only evidence; a
// cached entry keeps ev and like, which the caller must not modify after.
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
// so the two semirings never serve each other's answers.
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
		return e.propagateFull(ctx, ev, like, mode, "", targets)
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
		return e.propagateFull(ctx, ev, like, mode, sig, targets)
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
		res, rec, err := e.propagateFull(runCtx, ev, like, mode, sig, nil)
		if err != nil {
			return nil, err
		}
		res = e.pin(res, ev, like)
		e.cache.Add(sig, res, 8*int64(len(res.entry.answers)), gen)
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

// CacheStats is a snapshot of the result cache's counters. It is the public
// evprop.CacheStats and the cache block of a /v1/stats model row, so its
// fields' order is the JSON key order.
type CacheStats struct {
	// Enabled is false when the engine has no cache (CacheSize 0).
	Enabled bool `json:"enabled"`
	// Capacity is the most results the cache holds: Options.CacheSize
	// rounded down to a multiple of its 16 shards, and at least 16 (4 holds
	// 16, 40 holds 32). Entries is the current fill, never above Capacity.
	Capacity int `json:"capacity"`
	Entries  int `json:"entries"`
	// Bytes is what the entries hold: 8 bytes per state of every variable
	// (the posteriors), and per variable plus one for a max-product entry's
	// MPE — one size per semiring, whatever the evidence.
	Bytes int64 `json:"bytes"`
	// Hits and Misses count lookups over the engine's lifetime.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Collapsed counts queries served by another caller's in-flight
	// propagation: concurrent identical queries trigger one propagation, and
	// the other callers (singleflight waiters) land here.
	Collapsed int64 `json:"collapsed"`
	// FirstSight counts the misses that were the first sight of their
	// signature: they ran privately, on a recycled state, and left nothing
	// in the cache. Misses − FirstSight − Collapsed is what was cached.
	FirstSight int64 `json:"first_sight"`
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

// InvalidateCache drops every cached result and fences in-flight inserts:
// propagations started before the call can never re-populate the cache,
// so no query after InvalidateCache returns is served a pre-invalidation
// result. Results already handed out stay valid — they are immutable.
func (e *Engine) InvalidateCache() {
	if e.cache != nil {
		e.cache.Purge()
	}
}

// entry is a cached run's answers — every posterior at the engine's offsets,
// then for max-product the MPE's state per variable id and its value — or err,
// a read that failed (zero-probability evidence); ev and like rerun it (Tables).
type entry struct {
	mode    taskgraph.Mode
	ev      potential.Evidence
	like    potential.Likelihood
	answers []float64
	err     error
}

// pin reads every answer off a full run with the reads a private result takes,
// so no bit moves, and releases the run's state to the pool.
func (e *Engine) pin(res *Result, ev potential.Evidence, like potential.Likelihood) *Result {
	defer res.Release()
	mode, n := res.state.Mode(), len(e.offsets)-1
	size := e.offsets[n]
	if mode == taskgraph.MaxProduct {
		size += n + 1
	}
	en := &entry{mode: mode, ev: ev, like: like, answers: make([]float64, size)}
	for v := 0; v < n && en.err == nil; v++ {
		if lo, hi := e.offsets[v], e.offsets[v+1]; lo < hi {
			_, en.err = res.state.Marginal(v, en.answers[lo:hi:hi])
		}
	}
	if mode == taskgraph.MaxProduct && en.err == nil {
		assignment, value, err := res.MostProbableExplanation()
		mpe := en.answers[e.offsets[n]:]
		for v := range n {
			mpe[v] = float64(assignment[v])
		}
		mpe[n], en.err = value, err
	}
	return &Result{eng: e, pe: res.pe, entry: en}
}

// mpe is the entry's MPE and its value.
func (en *entry) mpe(offsets []int) (map[int]int, float64, error) {
	if en.mode != taskgraph.MaxProduct {
		return nil, 0, fmt.Errorf("core: MostProbableExplanation requires a PropagateMax result (state is %v)", en.mode)
	}
	if en.err != nil {
		return nil, 0, en.err
	}
	n := len(offsets) - 1
	mpe, assignment := en.answers[offsets[n]:], make(map[int]int, n)
	for v := range n {
		if offsets[v] < offsets[v+1] {
			assignment[v] = int(mpe[v])
		}
	}
	return assignment, mpe[n], nil
}

// Tables returns r, or for a cached result, which keeps no tables, a private
// full run of its evidence to the cached run's bits: the caller's to Release,
// recorded under first's ID and evidence as its Completion.
func (r *Result) Tables(first *obs.QueryRecord) (*Result, error) {
	en := r.entry
	if en == nil {
		return r, nil
	}
	ctx := obs.WithQueryID(context.Background(), first.ID)
	res, rec, err := r.eng.propagateFull(ctx, en.ev, en.like, en.mode, first.EvidenceSig, nil)
	if err != nil {
		return nil, err
	}
	res.completion = rec
	return res, nil
}
