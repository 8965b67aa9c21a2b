package evprop

import (
	"context"
	"maps"
	"sync"
	"testing"

	"evprop/internal/audit"
	"evprop/internal/obs/trace"
	"evprop/internal/sched"
	"evprop/internal/taskgraph"
)

// servingEngine compiles the serving-benchmark workload: a mid-size random
// network queried with fixed evidence, as a server would under load.
func servingEngine(b *testing.B) (*Engine, Evidence) {
	return servingEngineOpts(b, Options{Workers: 4})
}

func servingEngineOpts(b *testing.B, opts Options) (*Engine, Evidence) {
	b.Helper()
	net := RandomNetwork(40, 2, 3, 7)
	eng, err := net.Compile(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close)
	vars := net.Variables()
	return eng, Evidence{vars[3]: 1, vars[17]: 0}
}

func benchConcurrentQuery(b *testing.B, eng *Engine, ev Evidence) {
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			res, err := eng.Propagate(ev)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := res.Posteriors(); err != nil {
				b.Fatal(err)
			}
			res.Close()
		}
	})
}

// BenchmarkConcurrentQuery measures the concurrent serving path: parallel
// client goroutines share one engine with no external lock, and each query
// is one pooled propagation from which P(e) and all posteriors derive.
// Compare against BenchmarkMutexSerializedQuery, the seed server's
// request path; run with -cpu 4 (or higher) for the serving contract.
func BenchmarkConcurrentQuery(b *testing.B) {
	eng, ev := servingEngine(b)
	benchConcurrentQuery(b, eng, ev)
}

// BenchmarkPropagateSmall is one propagation of the 40-node serving model at
// the load benchmark's P=2, on the path the granularity rule picks for it
// (inline) and, through the dispatch seam, on the pool it used to take. The
// allocs/op column does not move with host load: it is the companion number
// to the benchmark's small-miss throughput, and the inline row's is what a
// propagation costs when nothing is scheduled.
func BenchmarkPropagateSmall(b *testing.B) {
	for executor, dispatch := range map[string]bool{"inline": false, "pool": true} {
		b.Run(executor, func(b *testing.B) {
			net := RandomNetwork(40, 2, 3, 7)
			eng, err := net.compile(Options{Workers: 2}, seam(dispatch, 0))
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			vars := net.Variables()
			ev := Evidence{vars[3]: 1, vars[17]: 0}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.Propagate(ev)
				if err != nil {
					b.Fatal(err)
				}
				res.Close()
			}
		})
	}
}

// BenchmarkConcurrentQueryNoRecorder is the control for the always-on flight
// recorder: same workload with the recorder disabled. The delta between this
// and BenchmarkConcurrentQuery is the recorder's cost — the observability
// budget caps it at 2%.
func BenchmarkConcurrentQueryNoRecorder(b *testing.B) {
	eng, ev := servingEngineOpts(b, Options{Workers: 4, DisableFlightRecorder: true})
	benchConcurrentQuery(b, eng, ev)
}

// BenchmarkConcurrentQueryTraced is BenchmarkConcurrentQuery under the
// server's default tracing configuration (-trace on, 1% head sampling):
// every query runs inside a pooled span arena with pipeline-stage spans
// (absorb, propagate, per-kind children), and tail sampling decides
// retention at Finish. The delta against BenchmarkConcurrentQuery is the
// tracing hot-path cost — the observability budget caps it at 1%.
func BenchmarkConcurrentQueryTraced(b *testing.B) {
	eng, ev := servingEngine(b)
	tracer := &trace.Tracer{SampleRate: 0.01, Store: trace.NewStore(trace.DefaultStoreSize)}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := context.Background()
		for pb.Next() {
			arena, root := tracer.StartRequest("/v1/models/{name}/query", trace.SpanContext{})
			res, err := eng.PropagateContext(trace.ContextWith(ctx, root), ev)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := res.Posteriors(); err != nil {
				b.Fatal(err)
			}
			res.Close()
			root.End()
			tracer.Finish(arena, root)
		}
	})
}

// BenchmarkConcurrentQueryPprofLabels is BenchmarkConcurrentQuery with the
// opt-in pprof worker labels on (as under evserve -pprof). The delta
// against BenchmarkConcurrentQuery is what profiling segmentation costs
// while the profile endpoints are exposed; the default path never pays it.
func BenchmarkConcurrentQueryPprofLabels(b *testing.B) {
	eng, ev := servingEngineOpts(b, Options{Workers: 4, PprofLabels: true})
	benchConcurrentQuery(b, eng, ev)
}

// BenchmarkConcurrentQueryAudited is BenchmarkConcurrentQuery with the full
// durable-audit pipeline attached, as under evserve -audit-dir: every query
// additionally builds an audit record (cloned evidence + the response's
// posteriors) and enqueues it on the wait-free ring, with the drainer
// spilling Merkle-chained batches to disk in the background. The delta against BenchmarkConcurrentQuery is the
// audit pipeline's hot-path cost — budgeted at 1%.
func BenchmarkConcurrentQueryAudited(b *testing.B) {
	eng, ev := servingEngine(b)
	store, err := audit.OpenFileStore(b.TempDir(), audit.FileStoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	w, err := audit.NewWriter(store, audit.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	})
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			res, err := eng.Propagate(ev)
			if err != nil {
				b.Fatal(err)
			}
			post, err := res.Posteriors()
			if err != nil {
				b.Fatal(err)
			}
			pe := res.ProbabilityOfEvidence()
			res.Close()
			w.Enqueue(&audit.Record{
				Kind:       audit.KindQuery,
				Model:      "small40",
				Version:    1,
				Evidence:   maps.Clone(ev),
				PEvidence:  pe,
				Posteriors: post,
			})
		}
	})
}

// BenchmarkCachedQuery is BenchmarkConcurrentQuery with the shared-evidence
// result cache on: after the first iterations every query is a cache hit on
// the same entry, whose posteriors it slices, the skewed-traffic
// serving case the cache exists for. The ratio to BenchmarkConcurrentQuery
// is the repeated-evidence speedup.
func BenchmarkCachedQuery(b *testing.B) {
	eng, ev := servingEngineOpts(b, Options{Workers: 4, CacheSize: 1024})
	benchConcurrentQuery(b, eng, ev)
}

// BenchmarkCachedMiss is the cache's cost side: never-repeating evidence
// through a 32-entry cache (the load benchmark's setting). Every query is the
// first sight of its signature, so it propagates on a recycled state and
// caches nothing: B/op is the bookkeeping of one run (tens of kB — the 2.4 MB of
// tables a wide60 miss allocated when every miss was pinned must not show), and
// pinned-B, what the cache holds at the end, is 0. Neither moves with host
// load, which makes them the companions of the load benchmark's wide-miss peak
// RSS. The models are that benchmark's mid60 and wide60.
func BenchmarkCachedMiss(b *testing.B) {
	for _, m := range []struct {
		name    string
		parents int
	}{{"mid60", 4}, {"wide60", 5}} {
		b.Run(m.name, func(b *testing.B) {
			net := RandomNetwork(60, 2, m.parents, 7)
			eng, err := net.Compile(Options{Workers: 2, CacheSize: 32})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			vars := net.Variables()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := Evidence{}
				for bit := 0; bit < 20; bit++ {
					ev[vars[3*bit]] = i >> bit & 1
				}
				res, err := eng.Propagate(ev)
				if err != nil {
					b.Fatal(err)
				}
				if res.Cached() {
					b.Fatal("never-repeating evidence hit the cache")
				}
				res.Close()
			}
			b.StopTimer()
			b.ReportMetric(float64(eng.CacheStats().Bytes), "pinned-B")
		})
	}
}

// BenchmarkSingleflightStorm measures the collapse path: each iteration
// empties the cache and slams 8 concurrent identical queries into the
// engine, so one propagates and the rest ride the singleflight. Compare one
// iteration against 8× a single cold propagation.
func BenchmarkSingleflightStorm(b *testing.B) {
	eng, ev := servingEngineOpts(b, Options{Workers: 4, CacheSize: 1024})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.InvalidateCache()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := eng.Propagate(ev)
				if err != nil {
					b.Error(err)
					return
				}
				if _, err := res.Posteriors(); err != nil {
					b.Error(err)
				}
				res.Close()
			}()
		}
		wg.Wait()
	}
}

// BenchmarkMutexSerializedQuery reproduces the original server's request
// path as a baseline: a global mutex serializes queries, and each query
// costs two propagations (one for P(e), one for the posteriors), each with
// freshly allocated propagation state and transiently spawned workers —
// exactly what Engine.Propagate did before pooling.
func BenchmarkMutexSerializedQuery(b *testing.B) {
	eng, ev := servingEngine(b)
	g := eng.inner.Graph()
	iev, err := eng.net.evidence(ev)
	if err != nil {
		b.Fatal(err)
	}
	threshold := eng.inner.Options().PartitionThreshold
	propagate := func() *taskgraph.State {
		st, err := g.NewStateMode(taskgraph.SumProduct)
		if err != nil {
			b.Fatal(err)
		}
		if err := st.AbsorbEvidence(iev); err != nil {
			b.Fatal(err)
		}
		pool, err := sched.NewPool(4)
		if err != nil {
			b.Fatal(err)
		}
		defer pool.Close()
		if _, err := pool.Run(st, sched.Options{Threshold: threshold}); err != nil {
			b.Fatal(err)
		}
		return st
	}
	var mu sync.Mutex
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			mu.Lock()
			// Propagation 1: P(e), as the seed handler's first call.
			st := propagate()
			_ = st.Clique[g.Tree.Root].Sum()
			// Propagation 2: posteriors for every non-evidence variable.
			st = propagate()
			for v := 0; v < eng.net.inner.N(); v++ {
				if _, fixed := iev[v]; fixed {
					continue
				}
				if _, err := st.Marginal(v, nil); err != nil {
					b.Fatal(err)
				}
			}
			mu.Unlock()
		}
	})
}
