package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// WindowSeconds is the span of the sliding window: 60 one-second buckets.
const WindowSeconds = 60

// windowBucket aggregates one second of traffic. All counters are atomics so
// concurrent request handlers never serialize; the mutex guards only the
// once-per-second rotation of a bucket to a new second.
type windowBucket struct {
	mu  sync.Mutex
	sec atomic.Int64 // unix second this bucket currently holds

	count   atomic.Int64
	errors  atomic.Int64
	latency [histBuckets + 1]atomic.Int64 // log-spaced latency buckets
	lbMilli atomic.Int64                  // sum of load-balance factors ×1000
	lbCount atomic.Int64
	// cacheHits and cacheLookups track the shared-evidence result cache:
	// lookups counts propagation-path queries, hits the ones served
	// without a propagation.
	cacheHits    atomic.Int64
	cacheLookups atomic.Int64
}

// Window is a sliding 60×1 s time series of request traffic: QPS, error
// rate, latency quantiles and the mean load-balance factor over the last
// minute, fed by one Observe per request. Rotation reuses buckets in place,
// so a Window allocates nothing after construction.
//
// The rotation is approximate under concurrency: an observation racing the
// bucket reset at a second boundary may land in either second or be lost.
// That skews a 60 s aggregate by at most a handful of requests — fine for
// monitoring, which is all this is for.
type Window struct {
	buckets [WindowSeconds]windowBucket
	// now is the clock, swappable by tests.
	now func() time.Time
}

// NewWindow returns a window reading the real clock.
func NewWindow() *Window { return &Window{now: time.Now} }

// bucketFor returns the bucket for the given unix second, rotating it away
// from a stale second first.
func (w *Window) bucketFor(sec int64) *windowBucket {
	b := &w.buckets[int(sec%WindowSeconds)]
	if b.sec.Load() != sec {
		b.mu.Lock()
		if b.sec.Load() != sec {
			b.count.Store(0)
			b.errors.Store(0)
			b.lbMilli.Store(0)
			b.lbCount.Store(0)
			b.cacheHits.Store(0)
			b.cacheLookups.Store(0)
			for i := range b.latency {
				b.latency[i].Store(0)
			}
			b.sec.Store(sec)
		}
		b.mu.Unlock()
	}
	return b
}

// Observe records one finished request. loadBalance ≤ 0 means the request
// ran no metered propagation and contributes nothing to the balance gauge.
func (w *Window) Observe(latency time.Duration, isError bool, loadBalance float64) {
	b := w.bucketFor(w.now().Unix())
	b.count.Add(1)
	if isError {
		b.errors.Add(1)
	}
	ns := latency.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	b.latency[histBucketOf(ns)].Add(1)
	if loadBalance > 0 {
		b.lbMilli.Add(int64(loadBalance * 1000))
		b.lbCount.Add(1)
	}
}

// ObserveCache records a request's result-cache outcome: lookups counts
// the request's cache-path queries and hits how many were served without a
// propagation. Requests that never consult the cache pass (0, 0) and
// contribute nothing.
func (w *Window) ObserveCache(hits, lookups int64) {
	if lookups <= 0 {
		return
	}
	b := w.bucketFor(w.now().Unix())
	b.cacheHits.Add(hits)
	b.cacheLookups.Add(lookups)
}

// WindowSnapshot summarizes the last WindowSeconds of traffic.
type WindowSnapshot struct {
	// Seconds is the window span.
	Seconds int
	// Requests and Errors count the window's traffic.
	Requests, Errors int64
	// QPS and ErrorRate are Requests/Seconds and Errors/Requests.
	QPS, ErrorRate float64
	// P50 and P99 are latency quantile upper bounds over the window.
	P50, P99 time.Duration
	// LoadBalance is the mean load-balance factor over the window (1 when
	// no propagation was metered).
	LoadBalance float64
	// QPSSeries is the per-second request count, oldest to newest; the last
	// entry is the current (incomplete) second.
	QPSSeries []int64
	// CacheHits and CacheLookups count the window's result-cache traffic;
	// CacheHitRate is their ratio (0 when nothing was looked up).
	CacheHits, CacheLookups int64
	CacheHitRate            float64
	// CacheHitRateSeries is the per-second hit rate, oldest to newest,
	// aligned with QPSSeries; seconds with no lookups report 0.
	CacheHitRateSeries []float64
}

// Snapshot aggregates the buckets still inside the window.
func (w *Window) Snapshot() WindowSnapshot {
	nowSec := w.now().Unix()
	s := WindowSnapshot{
		Seconds:            WindowSeconds,
		QPSSeries:          make([]int64, WindowSeconds),
		CacheHitRateSeries: make([]float64, WindowSeconds),
	}
	var latency [histBuckets + 1]int64
	var lbMilli, lbCount int64
	for i := range w.buckets {
		b := &w.buckets[i]
		sec := b.sec.Load()
		age := nowSec - sec
		if age < 0 || age >= WindowSeconds || sec == 0 {
			continue
		}
		n := b.count.Load()
		s.Requests += n
		s.Errors += b.errors.Load()
		s.QPSSeries[WindowSeconds-1-age] = n
		hits, lookups := b.cacheHits.Load(), b.cacheLookups.Load()
		s.CacheHits += hits
		s.CacheLookups += lookups
		if lookups > 0 {
			s.CacheHitRateSeries[WindowSeconds-1-age] = float64(hits) / float64(lookups)
		}
		for j := range latency {
			latency[j] += b.latency[j].Load()
		}
		lbMilli += b.lbMilli.Load()
		lbCount += b.lbCount.Load()
	}
	s.QPS = float64(s.Requests) / float64(WindowSeconds)
	if s.Requests > 0 {
		s.ErrorRate = float64(s.Errors) / float64(s.Requests)
	}
	if s.CacheLookups > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(s.CacheLookups)
	}
	// P50 and P99 are the upper bounds of the merged buckets holding them
	// (the Window counterpart of Histogram.Quantile), 0 when empty.
	if i := quantileBucket(latency[:], 0.50); i >= 0 {
		s.P50 = time.Duration(histUpperBoundNs(i))
		s.P99 = time.Duration(histUpperBoundNs(quantileBucket(latency[:], 0.99)))
	}
	if lbCount > 0 {
		s.LoadBalance = float64(lbMilli) / float64(lbCount) / 1000
	} else {
		s.LoadBalance = 1
	}
	return s
}
