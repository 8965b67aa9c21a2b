package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: log-spaced powers of two starting at 1 µs.
// Bucket 0 covers (0, 1µs]; bucket i covers (1µs·2^(i-1), 1µs·2^i]; the
// final bucket is the +Inf overflow. 28 finite buckets reach ≈134 s, far
// past any sane request latency.
const (
	histBaseNs  = 1000 // first finite upper bound, 1 µs in ns
	histBuckets = 28   // finite buckets; counts has one more for +Inf
)

// Histogram is a lock-free bucketed latency histogram: Observe is two
// atomic adds and a CAS-free max update, so concurrent request handlers
// never serialize on it. It replaces the sum/max pair the server used to
// keep, adding percentile queries at the cost of log-spaced bucket
// resolution (quantiles are reported as the upper bound of the bucket the
// rank falls in, an overestimate of at most 2×).
type Histogram struct {
	counts [histBuckets + 1]atomic.Int64
	sum    atomic.Int64 // ns
	max    atomic.Int64 // ns
	// exemplars holds each bucket's most recent kept-trace observation
	// (OpenMetrics exemplar semantics): last write wins, so a scrape links
	// a populated latency bucket to a representative trace.
	exemplars [histBuckets + 1]atomic.Pointer[Exemplar]
}

// Exemplar links one observation to the distributed trace that produced
// it, rendered as the OpenMetrics `# {trace_id="…"} value timestamp`
// trailer on histogram bucket lines.
type Exemplar struct {
	TraceID string
	Value   float64 // the observation, in seconds
	Ts      time.Time
}

// histBucketOf returns the bucket index for a latency in nanoseconds.
func histBucketOf(ns int64) int {
	if ns <= histBaseNs {
		return 0
	}
	// ns lies in (histBaseNs·2^(i-1), histBaseNs·2^i] for the returned i.
	i := bits.Len64(uint64((ns - 1) / histBaseNs))
	if i > histBuckets {
		return histBuckets
	}
	return i
}

// histUpperBoundNs returns bucket i's inclusive upper bound in ns, or
// math.MaxInt64 for the overflow bucket.
func histUpperBoundNs(i int) int64 {
	if i >= histBuckets {
		return math.MaxInt64
	}
	return histBaseNs << uint(i)
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.counts[histBucketOf(ns)].Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// SetExemplar makes one observed latency the exemplar of the bucket it
// was counted in, naming the trace that produced it. Callers set one only
// for a trace they know is kept, so every exemplar a scrape shows resolves.
func (h *Histogram) SetExemplar(d time.Duration, traceID string) {
	ns := max(d.Nanoseconds(), 0)
	h.exemplars[histBucketOf(ns)].Store(&Exemplar{
		TraceID: traceID,
		Value:   float64(ns) / 1e9,
		Ts:      time.Now(),
	})
}

// BucketExemplar returns bucket i's exemplar, nil when none was set in
// that bucket.
func (h *Histogram) BucketExemplar(i int) *Exemplar {
	if i < 0 || i > histBuckets {
		return nil
	}
	return h.exemplars[i].Load()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the total of all observed latencies.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Max returns the largest observed latency.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Mean returns the average observed latency, 0 when empty.
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile returns an upper bound on the q-quantile latency (q in [0,1]):
// the upper bound of the bucket holding the rank-⌈q·n⌉ observation. It
// returns 0 for an empty histogram — the observed == 0 guard that keeps a
// fresh server's stats free of 0/0 NaNs — and Max for ranks landing in the
// overflow bucket.
func (h *Histogram) Quantile(q float64) time.Duration {
	var counts [histBuckets + 1]int64
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range counts {
		cum += counts[i]
		if cum >= rank {
			if i >= histBuckets {
				return h.Max()
			}
			ub := histUpperBoundNs(i)
			// Never report a bound above the observed maximum.
			if m := h.max.Load(); m > 0 && ub > m {
				return time.Duration(m)
			}
			return time.Duration(ub)
		}
	}
	return h.Max()
}

// Buckets returns a copy of the cumulative bucket counts and their upper
// bounds in seconds, the shape Prometheus histograms expose. The final
// entry is the +Inf bucket (bound reported as math.Inf(1)).
func (h *Histogram) Buckets() (bounds []float64, cumulative []int64) {
	bounds = make([]float64, histBuckets+1)
	cumulative = make([]int64, histBuckets+1)
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		cumulative[i] = cum
		if i < histBuckets {
			bounds[i] = float64(histUpperBoundNs(i)) / 1e9
		} else {
			bounds[i] = math.Inf(1)
		}
	}
	return bounds, cumulative
}
