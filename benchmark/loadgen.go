package main

import (
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
)

// clock is the time source of the senders; tests substitute a fake one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// SleepUntil blocks the sender's thread in nanosleep(2). time.Sleep would
// do for long waits, but an idle Go process wakes its timers from an
// epoll_wait whose timeout is whole milliseconds, so every paced send would
// leave about half a millisecond late.
func (wallClock) SleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR (runtime signals) just loops
	}
}

// sample is one request's outcome as the sender timed it.
type sample struct {
	// latency runs from the request's send time in a closed loop and from
	// its due time in the open loop, to the decoded response.
	latency time.Duration
	// late is how long an open-loop request left after it could have: after
	// its due time or, if later, after its sender's previous response. Being
	// held up by a slow response is the server's doing and is already in
	// latency; late is the generator's own delay.
	late time.Duration
	ok   bool
}

// lateLimit is the send delay beyond which an open-loop request counts as
// late: a generator that runs this far behind is measuring itself.
const lateLimit = 5 * time.Millisecond

// doFunc issues one request and returns when its response was decoded and
// whether it succeeded. Checks that should stay off the clock run inside it
// after the returned instant.
type doFunc func() (done time.Time, ok bool)

// closedLoop runs one sender that issues its next request as soon as the
// previous one completes, until the deadline.
func closedLoop(clk clock, deadline time.Time, do doFunc) []sample {
	var out []sample
	for {
		start := clk.Now()
		if !start.Before(deadline) {
			return out
		}
		done, ok := do()
		out = append(out, sample{latency: done.Sub(start), ok: ok})
	}
}

// pacedLoop is one sender of an open loop: request i of the phase is due at
// start + i*interval, and this sender owns requests first, first+stride, …
// below n. It never sends early; when it is behind (the previous request
// stalled) it sends at once, and because latency is timed from the due
// time, the stall shows in every request it delayed.
func pacedLoop(clk clock, start time.Time, interval time.Duration, first, stride, n int, do doFunc) []sample {
	out := make([]sample, 0, (n-first+stride-1)/stride)
	for i := first; i < n; i += stride {
		due := start.Add(time.Duration(i) * interval)
		ready := due
		if free := clk.Now(); free.After(due) {
			ready = free // held up by the previous response, not by the generator
		}
		clk.SleepUntil(due)
		sent := clk.Now()
		done, ok := do()
		out = append(out, sample{latency: done.Sub(due), late: sent.Sub(ready), ok: ok})
	}
	return out
}

// fanOut runs one function per sender concurrently and concatenates their
// samples. The senders are the only goroutines that touch the server while
// a round is being timed.
func fanOut(senders int, run func(sender int) []sample) []sample {
	parts := make([][]sample, senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			parts[s] = run(s)
		}(s)
	}
	wg.Wait()
	var all []sample
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs,
// which it does not modify; NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle value (mean of the two middle values for an even
// count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func latenciesMs(ss []sample) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if s.ok {
			out = append(out, float64(s.latency)/1e6)
		}
	}
	return out
}

func countOK(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.ok {
			n++
		}
	}
	return n
}

// referenceLoop times a fixed piece of arithmetic in microseconds: the
// median of three passes, about a millisecond in all. It is read before and
// after a workload and reported (loadgen.ref_us_start, loadgen.ref_us_end) so
// that a host-speed shift can be told from a code change. Nothing is scaled
// by it: a cache-resident loop slows by half when the host is busy, a
// request by a quarter, and a 1 ms reading is mostly noise. The end-to-end
// run scales by the reference server, see refserver.go.
func referenceLoop() float64 {
	passes := make([]float64, 3)
	for p := range passes {
		start := time.Now()
		acc := 0.0
		for rep := 0; rep < 8; rep++ {
			for i, v := range referenceData {
				acc += v * float64(i&7)
			}
		}
		passes[p] = float64(time.Since(start)) / 1e3
		referenceSink = acc
	}
	return median(passes)
}

// referenceData is the loop's input, 512 KiB: it fits the L2 cache, so the
// loop tracks core speed and not memory traffic.
var referenceData = func() []float64 {
	buf := make([]float64, 1<<16)
	for i := range buf {
		buf[i] = float64(i%97) + 0.5
	}
	return buf
}()

// referenceSink keeps the compiler from discarding the loop's result.
var referenceSink float64
