package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	cases := []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {95, 10}, {100, 10}, {10, 1}, {1, 1},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// fakeClock advances only when told to: sleeping jumps to the wake time,
// plus an overshoot when the test wants a sluggish generator.
type fakeClock struct {
	now       time.Time
	overshoot time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t.Add(c.overshoot)
	}
}

// One stalled request in an open loop must show in the latency of the
// requests that were due while it was stalled, not only in its own: that is
// what timing from the due time is for.
func TestPacedLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	const interval = 10 * time.Millisecond
	service := func(i int) time.Duration {
		if i == 2 {
			return 35 * time.Millisecond // the stall
		}
		return time.Millisecond
	}
	i := 0
	do := func() (time.Time, bool) {
		clk.now = clk.now.Add(service(i))
		i++
		return clk.now, true
	}
	got := pacedLoop(clk, start, interval, 0, 1, 8, do)

	// Request 2 is due at 20 ms and done at 55 ms. Requests 3, 4 and 5 were
	// due at 30, 40 and 50 ms but leave at 55, 56 and 57 ms. None of that is
	// the generator's delay: it sent each the moment its sender was free.
	wantLatency := []time.Duration{1, 1, 35, 26, 17, 8, 1, 1}
	if len(got) != len(wantLatency) {
		t.Fatalf("got %d samples, want %d", len(got), len(wantLatency))
	}
	for k, s := range got {
		if s.latency != wantLatency[k]*time.Millisecond {
			t.Errorf("request %d: latency %v, want %v ms", k, s.latency, wantLatency[k])
		}
		if s.late != 0 {
			t.Errorf("request %d: late %v, want 0", k, s.late)
		}
	}
}

// A generator that wakes late is late, and its delay is in the latency too.
func TestPacedLoopReportsGeneratorDelay(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0), overshoot: 2 * time.Millisecond}
	start := clk.now.Add(10 * time.Millisecond)
	do := func() (time.Time, bool) {
		clk.now = clk.now.Add(time.Millisecond)
		return clk.now, true
	}
	for k, s := range pacedLoop(clk, start, 10*time.Millisecond, 0, 1, 3, do) {
		if s.late != 2*time.Millisecond || s.latency != 3*time.Millisecond {
			t.Errorf("request %d: late %v latency %v, want 2ms and 3ms", k, s.late, s.latency)
		}
	}
}

// Two senders split the schedule by parity and never send early.
func TestPacedLoopStride(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	var sentAt []time.Duration
	do := func() (time.Time, bool) {
		sentAt = append(sentAt, clk.now.Sub(start))
		return clk.now, true
	}
	pacedLoop(clk, start, 10*time.Millisecond, 1, 2, 6, do)
	want := []time.Duration{10 * time.Millisecond, 30 * time.Millisecond, 50 * time.Millisecond}
	if len(sentAt) != len(want) {
		t.Fatalf("sent %d requests, want %d", len(sentAt), len(want))
	}
	for k := range want {
		if sentAt[k] != want[k] {
			t.Errorf("send %d at %v, want %v", k, sentAt[k], want[k])
		}
	}
}

func TestClosedLoopStopsAtDeadline(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	deadline := clk.now.Add(10 * time.Millisecond)
	do := func() (time.Time, bool) {
		clk.now = clk.now.Add(3 * time.Millisecond)
		return clk.now, true
	}
	// Starts at 0, 3, 6 and 9 ms are before the deadline; 12 ms is not.
	if got := closedLoop(clk, deadline, do); len(got) != 4 {
		t.Errorf("closed loop made %d requests, want 4", len(got))
	}
}
