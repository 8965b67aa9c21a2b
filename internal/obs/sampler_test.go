package obs

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSamplerLatestAndRecent: no sample before the first, then the most
// recent one taken, its sequence number counting every sample before it.
func TestSamplerLatestAndRecent(t *testing.T) {
	var n atomic.Int64
	s := NewSampler(time.Hour, func() int64 { return n.Add(1) })
	if sm, ok := s.Latest(); ok {
		t.Fatalf("latest before any sample = %+v", sm)
	}
	for i := 0; i < 7; i++ {
		s.sample()
	}
	last, ok := s.Latest()
	if !ok || last.Data != 7 || last.Seq != 6 {
		t.Fatalf("latest = %+v, ok=%v", last, ok)
	}
}

// TestSamplerSubscribeAndStop: subscribers receive broadcast samples and
// their channels close when the sampler stops — the drain contract the SSE
// handler relies on.
func TestSamplerSubscribeAndStop(t *testing.T) {
	var n atomic.Int64
	s := NewSampler(time.Millisecond, func() int64 { return n.Add(1) })
	s.Start()
	ch, cancel := s.Subscribe(16)
	defer cancel()
	select {
	case sm := <-ch:
		if sm.Data < 1 {
			t.Errorf("sample data %d", sm.Data)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no sample within 2s")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range ch {
		}
	}()
	s.Stop()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("subscriber channel not closed on Stop")
	}
	// Subscribing after Stop yields an already-closed channel.
	ch2, cancel2 := s.Subscribe(1)
	defer cancel2()
	if _, ok := <-ch2; ok {
		t.Error("post-Stop subscription delivered a sample")
	}
}

// TestSamplerSlowSubscriberDoesNotStall: a full subscriber buffer drops
// samples instead of blocking the sampler or other subscribers.
func TestSamplerSlowSubscriberDoesNotStall(t *testing.T) {
	var n atomic.Int64
	s := NewSampler(time.Hour, func() int64 { return n.Add(1) })
	slow, cancelSlow := s.Subscribe(1)
	defer cancelSlow()
	fast, cancelFast := s.Subscribe(16)
	defer cancelFast()
	for i := 0; i < 5; i++ {
		s.sample() // must not block even though slow's buffer fills at 1
	}
	if got := len(fast); got != 5 {
		t.Errorf("fast subscriber buffered %d samples, want 5", got)
	}
	if got := len(slow); got != 1 {
		t.Errorf("slow subscriber buffered %d samples, want 1 (rest dropped)", got)
	}
	first := <-slow
	if first.Seq != 0 {
		t.Errorf("slow subscriber kept seq %d, want the earliest (0)", first.Seq)
	}
}

// TestSamplerConcurrent exercises Start/sample/Subscribe/cancel/Stop under
// the race detector.
func TestSamplerConcurrent(t *testing.T) {
	var n atomic.Int64
	s := NewSampler(100*time.Microsecond, func() int64 { return n.Add(1) })
	s.Start()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				ch, cancel := s.Subscribe(2)
				select {
				case <-ch:
				case <-time.After(10 * time.Millisecond):
				}
				cancel()
				s.Latest()
			}
		}()
	}
	wg.Wait()
	s.Stop()
	s.Stop()  // idempotent
	s.Start() // no-op after Stop
	if _, ok := s.Latest(); !ok {
		t.Error("latest lost after stop")
	}
}
