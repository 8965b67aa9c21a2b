package obs

import (
	"sync"
	"time"
)

// Sample is one timestamped observation taken by a Sampler.
type Sample[T any] struct {
	// Seq increments by one per sample, so consumers can detect drops.
	Seq int64
	// At is when the sample was taken.
	At time.Time
	// Data is the sampled value.
	Data T
}

// Sampler periodically calls a wait-free snapshot function on its own
// goroutine, keeps the latest sample, and fans each sample out to
// subscribers. It is the bridge between the scheduler's lock-free
// gauge surface and push consumers like evserve's /v1/stream: the sampled
// side pays nothing (the snapshot function must not block), and slow
// subscribers lose samples rather than ever stalling the sampler.
type Sampler[T any] struct {
	interval time.Duration
	take     func() T

	mu      sync.Mutex
	latest  Sample[T]
	seq     int64 // next sequence number; 0 until the first sample
	subs    map[chan Sample[T]]struct{}
	stop    chan struct{}
	started bool
	stopped bool
	wg      sync.WaitGroup
}

// NewSampler builds a sampler that calls take every interval. Call Start to
// begin sampling.
func NewSampler[T any](interval time.Duration, take func() T) *Sampler[T] {
	if interval <= 0 {
		interval = time.Second
	}
	return &Sampler[T]{
		interval: interval,
		take:     take,
		subs:     make(map[chan Sample[T]]struct{}),
		stop:     make(chan struct{}),
	}
}

// Start takes an immediate first sample (so Latest works right away) and
// launches the sampling goroutine. Start is idempotent; starting a stopped
// sampler does nothing.
func (s *Sampler[T]) Start() {
	s.mu.Lock()
	if s.started || s.stopped {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	s.sample()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.sample()
			case <-s.stop:
				return
			}
		}
	}()
}

// Stop halts sampling and closes every subscriber channel, waking blocked
// range loops so SSE handlers drain promptly on shutdown. Idempotent.
func (s *Sampler[T]) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	close(s.stop)
	subs := s.subs
	s.subs = make(map[chan Sample[T]]struct{})
	s.mu.Unlock()
	s.wg.Wait()
	for ch := range subs {
		close(ch)
	}
}

// sample takes one observation, keeps it as the latest and broadcasts it.
func (s *Sampler[T]) sample() {
	sm := Sample[T]{At: time.Now(), Data: s.take()}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	sm.Seq = s.seq
	s.seq++
	s.latest = sm
	for ch := range s.subs {
		select {
		case ch <- sm:
		default: // slow subscriber: drop rather than stall the sampler
		}
	}
	s.mu.Unlock()
}

// Latest returns the most recent sample, if any has been taken.
func (s *Sampler[T]) Latest() (Sample[T], bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest, s.seq > 0
}

// Subscribe registers a buffered sample channel and returns it with a
// cancel function. The channel closes when the subscriber cancels or the
// sampler stops; a subscriber that falls buf samples behind misses the
// overflow (detectable via Sample.Seq gaps) instead of blocking anyone.
func (s *Sampler[T]) Subscribe(buf int) (<-chan Sample[T], func()) {
	if buf < 1 {
		buf = 1
	}
	ch := make(chan Sample[T], buf)
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	s.subs[ch] = struct{}{}
	s.mu.Unlock()
	cancel := func() {
		s.mu.Lock()
		_, ok := s.subs[ch]
		delete(s.subs, ch)
		s.mu.Unlock()
		if ok {
			close(ch)
		}
	}
	return ch, cancel
}
