package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"evprop/internal/bayesnet"
	"evprop/internal/obs"
	"evprop/internal/potential"
)

// countdownCtx fails its Err poll after a fixed number of calls, cancelling
// a propagation deterministically mid-run (the scheduler polls once per
// item) rather than depending on wall-clock deadlines.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestCancelledRunRecorderIntegrity is the engine-level regression test for
// the failed-run flight-recorder race: a cancelled run returns while pool
// workers may still be executing its items, so the recorder must keep only
// the scalar fields (no per-worker gauges, no trace) for it, and must never
// recycle its trace buffers into the shared pool. Cancelled and successful
// propagations interleave on one engine; -race flags the old behavior of
// reading the still-mutating metrics and recycling the buffers.
func TestCancelledRunRecorderIntegrity(t *testing.T) {
	net := bayesnet.RandomNetwork(50, 2, 3, 7)
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewFlightRecorder(256, 0)
	e, err := NewEngine(tr, Options{Workers: 4, Reroot: true, PartitionThreshold: 8, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ev := potential.Evidence{0: 0}

	const perG, goroutines = 30, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if i%2 == 0 {
					// The countdown always expires mid-run: the graph has far
					// more items than the largest countdown value.
					cc := &countdownCtx{Context: context.Background()}
					cc.left.Store(int64(2 + (g*7+i)%12))
					if _, err := e.PropagateContext(cc, ev); err == nil {
						t.Error("countdown propagation unexpectedly succeeded")
					}
				} else {
					res, err := e.Propagate(ev)
					if err != nil {
						t.Error(err)
						return
					}
					res.Release()
				}
			}
		}(g)
	}
	wg.Wait()

	var failed, ok int
	for _, r := range rec.Snapshot() {
		if r.Err != "" {
			failed++
			if r.Report != nil {
				t.Errorf("failed run recorded non-scalar detail: %+v", r)
			}
			continue
		}
		ok++
		if r.Report == nil || r.Report.Workers != 4 {
			t.Errorf("successful run lost its worker gauges: %+v", r)
		}
	}
	if want := goroutines * perG / 2; failed != want || ok != want {
		t.Errorf("recorded %d failed + %d ok runs, want %d each", failed, ok, want)
	}
}
