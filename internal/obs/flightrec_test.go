package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"evprop/internal/sched"
)

func metricsFor(busy time.Duration) *sched.Metrics {
	return &sched.Metrics{
		Workers: []sched.WorkerMetrics{
			{Busy: busy, Overhead: busy / 100, Tasks: 3},
			{Busy: busy / 2, Overhead: busy / 200, Tasks: 2},
		},
		Elapsed: busy,
		Tasks:   5,
	}
}

// record builds the record the engine would for a run with these metrics,
// hands it to the recorder and reports whether it was marked slow.
func record(fr *FlightRecorder, rec QueryRecord, m *sched.Metrics) bool {
	if m != nil {
		rec.Report = FromSched(m)
	}
	fr.Record(&rec)
	return rec.Slow
}

func TestFlightRecorderRingOrder(t *testing.T) {
	fr := NewFlightRecorder(4, time.Hour)
	for i := 0; i < 3; i++ {
		record(fr, QueryRecord{ID: fmt.Sprintf("q-%d", i), Mode: "sum-product", Elapsed: time.Millisecond}, nil)
	}
	recs := fr.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("%d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.ID != fmt.Sprintf("q-%d", i) {
			t.Errorf("record %d has ID %q", i, r.ID)
		}
		if r.Seq != uint64(i) {
			t.Errorf("record %d has seq %d", i, r.Seq)
		}
	}
	// Wraparound: 4 more records push out the oldest 3.
	for i := 3; i < 7; i++ {
		record(fr, QueryRecord{ID: fmt.Sprintf("q-%d", i), Elapsed: time.Millisecond}, nil)
	}
	recs = fr.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("%d records after wrap, want 4", len(recs))
	}
	if recs[0].ID != "q-3" || recs[3].ID != "q-6" {
		t.Errorf("wrapped ring holds %q … %q, want q-3 … q-6", recs[0].ID, recs[3].ID)
	}
	if fr.Total() != 7 {
		t.Errorf("total %d, want 7", fr.Total())
	}
}

func TestFlightRecorderRecordFields(t *testing.T) {
	fr := NewFlightRecorder(8, time.Hour)
	record(fr, QueryRecord{
		ID: "q-x", Mode: "max-product", EvidenceVars: 2,
		Elapsed: 3 * time.Millisecond, Err: context.Canceled.Error(),
	}, metricsFor(10*time.Millisecond))
	recs := fr.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("%d records", len(recs))
	}
	r := recs[0]
	if r.Mode != "max-product" || r.EvidenceVars != 2 || r.Err != context.Canceled.Error() {
		t.Errorf("record %+v", r)
	}
	if r.Report.Workers != 2 || r.Report.Tasks != 5 {
		t.Errorf("workers %d tasks %d", r.Report.Workers, r.Report.Tasks)
	}
	// busy = 15ms, max = 10ms → LB = 10/(15/2) = 4/3.
	if r.Report.LoadBalance < 1.3 || r.Report.LoadBalance > 1.4 {
		t.Errorf("load balance %v", r.Report.LoadBalance)
	}
	if r.Report.OverheadFraction <= 0 || r.Report.OverheadFraction >= 0.1 {
		t.Errorf("overhead fraction %v", r.Report.OverheadFraction)
	}
	if r.Slow {
		t.Error("1ms-floor… run under an hour-long floor marked slow")
	}
}

// TestSlowCaptureExactlyOverThreshold is the regression test for the slow
// rule: with a pinned threshold, exactly the runs strictly over it are marked
// slow, in the ring, with their reports, and counted.
func TestSlowCaptureExactlyOverThreshold(t *testing.T) {
	const thr = time.Millisecond
	fr := NewFlightRecorder(64, thr)
	elapsed := []time.Duration{
		thr / 2, thr, thr + 1, 5 * thr, thr / 4, thr, 2 * thr,
	}
	wantSlow := []bool{false, false, true, true, false, false, true}
	for i, d := range elapsed {
		got := record(fr, QueryRecord{ID: fmt.Sprintf("q-%d", i), Elapsed: d}, metricsFor(d))
		if got != wantSlow[i] {
			t.Errorf("run %d (%v): slow=%v, want %v", i, d, got, wantSlow[i])
		}
	}
	if fr.SlowTotal() != 3 {
		t.Errorf("slow total %d, want 3", fr.SlowTotal())
	}
	recs := fr.Snapshot()
	if len(recs) != len(elapsed) {
		t.Fatalf("%d records, want %d", len(recs), len(elapsed))
	}
	for i, r := range recs {
		if r.Slow != wantSlow[i] || r.Seq != uint64(i) || r.Report == nil {
			t.Errorf("record %d: seq %d slow %v report %v, want slow %v", i, r.Seq, r.Slow, r.Report, wantSlow[i])
		}
	}
}

// TestSlowCaptureRingBounded: slow records live in the one ring and nowhere
// else, so they are bounded by its size, while SlowTotal counts every one.
func TestSlowCaptureRingBounded(t *testing.T) {
	const size = 8
	fr := NewFlightRecorder(size, time.Microsecond)
	for i := 0; i < 3*size; i++ {
		record(fr, QueryRecord{ID: fmt.Sprintf("q-%d", i), Elapsed: time.Second}, nil)
	}
	recs := fr.Snapshot()
	if len(recs) != size {
		t.Fatalf("%d records retained, want %d", len(recs), size)
	}
	for i, r := range recs {
		if want := fmt.Sprintf("q-%d", 2*size+i); r.ID != want || !r.Slow {
			t.Errorf("record %d is %q slow=%v, want %q slow", i, r.ID, r.Slow, want)
		}
	}
	if fr.SlowTotal() != 3*size {
		t.Errorf("slow total %d, want %d", fr.SlowTotal(), 3*size)
	}
}

// TestAdaptiveThreshold exercises the p99-relative rule: nothing is slow
// while warming up, then a threshold of slowFactor × p99.
func TestAdaptiveThreshold(t *testing.T) {
	fr := NewFlightRecorder(256, 0)
	if thr := fr.SlowThreshold(); thr != 0 {
		t.Fatalf("cold threshold %v, want 0", thr)
	}
	for i := 0; i < slowMinSamples; i++ {
		if slow := record(fr, QueryRecord{Elapsed: time.Millisecond}, nil); slow {
			t.Fatal("marked slow during warm-up")
		}
	}
	thr := fr.SlowThreshold()
	if thr <= 0 {
		t.Fatal("threshold still 0 after warm-up")
	}
	// All samples were ~1ms, so 2×p99 is at most 2× the 1–2ms bucket bound.
	if thr > 2*2*time.Millisecond {
		t.Errorf("threshold %v implausibly high", thr)
	}
	if slow := record(fr, QueryRecord{ID: "slowpoke", Elapsed: 10 * thr}, nil); !slow {
		t.Error("10× threshold run not marked slow")
	}
}

// TestFlightRecorderConcurrentWraparound drives concurrent writers through
// several ring wraparounds while a reader snapshots — the -race proof that
// the hot path is safe without locks.
func TestFlightRecorderConcurrentWraparound(t *testing.T) {
	fr := NewFlightRecorder(16, 50*time.Microsecond)
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // reader overlaps the writers for the whole run
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			recs := fr.Snapshot()
			for i := 1; i < len(recs); i++ {
				if recs[i].Seq <= recs[i-1].Seq {
					t.Error("snapshot out of order")
					return
				}
			}
			fr.SlowThreshold()
		}
	}()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				d := time.Duration(i%100) * time.Microsecond
				record(fr, QueryRecord{ID: fmt.Sprintf("w%d-%d", g, i), Elapsed: d}, metricsFor(d))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if fr.Total() != writers*perWriter {
		t.Errorf("total %d, want %d", fr.Total(), writers*perWriter)
	}
	if got := len(fr.Snapshot()); got != 16 {
		t.Errorf("ring holds %d records, want 16", got)
	}
}
