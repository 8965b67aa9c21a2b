package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"evprop/internal/sched"
)

func metricsFor(busy time.Duration, traced bool) *sched.Metrics {
	m := &sched.Metrics{
		Workers: []sched.WorkerMetrics{
			{Busy: busy, Overhead: busy / 100, Tasks: 3},
			{Busy: busy / 2, Overhead: busy / 200, Tasks: 2},
		},
		Elapsed: busy,
		Tasks:   5,
	}
	if traced {
		m.Trace = &sched.Trace{Workers: 2, Total: busy, Events: []sched.Event{
			{Worker: 0, Task: 0, Hi: -1, Start: 0, End: busy / 2},
			{Worker: 1, Task: 1, Hi: -1, Start: busy / 2, End: busy},
		}}
	}
	return m
}

// record builds the record the engine would for a run with these metrics,
// hands it to the recorder and reports whether it was captured as slow.
func record(fr *FlightRecorder, rec QueryRecord, m *sched.Metrics) bool {
	var tr *sched.Trace
	if m != nil {
		rec.Report = FromSched(m)
		tr = m.Trace
	}
	fr.Record(&rec, tr)
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
	}, metricsFor(10*time.Millisecond, false))
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

// TestSlowCaptureExactlyOverThreshold is the regression test for the capture
// rule: with a pinned threshold, exactly the runs strictly over it are
// captured, and each capture retains the run's full trace.
func TestSlowCaptureExactlyOverThreshold(t *testing.T) {
	const thr = time.Millisecond
	fr := NewFlightRecorder(64, thr)
	elapsed := []time.Duration{
		thr / 2, thr, thr + 1, 5 * thr, thr / 4, thr, 2 * thr,
	}
	wantSlow := []bool{false, false, true, true, false, false, true}
	for i, d := range elapsed {
		got := record(fr, QueryRecord{ID: fmt.Sprintf("q-%d", i), Elapsed: d}, metricsFor(d, true))
		if got != wantSlow[i] {
			t.Errorf("run %d (%v): slow=%v, want %v", i, d, got, wantSlow[i])
		}
	}
	if fr.SlowTotal() != 3 {
		t.Errorf("slow total %d, want 3", fr.SlowTotal())
	}
	caps := fr.SlowSnapshot()
	if len(caps) != 3 {
		t.Fatalf("%d captures, want 3", len(caps))
	}
	wantIDs := []string{"q-2", "q-3", "q-6"}
	for i, c := range caps {
		if c.Record.ID != wantIDs[i] {
			t.Errorf("capture %d is %q, want %q", i, c.Record.ID, wantIDs[i])
		}
		if !c.Record.Slow {
			t.Errorf("capture %d not marked slow", i)
		}
		if c.Threshold != thr {
			t.Errorf("capture %d threshold %v", i, c.Threshold)
		}
		if c.Trace == nil || len(c.Trace.Events) == 0 {
			t.Errorf("capture %d lost its trace", i)
		}
		if c.Record.Report == nil {
			t.Errorf("capture %d lost its report", i)
		}
		if c.Record.Seq != map[string]uint64{"q-2": 2, "q-3": 3, "q-6": 6}[c.Record.ID] {
			t.Errorf("capture %d has seq %d", i, c.Record.Seq)
		}
	}
	// The ring records carry the Slow flag too.
	var slowInRing int
	for _, r := range fr.Snapshot() {
		if r.Slow {
			slowInRing++
		}
	}
	if slowInRing != 3 {
		t.Errorf("%d ring records marked slow, want 3", slowInRing)
	}
}

func TestSlowCaptureRingBounded(t *testing.T) {
	fr := NewFlightRecorder(8, time.Microsecond)
	for i := 0; i < 3*slowCaptureCap; i++ {
		record(fr, QueryRecord{ID: fmt.Sprintf("q-%d", i), Elapsed: time.Second}, nil)
	}
	caps := fr.SlowSnapshot()
	if len(caps) != slowCaptureCap {
		t.Fatalf("%d captures retained, want %d", len(caps), slowCaptureCap)
	}
	// Oldest-to-newest: the last slowCaptureCap runs.
	if caps[0].Record.ID != fmt.Sprintf("q-%d", 2*slowCaptureCap) {
		t.Errorf("oldest capture %q", caps[0].Record.ID)
	}
	if caps[len(caps)-1].Record.ID != fmt.Sprintf("q-%d", 3*slowCaptureCap-1) {
		t.Errorf("newest capture %q", caps[len(caps)-1].Record.ID)
	}
	if fr.SlowTotal() != int64(3*slowCaptureCap) {
		t.Errorf("slow total %d", fr.SlowTotal())
	}
}

// TestAdaptiveThreshold exercises the p99-relative rule: no captures while
// warming up, then a threshold of slowFactor × p99.
func TestAdaptiveThreshold(t *testing.T) {
	fr := NewFlightRecorder(256, 0)
	if thr := fr.SlowThreshold(); thr != 0 {
		t.Fatalf("cold threshold %v, want 0", thr)
	}
	for i := 0; i < slowMinSamples; i++ {
		if slow := record(fr, QueryRecord{Elapsed: time.Millisecond}, nil); slow {
			t.Fatal("capture fired during warm-up")
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
		t.Error("10× threshold run not captured")
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
			fr.SlowSnapshot()
			fr.SlowThreshold()
		}
	}()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				d := time.Duration(i%100) * time.Microsecond
				record(fr, QueryRecord{ID: fmt.Sprintf("w%d-%d", g, i), Elapsed: d},
					metricsFor(d, i%7 == 0))
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
