package evprop

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"evprop/internal/obs/trace"
)

// TestFlightRecorderRecordsPropagations checks the engine-level integration:
// every propagation (sum-product, the MPE's max-product companion, and
// QueryOne's own run) lands in the recorder with its mode, the context's
// query ID — a minted one where the caller gave none — and the executor
// that ran it: Asia's eight-entry tables are far below one dispatch, so all
// three runs are inline.
func TestFlightRecorderRecordsPropagations(t *testing.T) {
	eng, err := Asia().Compile(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ctx := WithQueryID(context.Background(), "test-query-1")
	res, err := eng.PropagateContext(ctx, Evidence{"XRay": 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := res.MPEContext(ctx); err != nil {
		t.Fatal(err)
	}
	own := res.Records()
	res.Close()
	if _, err := eng.QueryOne(Evidence{"XRay": 1}, "Lung"); err != nil {
		t.Fatal(err)
	}

	recs := eng.RecentQueries()
	if len(recs) != 3 {
		t.Fatalf("%d records, want 3 (sum, max, sum)", len(recs))
	}
	if recs[0].Mode != "sum-product" || recs[0].ID != "test-query-1" {
		t.Errorf("record 0: %+v", recs[0])
	}
	// The MPE's max-product run went out under the same context.
	if recs[1].Mode != "max-product" || recs[1].ID != "test-query-1" {
		t.Errorf("record 1: %+v", recs[1])
	}
	// The result's own records are the recorder's entries, not copies that
	// could drift.
	if len(own) != 2 || !reflect.DeepEqual(own[0], recs[0]) || !reflect.DeepEqual(own[1], recs[1]) {
		t.Errorf("QueryResult.Records() = %+v, recorder holds %+v", own, recs[:2])
	}
	if recs[2].Mode != "sum-product" || !strings.HasPrefix(recs[2].ID, "q-") {
		t.Errorf("record 2: %+v", recs[2])
	}
	for i, r := range recs {
		if r.ElapsedUsec <= 0 || r.Executor != "inline" || r.Workers != 1 || r.Tasks == 0 {
			t.Errorf("record %d missing run detail: %+v", i, r)
		}
		if r.EvidenceVars != 1 {
			t.Errorf("record %d evidence vars %d", i, r.EvidenceVars)
		}
	}

	st := eng.FlightRecorderStats()
	if !st.Enabled || st.Recorded != 3 || st.Size == 0 {
		t.Errorf("recorder stats %+v", st)
	}
}

// TestFlightRecorderSlowCaptureHasTrace pins the threshold to 1ns so every
// propagation is slow, and checks where a slow query's detail lives: its
// record is marked slow with the run's executor, worker columns and tasks,
// and the trace it ran under is kept by tail sampling as "slow", its
// propagate span naming the same executor and tasks — on the inline path
// and, through the tests' dispatch seam, on the pool.
func TestFlightRecorderSlowCaptureHasTrace(t *testing.T) {
	for _, tc := range []struct {
		executor string
		dispatch bool
		columns  int
	}{{"inline", false, 1}, {"pool", true, 2}} {
		t.Run(tc.executor, func(t *testing.T) {
			eng, err := Asia().compile(Options{Workers: 2, SlowQueryThreshold: time.Nanosecond}, seam(tc.dispatch, 0))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			tracer := &trace.Tracer{Store: trace.NewStore(8)}
			arena, root := tracer.StartRequest("query", trace.SpanContext{})
			id := root.TraceID()
			res, err := eng.PropagateContext(trace.ContextWith(context.Background(), root), Evidence{"Dysp": 1})
			if err != nil {
				t.Fatal(err)
			}
			res.Close()
			root.End()
			arena.SetSlowThreshold(time.Duration(eng.FlightRecorderStats().SlowThresholdUsec * 1e3))
			if !tracer.Finish(arena, root) {
				t.Fatal("a slow query's trace was dropped")
			}

			recs := eng.RecentQueries()
			if len(recs) != 1 {
				t.Fatalf("%d records, want 1", len(recs))
			}
			rec := recs[0]
			if !rec.Slow || rec.Executor != tc.executor || rec.Workers != tc.columns || rec.Tasks == 0 {
				t.Errorf("record %+v", rec)
			}
			if n := eng.FlightRecorderStats().SlowCaptured; n != 1 {
				t.Errorf("slow captured %d", n)
			}
			td := tracer.Store.Get(id)
			if td == nil || td.Reason != "slow" {
				t.Fatalf("kept trace %+v, want reason slow", td)
			}
			attrs := map[string]trace.Attr{}
			for _, sp := range td.Spans {
				if sp.Name == "propagate" {
					for _, a := range sp.Attrs {
						attrs[a.Key] = a
					}
				}
			}
			if attrs["executor"].Str != tc.executor || attrs["tasks"].Int != int64(rec.Tasks) {
				t.Errorf("propagate span %v, want executor %s and %d tasks", attrs, tc.executor, rec.Tasks)
			}
		})
	}
}

// TestFlightRecorderDisabled verifies the opt-out: no recorder, no records,
// and Result traces are untouched by the recorder's arming logic.
func TestFlightRecorderDisabled(t *testing.T) {
	eng, err := Asia().Compile(Options{Workers: 2, DisableFlightRecorder: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.Propagate(Evidence{"XRay": 1})
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	if recs := eng.RecentQueries(); recs != nil {
		t.Errorf("disabled recorder returned %d records", len(recs))
	}
	if st := eng.FlightRecorderStats(); st.Enabled {
		t.Errorf("stats %+v", st)
	}
}

// TestFlightRecorderConcurrentPropagation drives concurrent queries through
// more than one wraparound of the ring while reading the recorder — the
// -race check for the full engine-to-ring path.
func TestFlightRecorderConcurrentPropagation(t *testing.T) {
	eng, err := Asia().Compile(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 80; i++ {
				res, err := eng.Propagate(Evidence{"XRay": 1})
				if err != nil {
					t.Error(err)
					return
				}
				res.Close()
				eng.RecentQueries()
			}
		}()
	}
	wg.Wait()
	st := eng.FlightRecorderStats()
	if st.Recorded != 320 || st.Size >= 320 {
		t.Errorf("recorded %d into a ring of %d, want 320 into fewer", st.Recorded, st.Size)
	}
	if got := len(eng.RecentQueries()); got != st.Size {
		t.Errorf("ring holds %d, want %d", got, st.Size)
	}
}

// TestQueryIDRoundTrip checks the context helpers.
func TestQueryIDRoundTrip(t *testing.T) {
	ctx := WithQueryID(context.Background(), "abc")
	if got := QueryIDFrom(ctx); got != "abc" {
		t.Errorf("QueryIDFrom = %q", got)
	}
	if got := QueryIDFrom(context.Background()); got != "" {
		t.Errorf("empty context yields %q", got)
	}
	a, b := NewQueryID(), NewQueryID()
	if a == b || !strings.HasPrefix(a, "q-") {
		t.Errorf("NewQueryID: %q, %q", a, b)
	}
}

// TestPprofLabelsOption exercises the opt-in worker-label path end to end:
// with PprofLabels on, queries run tagged (query_id/task_kind reach the
// scheduler) and still produce correct posteriors; the calling goroutine's
// own labels are untouched (workers, not callers, are tagged).
func TestPprofLabelsOption(t *testing.T) {
	eng, err := Asia().Compile(Options{Workers: 2, PprofLabels: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithQueryID(context.Background(), "q-labelled-1")
	res, err := eng.PropagateContext(ctx, Evidence{"XRay": 1})
	if err != nil {
		t.Fatal(err)
	}
	post, err := res.Posteriors("Lung")
	if err != nil {
		t.Fatal(err)
	}
	if len(post["Lung"]) != 2 {
		t.Errorf("posterior %v", post)
	}
	res.Close()
	eng.Close()
}

// TestFlightRecorderEvidenceCapture: every record, cache-served ones
// included, carries the canonical evidence signature — the same for identical
// queries, different for different ones. The evidence itself is not kept: it
// is the audit log's.
func TestFlightRecorderEvidenceCapture(t *testing.T) {
	eng, err := Asia().Compile(Options{Workers: 2, CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 3; i++ { // first sight, pinned miss, cache hit
		res, err := eng.Propagate(Evidence{"XRay": 1, "Asia": 0})
		if err != nil {
			t.Fatal(err)
		}
		res.Close()
	}
	res, err := eng.Propagate(Evidence{"XRay": 0})
	if err != nil {
		t.Fatal(err)
	}
	res.Close()

	recs := eng.RecentQueries()
	if len(recs) != 4 {
		t.Fatalf("%d records, want 4", len(recs))
	}
	if recs[0].Cached || recs[1].Cached || !recs[2].Cached || recs[3].Cached {
		t.Fatalf("cached flags: %v %v %v %v", recs[0].Cached, recs[1].Cached, recs[2].Cached, recs[3].Cached)
	}
	for i, r := range recs {
		if r.EvidenceSig == "" {
			t.Errorf("record %d has no evidence signature", i)
		}
	}
	if recs[0].EvidenceSig != recs[1].EvidenceSig || recs[0].EvidenceSig != recs[2].EvidenceSig {
		t.Error("identical queries got different signatures")
	}
	if recs[3].EvidenceSig == recs[0].EvidenceSig {
		t.Error("different queries share a signature")
	}
}
