package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"evprop"
	"evprop/client"
	"evprop/internal/audit"
	"evprop/internal/obs/trace"
)

// chainSummary is what verification learned about the log.
type chainSummary struct {
	batches int
	head    string
}

// loadSegments reads every segment in dir, verifies the Merkle chain, and
// decodes the records in order. Any verification or decode failure is
// fatal — replaying from an unverified log is never worth it.
func loadSegments(dir string) ([]*audit.Record, chainSummary, error) {
	batches, err := audit.ReadDir(dir)
	if err != nil {
		return nil, chainSummary{}, err
	}
	if err := audit.VerifyChain(batches); err != nil {
		return nil, chainSummary{}, fmt.Errorf("chain verification failed: %w", err)
	}
	var recs []*audit.Record
	sum := chainSummary{batches: len(batches), head: "empty"}
	for _, b := range batches {
		for _, raw := range b.Records {
			r, err := audit.DecodeRecord(raw)
			if err != nil {
				return nil, chainSummary{}, fmt.Errorf("batch %d: %w", b.Seq, err)
			}
			recs = append(recs, r)
		}
		sum.head = fmt.Sprintf("%x", b.Root[:8])
	}
	return recs, sum, nil
}

// dumpRecords writes one JSON line per record.
func dumpRecords(w io.Writer, recs []*audit.Record) error {
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// answer is a replay target's normalized response to one record.
type answer struct {
	pe          float64
	posteriors  map[string][]float64
	assignment  map[string]int
	probability float64
}

// target re-executes recorded queries somewhere: against a live server or
// an in-process engine. Implementations must be safe for concurrent use.
type target interface {
	query(ctx context.Context, rec *audit.Record) (*answer, error)
	mpe(ctx context.Context, rec *audit.Record) (*answer, error)
}

// httpTarget replays against a live evserve, routing each record to the
// model that answered it. Every replayed request carries a traceparent
// derived deterministically from the record's query ID, so the server-side
// trace and access-log line of a replayed query are computable from the
// audit record alone — a diff mismatch correlates straight to its trace.
type httpTarget struct {
	c *evclient.Client
	// sampled sets the traceparent's sampled flag, forcing tail sampling to
	// keep every replayed trace. Diff mode sets it (mismatches are worth a
	// waterfall); load mode leaves the server's own sampling in charge.
	sampled bool
}

// recTraceparent derives the deterministic W3C traceparent for one record:
// the trace ID is the first 16 bytes of SHA-256 over the recorded query
// ID, the parent span ID the next 8. Replaying the same log twice emits
// the same trace IDs.
func recTraceparent(rec *audit.Record, sampled bool) string {
	sum := sha256.Sum256([]byte("evreplay:" + rec.ID))
	sc := trace.SpanContext{TraceID: trace.TraceID(sum[:16]), SpanID: trace.SpanID(sum[16:24])}
	if !sc.TraceID.IsValid() {
		sc.TraceID[0] = 1 // the all-zero trace ID is invalid per W3C spec
	}
	if !sc.SpanID.IsValid() {
		sc.SpanID[0] = 1
	}
	if sampled {
		sc.Flags = trace.FlagSampled
	}
	return sc.Traceparent()
}

func (t *httpTarget) trace(ctx context.Context, rec *audit.Record) context.Context {
	return evclient.WithTraceparent(ctx, recTraceparent(rec, t.sampled))
}

func (t *httpTarget) query(ctx context.Context, rec *audit.Record) (*answer, error) {
	resp, err := t.c.Query(t.trace(ctx, rec), rec.Model, evclient.Evidence(rec.Evidence), rec.Query...)
	if err != nil {
		return nil, err
	}
	return &answer{pe: resp.PEvidence, posteriors: resp.Posteriors}, nil
}

func (t *httpTarget) mpe(ctx context.Context, rec *audit.Record) (*answer, error) {
	resp, err := t.c.MPE(t.trace(ctx, rec), rec.Model, evclient.Evidence(rec.Evidence))
	if err != nil {
		return nil, err
	}
	return &answer{assignment: resp.Assignment, probability: resp.Probability}, nil
}

// engineTarget replays on in-process engines, mirroring the server's
// query semantics exactly: P(e) and posteriors from one propagation that
// declares the recorded query list as its targets, posteriors only when
// P(e) > 0, projected onto that list. Each record runs on the engine
// compiled at its recorded fingerprint.
type engineTarget struct {
	engines map[string]*evprop.Engine // by the records' Fingerprint
}

func (t *engineTarget) query(ctx context.Context, rec *audit.Record) (*answer, error) {
	res, err := t.engines[rec.Fingerprint].PropagateContext(ctx, evprop.Evidence(rec.Evidence), rec.Query...)
	if err != nil {
		return nil, err
	}
	defer res.Close()
	a := &answer{pe: res.ProbabilityOfEvidence(), posteriors: map[string][]float64{}}
	if a.pe > 0 {
		if a.posteriors, err = res.Posteriors(rec.Query...); err != nil {
			return nil, err
		}
	}
	return a, nil
}

func (t *engineTarget) mpe(ctx context.Context, rec *audit.Record) (*answer, error) {
	assignment, p, err := t.engines[rec.Fingerprint].MostProbableExplanation(evprop.Evidence(rec.Evidence))
	if err != nil {
		return nil, err
	}
	return &answer{assignment: assignment, probability: p}, nil
}

// replayOne re-executes one record on the target.
func replayOne(ctx context.Context, tgt target, rec *audit.Record) (*answer, error) {
	if rec.Kind == audit.KindMPE {
		return tgt.mpe(ctx, rec)
	}
	return tgt.query(ctx, rec)
}

// mismatch is one record whose replay diverged from the recorded answer.
type mismatch struct {
	rec    *audit.Record
	reason string
}

// diffReplay re-executes every record and compares its answer against the
// recorded one, bit for bit. Records are processed concurrently; the
// returned mismatches are ordered by record sequence.
func diffReplay(ctx context.Context, tgt target, recs []*audit.Record, concurrency int) []mismatch {
	var mu sync.Mutex
	var out []mismatch
	runWorkers(recs, concurrency, func(rec *audit.Record) {
		got, err := replayOne(ctx, tgt, rec)
		if reason := compareRecord(rec, got, err); reason != "" {
			mu.Lock()
			out = append(out, mismatch{rec: rec, reason: reason})
			mu.Unlock()
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].rec.Seq < out[j].rec.Seq })
	return out
}

// compareRecord checks one replayed answer against its record; "" means
// they agree. Float comparisons are exact — Float64bits equality — since
// propagation on a fixed build is bit-deterministic; any drift is a real
// behavioral change.
func compareRecord(rec *audit.Record, got *answer, err error) string {
	if rec.Error != "" {
		if err == nil {
			return fmt.Sprintf("recorded failure %q succeeded on replay", rec.Error)
		}
		return ""
	}
	if err != nil {
		return fmt.Sprintf("recorded success failed on replay: %v", err)
	}
	if rec.Kind == audit.KindMPE {
		if math.Float64bits(got.probability) != math.Float64bits(rec.Probability) {
			return fmt.Sprintf("probability %v != recorded %v", got.probability, rec.Probability)
		}
		if len(got.assignment) != len(rec.Assignment) {
			return fmt.Sprintf("assignment has %d variables, recorded %d", len(got.assignment), len(rec.Assignment))
		}
		for name, state := range rec.Assignment {
			if g, ok := got.assignment[name]; !ok || g != state {
				return fmt.Sprintf("assignment[%s] = %d, recorded %d", name, got.assignment[name], state)
			}
		}
		return ""
	}
	if math.Float64bits(got.pe) != math.Float64bits(rec.PEvidence) {
		return fmt.Sprintf("P(e) %v != recorded %v", got.pe, rec.PEvidence)
	}
	if len(got.posteriors) != len(rec.Posteriors) {
		return fmt.Sprintf("%d posteriors, recorded %d", len(got.posteriors), len(rec.Posteriors))
	}
	for name, want := range rec.Posteriors {
		g, ok := got.posteriors[name]
		if !ok {
			return fmt.Sprintf("posterior %q missing on replay", name)
		}
		if len(g) != len(want) {
			return fmt.Sprintf("posterior %q has %d states, recorded %d", name, len(g), len(want))
		}
		for i := range want {
			if math.Float64bits(g[i]) != math.Float64bits(want[i]) {
				return fmt.Sprintf("posterior %q[%d] = %v, recorded %v", name, i, g[i], want[i])
			}
		}
	}
	return ""
}

// loadReport aggregates a load replay.
type loadReport struct {
	total, failed int
	elapsed       time.Duration
	sumUsec       float64
	maxUsec       float64
}

func (r *loadReport) qps() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.total) / r.elapsed.Seconds()
}

func (r *loadReport) avgUsec() float64 {
	if r.total == 0 {
		return 0
	}
	return r.sumUsec / float64(r.total)
}

// loadReplay re-drives the records as live traffic. speed 0 replays flat
// out; speed s > 0 spaces records at their recorded inter-arrival gaps
// divided by s, preserving the traffic shape.
func loadReplay(ctx context.Context, tgt target, recs []*audit.Record, speed float64, concurrency int) loadReport {
	rep := loadReport{total: len(recs)}
	if len(recs) == 0 {
		return rep
	}
	var failed atomic.Int64
	var mu sync.Mutex
	start := time.Now()
	base := recs[0].TimeUnixNano
	runWorkers(recs, concurrency, func(rec *audit.Record) {
		if speed > 0 {
			due := start.Add(time.Duration(float64(rec.TimeUnixNano-base) / speed))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		t0 := time.Now()
		_, err := replayOne(ctx, tgt, rec)
		usec := float64(time.Since(t0).Nanoseconds()) / 1e3
		// A recorded failure failing again is the expected outcome, not a
		// load error.
		if (err != nil) != (rec.Error != "") {
			failed.Add(1)
		}
		mu.Lock()
		rep.sumUsec += usec
		if usec > rep.maxUsec {
			rep.maxUsec = usec
		}
		mu.Unlock()
	})
	rep.elapsed = time.Since(start)
	rep.failed = int(failed.Load())
	return rep
}

// runWorkers fans records out over a bounded worker pool, preserving
// nothing about ordering — callers that care collect and sort.
func runWorkers(recs []*audit.Record, concurrency int, fn func(*audit.Record)) {
	ch := make(chan *audit.Record)
	var wg sync.WaitGroup
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rec := range ch {
				fn(rec)
			}
		}()
	}
	for _, rec := range recs {
		ch <- rec
	}
	close(ch)
	wg.Wait()
}
