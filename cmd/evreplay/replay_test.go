package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"evprop"
	"evprop/internal/audit"
	"evprop/internal/obs/trace"
)

// asiaBIF is evserve's Asia fixture, which evserve's tests pin to
// evprop.Asia() bit for bit.
const asiaBIF = "../evserve/testdata/asia/asia.bif"

func asiaEngine(t *testing.T) *evprop.Engine {
	t.Helper()
	eng, err := evprop.Asia().Compile(evprop.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// oneEngine is the in-process target for records eng answered.
func oneEngine(eng *evprop.Engine) *engineTarget {
	return &engineTarget{engines: map[string]*evprop.Engine{eng.Fingerprint().String(): eng}}
}

// recordQuery runs one query on eng and captures it as the server would
// have audited it.
func recordQuery(t *testing.T, eng *evprop.Engine, ev map[string]int, query []string) *audit.Record {
	t.Helper()
	rec := &audit.Record{
		Kind:         audit.KindQuery,
		TimeUnixNano: time.Now().UnixNano(),
		Model:        "asia",
		Version:      1,
		Fingerprint:  eng.Fingerprint().String(),
		Evidence:     ev,
		Query:        query,
	}
	res, err := eng.Propagate(evprop.Evidence(ev))
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	defer res.Close()
	rec.PEvidence = res.ProbabilityOfEvidence()
	rec.Posteriors = map[string][]float64{}
	if rec.PEvidence > 0 {
		if rec.Posteriors, err = res.Posteriors(query...); err != nil {
			t.Fatal(err)
		}
	}
	return rec
}

func recordMPE(t *testing.T, eng *evprop.Engine, ev map[string]int) *audit.Record {
	t.Helper()
	rec := &audit.Record{
		Kind:         audit.KindMPE,
		TimeUnixNano: time.Now().UnixNano(),
		Model:        "asia",
		Version:      1,
		Fingerprint:  eng.Fingerprint().String(),
		Evidence:     ev,
	}
	assignment, p, err := eng.MostProbableExplanation(evprop.Evidence(ev))
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	rec.Assignment, rec.Probability = assignment, p
	return rec
}

func testRecords(t *testing.T, eng *evprop.Engine) []*audit.Record {
	t.Helper()
	return []*audit.Record{
		recordQuery(t, eng, map[string]int{"XRay": 1}, []string{"Lung"}),
		recordQuery(t, eng, map[string]int{"XRay": 1, "Smoke": 0}, nil),
		recordQuery(t, eng, map[string]int{}, []string{"Asia", "Tub"}),
		recordQuery(t, eng, map[string]int{"NoSuchVariable": 1}, nil),
		recordMPE(t, eng, map[string]int{"XRay": 1}),
	}
}

func TestDiffReplayMatchesSameEngine(t *testing.T) {
	eng := asiaEngine(t)
	recs := testRecords(t, eng)
	if recs[3].Error == "" {
		t.Fatal("expected the unknown-variable record to be a failure")
	}
	tgt := oneEngine(eng)
	if ms := diffReplay(context.Background(), tgt, recs, 4); len(ms) != 0 {
		t.Fatalf("mismatches on identical engine: %v", ms[0].reason)
	}
}

func TestDiffReplayDetectsDivergence(t *testing.T) {
	eng := asiaEngine(t)
	tgt := oneEngine(eng)
	ctx := context.Background()

	// A single flipped mantissa bit in one posterior.
	r := recordQuery(t, eng, map[string]int{"XRay": 1}, []string{"Lung"})
	r.Posteriors["Lung"][0] = math.Float64frombits(math.Float64bits(r.Posteriors["Lung"][0]) ^ 1)
	if ms := diffReplay(ctx, tgt, []*audit.Record{r}, 1); len(ms) != 1 {
		t.Fatalf("flipped posterior bit: %d mismatches, want 1", len(ms))
	} else if !strings.Contains(ms[0].reason, "posterior") {
		t.Errorf("reason %q", ms[0].reason)
	}

	// A perturbed P(e).
	r = recordQuery(t, eng, map[string]int{"XRay": 1}, []string{"Lung"})
	r.PEvidence = math.Nextafter(r.PEvidence, 1)
	if ms := diffReplay(ctx, tgt, []*audit.Record{r}, 1); len(ms) != 1 {
		t.Fatal("perturbed P(e) not detected")
	}

	// A recorded failure that now succeeds.
	r = recordQuery(t, eng, map[string]int{"XRay": 1}, []string{"Lung"})
	r.Error, r.Posteriors, r.PEvidence = "synthetic failure", nil, 0
	ms := diffReplay(ctx, tgt, []*audit.Record{r}, 1)
	if len(ms) != 1 || !strings.Contains(ms[0].reason, "succeeded on replay") {
		t.Fatalf("vanished failure not detected: %v", ms)
	}

	// A perturbed MPE probability and a rewired assignment.
	r = recordMPE(t, eng, map[string]int{"XRay": 1})
	r.Probability = math.Nextafter(r.Probability, 1)
	if ms := diffReplay(ctx, tgt, []*audit.Record{r}, 1); len(ms) != 1 {
		t.Fatal("perturbed MPE probability not detected")
	}
	r = recordMPE(t, eng, map[string]int{"XRay": 1})
	for name := range r.Assignment {
		r.Assignment[name] = 1 - r.Assignment[name]
		break
	}
	if ms := diffReplay(ctx, tgt, []*audit.Record{r}, 1); len(ms) != 1 {
		t.Fatal("rewired MPE assignment not detected")
	}
}

// writeSegments spills records through the real writer into dir.
func writeSegments(t *testing.T, dir string, recs []*audit.Record) {
	t.Helper()
	store, err := audit.OpenFileStore(dir, audit.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := audit.NewWriter(store, audit.Config{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		w.Enqueue(r)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRunVerifyDumpAndDiff(t *testing.T) {
	eng := asiaEngine(t)
	dir := t.TempDir()
	writeSegments(t, dir, testRecords(t, eng))

	if code := run([]string{"-dir", dir, "-mode", "verify"}); code != 0 {
		t.Fatalf("verify exit %d", code)
	}
	if code := run([]string{"-dir", dir, "-mode", "dump"}); code != 0 {
		t.Fatalf("dump exit %d", code)
	}
	if code := run([]string{"-dir", dir, "-mode", "diff", "-bif", asiaBIF}); code != 0 {
		t.Fatalf("diff exit %d, want 0", code)
	}
	if code := run([]string{"-dir", dir, "-mode", "diff", "-bif", asiaBIF, "-limit", "2"}); code != 0 {
		t.Fatalf("limited diff exit %d", code)
	}
}

func TestRunDiffCatchesTamperedAnswer(t *testing.T) {
	eng := asiaEngine(t)
	dir := t.TempDir()
	recs := testRecords(t, eng)
	// The recorded answer diverges from what the engine computes, but the
	// segment itself is honestly written — the chain verifies, the diff
	// must not.
	recs[0].PEvidence = math.Nextafter(recs[0].PEvidence, 1)
	writeSegments(t, dir, recs)
	if code := run([]string{"-dir", dir, "-mode", "diff", "-bif", asiaBIF}); code != 1 {
		t.Fatalf("diff exit %d, want 1", code)
	}
}

func TestRunRefusesCorruptedChain(t *testing.T) {
	eng := asiaEngine(t)
	dir := t.TempDir()
	writeSegments(t, dir, testRecords(t, eng))
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the first frame's body.
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(names[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-dir", dir, "-mode", "verify"}); code != 2 {
		t.Fatalf("tampered verify exit %d, want 2", code)
	}
}

// TestReplayAtRecordedFingerprint: in-process, each record replays on an
// engine compiled at its recorded Workers, a record without a fingerprint
// (written by the version 1 codec) at -workers, and a record of another
// compile scheme is refused with the typed error and exit 2 before anything
// replays.
func TestReplayAtRecordedFingerprint(t *testing.T) {
	eng := asiaEngine(t)
	recs := testRecords(t, eng)
	recs[1].Fingerprint = evprop.Fingerprint{Scheme: evprop.CompileScheme, Workers: 3}.String()
	recs[2].Fingerprint = ""
	tgt, err := buildTarget(context.Background(), "", asiaBIF, 1, recs, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		want := 1
		if rec.Fingerprint != "" {
			fp, err := evprop.ParseFingerprint(rec.Fingerprint)
			if err != nil {
				t.Fatal(err)
			}
			want = fp.Workers
		}
		if got := tgt.(*engineTarget).engines[rec.Fingerprint].Fingerprint().Workers; got != want {
			t.Errorf("record %q replays at %d workers, want %d", rec.Fingerprint, got, want)
		}
	}
	if ms := diffReplay(context.Background(), tgt, recs, 2); len(ms) != 0 {
		t.Fatalf("mismatch: %v", ms[0].reason)
	}

	recs[0].Fingerprint = evprop.Fingerprint{Scheme: evprop.CompileScheme - 1, Workers: 2}.String()
	var refused *fingerprintMismatch
	if _, err := buildTarget(context.Background(), "", asiaBIF, 0, recs, true); !errors.As(err, &refused) || refused.recorded != recs[0].Fingerprint {
		t.Fatalf("a record of another compile scheme: %v, want a fingerprint mismatch", err)
	}
	dir := t.TempDir()
	writeSegments(t, dir, recs)
	if code := run([]string{"-dir", dir, "-mode", "diff", "-bif", asiaBIF}); code != 2 {
		t.Fatalf("diff exit %d, want 2", code)
	}
}

// TestDiffRefusesServerFingerprint: against a server, diff mode reads each
// recorded model's fingerprint from /v1/models/{name} and refuses a record
// answered at another one; load mode does not ask.
func TestDiffRefusesServerFingerprint(t *testing.T) {
	eng := asiaEngine(t)
	recs := testRecords(t, eng)
	serve := func(fp string) *httptest.Server {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/models/asia" {
				http.NotFound(w, r)
				return
			}
			fmt.Fprintf(w, `{"name":"asia","state":"ready","fingerprint":%q,"variables":[]}`, fp)
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	ctx := context.Background()
	other := evprop.Fingerprint{Scheme: evprop.CompileScheme, Workers: 3}.String()
	srv := serve(other)
	var refused *fingerprintMismatch
	if _, err := buildTarget(ctx, srv.URL, "", 0, recs, true); !errors.As(err, &refused) || refused.target != other {
		t.Fatalf("diff against a server at %s: %v, want a fingerprint mismatch", other, err)
	}
	if _, err := buildTarget(ctx, srv.URL, "", 0, recs, false); err != nil {
		t.Fatalf("load mode: %v", err)
	}
	if _, err := buildTarget(ctx, serve(eng.Fingerprint().String()).URL, "", 0, recs, true); err != nil {
		t.Fatalf("diff against a server at the recorded fingerprint: %v", err)
	}
}

func TestLoadReplay(t *testing.T) {
	eng := asiaEngine(t)
	recs := testRecords(t, eng)
	tgt := oneEngine(eng)
	rep := loadReplay(context.Background(), tgt, recs, 0, 4)
	if rep.total != len(recs) || rep.failed != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.qps() <= 0 || rep.avgUsec() <= 0 || rep.maxUsec < rep.avgUsec() {
		t.Errorf("latency accounting: %+v", rep)
	}
	// Recorded pacing: synthetic 5ms gaps at 10× speed still impose a
	// floor on the wall clock.
	for i, r := range recs {
		r.TimeUnixNano = int64(i) * (5 * time.Millisecond).Nanoseconds()
	}
	start := time.Now()
	rep = loadReplay(context.Background(), tgt, recs, 10, 4)
	if rep.failed != 0 {
		t.Fatalf("paced replay failed %d", rep.failed)
	}
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Errorf("paced replay finished in %v, expected pacing floor", elapsed)
	}
}

// TestRecTraceparent: the derived traceparent is deterministic, valid W3C
// (parses via the server's own parser), distinct per record, and carries
// the sampled flag only when asked.
func TestRecTraceparent(t *testing.T) {
	a := &audit.Record{ID: "q-000001"}
	b := &audit.Record{ID: "q-000002"}
	tpA := recTraceparent(a, true)
	if tpA != recTraceparent(a, true) {
		t.Error("traceparent not deterministic")
	}
	if tpA == recTraceparent(b, true) {
		t.Error("distinct records share a traceparent")
	}
	sc, ok := trace.ParseTraceparent(tpA)
	if !ok || !sc.IsValid() {
		t.Fatalf("derived traceparent %q does not parse", tpA)
	}
	if sc.Flags&trace.FlagSampled == 0 {
		t.Error("diff-mode traceparent not flagged sampled")
	}
	sc, ok = trace.ParseTraceparent(recTraceparent(a, false))
	if !ok || sc.Flags&trace.FlagSampled != 0 {
		t.Error("load-mode traceparent should be unsampled")
	}
	// Same trace ID either way — the flag is the only difference.
	if recTraceparent(a, true)[:36] != recTraceparent(a, false)[:36] {
		t.Error("sampled flag changed the trace ID")
	}
	// The bytes themselves: a replayed trace keeps its ID across builds.
	if got, want := recTraceparent(&audit.Record{ID: "q-1"}, true), "00-d60c64805ea14141a48c6eadbcc232b9-deda8257f82517d0-01"; got != want {
		t.Errorf("traceparent for q-1 = %s, want %s", got, want)
	}
}
