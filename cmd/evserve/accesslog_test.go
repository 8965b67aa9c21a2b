package main

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"evprop/internal/obs"
)

// slogLine is the access-log line as the slog handler of the format writes
// the record instrument used to log through slog.Logger.LogAttrs.
func slogLine(t *testing.T, jsonFormat bool, l *accessLine) []byte {
	var buf bytes.Buffer
	var h slog.Handler = slog.NewTextHandler(&buf, nil)
	if jsonFormat {
		h = slog.NewJSONHandler(&buf, nil)
	}
	r := slog.NewRecord(l.time, slog.LevelInfo, "request", 0)
	r.AddAttrs(
		slog.String("id", l.id),
		slog.String("trace_id", l.traceID),
		slog.String("method", l.method),
		slog.String("endpoint", l.endpoint),
		slog.String("model", l.model),
		slog.Int("status", l.status),
		slog.Int("bytes", l.bytes),
		slog.Int64("evidence_vars", l.evidenceVars),
		slog.Int64("propagations", l.propagations),
		slog.Int64("cache_hits", l.cacheHits),
		slog.String("executor", l.executor),
		slog.Int64("entries", l.entries),
		slog.Int64("graph_entries", l.graphEntries),
		slog.Float64("sched_overhead_fraction", l.overheadFrac),
		slog.Float64("load_balance", l.loadBalance),
		slog.Duration("latency", l.latency),
	)
	if err := h.Handle(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzAccessLine holds the access-log appender to slog's text and JSON
// handlers, byte for byte, with the clock fixed: over query IDs as instrument
// takes them (a valid client ID, or one minted), trace IDs, methods,
// endpoints and model names slog must quote or escape, counts, gauges
// (NaN, the infinities, -0) and latencies from nothing to hours.
func FuzzAccessLine(f *testing.F) {
	bits := math.Float64bits
	for _, seed := range []struct {
		id, traceID, method, endpoint, model, executor string
		status, bytes                                  int
		vars, props, hits, entries, graph              int64
		overhead, balance                              uint64
		latency, clock                                 int64
	}{
		{"", "4bf92f3577b34da6a3ce929d0e0e4736", "POST", "/v1/models/{name}/query", "asia", "",
			200, 220, 4, 0, 1, 0, 0, bits(0), bits(0), int64(77 * time.Microsecond), 0},
		{"client-id_1.2:3", "", "GET", "/v1/stats", "(none)", "inline",
			404, 96, 0, 1, 0, 914, 914, bits(0.006), bits(1.08), 0, 999},
		{"has space", "", "PUT", "/", "two words", "pool",
			500, 0, 30, 2, 0, 21458, 396690, bits(math.NaN()), bits(math.Inf(1)), int64(90 * time.Minute), 1e9 - 1},
		{"q=1", "", "DELETE", "/v1/models/{name}", "quote\"back\\slash", "",
			499, -1, -1, 1 << 40, 7, -3, 1, bits(math.Inf(-1)), bits(-0.0), int64(1500), 123456789},
		{"\x00\n\t", "", "PO ST", "/v1/debug/flightrecorder", "ü日本\u2028<&>\x7f\xff", "",
			429, 1, 2, 3, 4, 5, 6, bits(1e-7), bits(1e21), int64(-time.Millisecond), -1},
		{strings.Repeat("x", queryIDMaxLen+1), "", "", "", "", "",
			0, 0, 0, 0, 0, 0, 0, bits(5e-324), bits(math.MaxFloat64), math.MaxInt64, 4e17},
	} {
		f.Add(seed.id, seed.traceID, seed.method, seed.endpoint, seed.model, seed.executor,
			seed.status, seed.bytes, seed.vars, seed.props, seed.hits, seed.entries, seed.graph,
			seed.overhead, seed.balance, seed.latency, seed.clock)
	}
	epoch := time.Date(2026, 10, 17, 0, 26, 7, 0, time.UTC)
	zones := []*time.Location{time.UTC, time.FixedZone("", 5*3600+1800), time.FixedZone("", -7*3600)}
	f.Fuzz(func(t *testing.T, id, traceID, method, endpoint, model, executor string,
		status, size int, vars, props, hits, entries, graph int64,
		overhead, balance uint64, latency, clock int64) {
		if !validQueryID(id) {
			id = string(obs.AppendQueryID(nil))
		}
		// The clock: within ±18 years of the epoch, so the year keeps its
		// four digits, in one of three zones.
		clock %= 1 << 59
		l := accessLine{
			time:    epoch.Add(time.Duration(clock)).In(zones[uint64(clock)%uint64(len(zones))]),
			id:      id,
			traceID: traceID, method: method, endpoint: endpoint, model: model,
			status: status, bytes: size,
			evidenceVars: vars, propagations: props, cacheHits: hits,
			executor: executor, entries: entries, graphEntries: graph,
			overheadFrac: math.Float64frombits(overhead), loadBalance: math.Float64frombits(balance),
			latency: time.Duration(latency),
		}
		for _, jsonFormat := range []bool{false, true} {
			got, want := l.append(nil, jsonFormat), slogLine(t, jsonFormat, &l)
			if !bytes.Equal(got, want) {
				t.Fatalf("json=%v:\nappended %q\nslog     %q", jsonFormat, got, want)
			}
		}
	})
}

// TestREADMEAccessLine holds the README's example access-log line to the
// appender: the same keys, in the same order.
func TestREADMEAccessLine(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, _ := strings.Cut(string(readme), "the matching access-log line on the server's stderr")
	_, block, _ = strings.Cut(block, "```\n")
	block, _, _ = strings.Cut(block, "```")
	if strings.Count(block, "\n") != 1 {
		t.Fatalf("the README's example access-log line is %q, want one line", block)
	}
	var example []string
	for _, field := range strings.Fields(block) {
		key, _, ok := strings.Cut(field, "=")
		if !ok {
			t.Fatalf("the README's example access-log line has %q, which is no key=value", field)
		}
		example = append(example, key)
	}

	// The appender's keys, read off a JSON line in order.
	line := (&accessLine{time: time.Now()}).append(nil, true)
	dec := json.NewDecoder(bytes.NewReader(line))
	if _, err := dec.Token(); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		if _, err := dec.Token(); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(example, keys) {
		t.Errorf("the README's access-log line has keys\n%q\nthe appender writes\n%q", example, keys)
	}
}
