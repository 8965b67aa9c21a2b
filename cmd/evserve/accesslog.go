package main

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"strconv"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"
)

// The access log: one line per instrumented request, appended in one pass
// into a pooled buffer and written with one Write. A line is byte for byte
// what slog.NewTextHandler or slog.NewJSONHandler, with nil options, writes
// for the INFO record "request" with these attributes in this order;
// FuzzAccessLine holds both formats to slog. Every other line of the process
// log goes through slog.

// accessLog is where the access log goes, and in which format.
type accessLog struct {
	mu   sync.Mutex // one Write at a time, as slog's handlers hold theirs
	w    io.Writer
	json bool
}

// newLogger builds the process logger and the access log in the requested
// format (text or json), both writing to w.
func newLogger(format string, w io.Writer) (*slog.Logger, *accessLog, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, nil)), &accessLog{w: w}, nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, nil)), &accessLog{w: w, json: true}, nil
	default:
		return nil, nil, fmt.Errorf("unknown -log format %q (want text or json)", format)
	}
}

// accessLine is one request's access-log record.
type accessLine struct {
	time                                  time.Time
	id, traceID, method, endpoint, model  string
	status, bytes                         int
	evidenceVars, propagations, cacheHits int64
	executor                              string
	entries, graphEntries                 int64
	overheadFrac, loadBalance             float64
	latency                               time.Duration
}

// write appends the line and writes it. A failed write is dropped, as the
// slog.Logger drops its handler's error.
func (l *accessLog) write(line *accessLine) {
	sc := getScratch()
	sc.b = line.append(sc.b[:0], l.json)
	l.mu.Lock()
	_, _ = l.w.Write(sc.b)
	l.mu.Unlock()
	putScratch(sc)
}

// append appends the line, newline included, as slog's JSON handler (json)
// or its text handler writes it.
func (l *accessLine) append(b []byte, json bool) []byte {
	e := lineEncoder{b: b, json: json}
	if json {
		e.b = append(e.b, '{')
	}
	e.key("time")
	e.time(l.time)
	e.key("level")
	e.str("INFO")
	e.key("msg")
	e.str("request")
	e.key("id")
	e.str(l.id)
	e.key("trace_id")
	e.str(l.traceID)
	e.key("method")
	e.str(l.method)
	e.key("endpoint")
	e.str(l.endpoint)
	e.key("model")
	e.str(l.model)
	e.key("status")
	e.int(int64(l.status))
	e.key("bytes")
	e.int(int64(l.bytes))
	e.key("evidence_vars")
	e.int(l.evidenceVars)
	e.key("propagations")
	e.int(l.propagations)
	e.key("cache_hits")
	e.int(l.cacheHits)
	e.key("executor")
	e.str(l.executor)
	e.key("entries")
	e.int(l.entries)
	e.key("graph_entries")
	e.int(l.graphEntries)
	e.key("sched_overhead_fraction")
	e.float(l.overheadFrac)
	e.key("load_balance")
	e.float(l.loadBalance)
	e.key("latency")
	e.duration(l.latency)
	if json {
		e.b = append(e.b, '}')
	}
	return append(e.b, '\n')
}

// lineEncoder writes a record's attributes as slog's handlers write them.
type lineEncoder struct {
	b    []byte
	json bool
	sep  bool // an attribute precedes the next key
}

// key writes a key and its separators; keys are ASCII words that neither
// format quotes differently from what is written here.
func (e *lineEncoder) key(k string) {
	switch {
	case e.json && e.sep:
		e.b = append(e.b, ',')
	case e.sep:
		e.b = append(e.b, ' ')
	}
	e.sep = true
	if e.json {
		e.b = append(append(append(e.b, '"'), k...), `":`...)
	} else {
		e.b = append(append(e.b, k...), '=')
	}
}

// time is the record's time: RFC 3339 to the nanosecond in JSON, to the
// millisecond, always three digits, in text. slog reports a year outside
// [0, 9999] as an error in JSON; the server's clock is not there.
func (e *lineEncoder) time(t time.Time) {
	if e.json {
		e.b = append(t.AppendFormat(append(e.b, '"'), time.RFC3339Nano), '"')
		return
	}
	// RFC3339Nano trims trailing zeros: with a tenth of a millisecond added
	// to the truncated time it has exactly four fractional digits, and the
	// fourth is dropped.
	const prefix = len("2006-01-02T15:04:05.000")
	n := len(e.b)
	e.b = t.Truncate(time.Millisecond).Add(time.Millisecond/10).AppendFormat(e.b, time.RFC3339Nano)
	e.b = append(e.b[:n+prefix], e.b[n+prefix+1:]...)
}

func (e *lineEncoder) int(n int64) { e.b = strconv.AppendInt(e.b, n, 10) }

// float is %g in text; in JSON it is encoding/json's number, and NaN and the
// infinities, which encoding/json refuses, are slog's error string.
func (e *lineEncoder) float(f float64) {
	switch {
	case !e.json:
		e.b = strconv.AppendFloat(e.b, f, 'g', -1, 64)
	case math.IsNaN(f) || math.IsInf(f, 0):
		e.str("!ERROR:json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	default:
		e.b = appendJSONFloat(e.b, f)
	}
}

// duration is time.Duration's String in text, nanoseconds in JSON.
func (e *lineEncoder) duration(d time.Duration) {
	if e.json {
		e.int(int64(d))
		return
	}
	e.b = append(e.b, d.String()...)
}

// str writes a string value: in JSON quoted and escaped as slog escapes it,
// in text bare unless slog would quote it, then Go-quoted.
func (e *lineEncoder) str(s string) {
	switch {
	case e.json:
		e.b = append(appendJSONString(append(e.b, '"'), s, false), '"')
	case needsQuoting(s):
		e.b = strconv.AppendQuote(e.b, s)
	default:
		e.b = append(e.b, s...)
	}
}

// needsQuoting is the text handler's rule: the empty string, and any string
// with a space, an '=', a '"', an ASCII control character other than DEL,
// invalid UTF-8, or a non-printing or space rune.
func needsQuoting(s string) bool {
	if s == "" {
		return true
	}
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c <= ' ' || c == '=' || c == '"' {
				return true
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError || unicode.IsSpace(r) || !unicode.IsPrint(r) {
			return true
		}
		i += size
	}
	return false
}
