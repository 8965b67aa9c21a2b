package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"evprop"
	evclient "evprop/client"
)

// The bodies of the query and MPE routes without reflection. readJSON parses
// the canonical query and MPE body — "evidence" as {name: integer} and
// "query" as [name, …], names printable ASCII without escapes — in one pass,
// and hands every body it declines to encoding/json on the same bytes, so what
// a route accepts and every error it answers are encoding/json's. writeQuery
// and writeMPE append the query and MPE answers byte for byte as json.Encoder
// writes them; an answer with a NaN or an infinity, and every other body,
// goes through json.Encoder (writeJSON). FuzzQueryBody and FuzzQueryResponse
// hold both to it. Batch bodies and answers go through encoding/json: no
// measurement asks for more.

// maxPooledBody bounds the bytes readJSON buffers before it hands the rest of
// the body to json.Decoder as a stream, and so the buffers a pooled scratch
// keeps: a huge body, well formed or not, is never held whole.
const maxPooledBody = 64 << 10

// scratch is one request's reusable buffers: the body read or the answer
// written, the evidence pairs or names a parse collects, the keys an answer
// sorts.
type scratch struct {
	b     []byte
	pairs []namedInt
	keys  []string
}

type namedInt struct {
	name []byte
	n    int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(sc *scratch) {
	if cap(sc.b) > maxPooledBody {
		return
	}
	sc.b = sc.b[:0]
	clear(sc.keys[:cap(sc.keys)]) // the keys are the answer's: drop them
	sc.keys = sc.keys[:0]
	scratchPool.Put(sc)
}

// readJSON decodes a POST body as a T; on failure it has already answered
// the request (405 on wrong method, 400 envelope on bad JSON). The body is
// returned by value, and json.Decoder decodes into a T of its own, so the
// caller's copy costs no allocation.
func readJSON[T any](s *server, w http.ResponseWriter, r *http.Request) (T, bool) {
	var v T
	if r.Method != http.MethodPost {
		s.writeErrorCode(w, r, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return v, false
	}
	sc := getScratch()
	defer putScratch(sc)
	var err error
	sc.b, err = readAll(sc.b[:0], r.Body, maxPooledBody)
	if err == nil && len(sc.b) <= maxPooledBody && sc.parse(&v) {
		return v, true
	}
	// The decoder reads what arrived, then the rest of the body — nothing when
	// it was whole — or the read's error, as it did when it read the body itself.
	var rest io.Reader = r.Body
	if err != nil {
		rest = failedReader{err}
	}
	dst := new(T)
	if err := json.NewDecoder(io.MultiReader(bytes.NewReader(sc.b), rest)).Decode(dst); err != nil {
		s.writeErrorCode(w, r, http.StatusBadRequest, "bad_request", "invalid JSON: "+err.Error())
		return v, false
	}
	return *dst, true
}

// readAll is io.ReadAll into b, stopping once b holds more than limit bytes.
func readAll(b []byte, r io.Reader, limit int) ([]byte, error) {
	for len(b) <= limit {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):min(cap(b), limit+1)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
	return b, nil
}

type failedReader struct{ err error }

func (f failedReader) Read([]byte) (int, error) { return 0, f.err }

// jsonContentType is the Content-Type of every body the server writes,
// shared by every response: nothing writes a header's values in place.
var jsonContentType = []string{"application/json"}

// writeJSON answers 200 with v as json.Encoder writes it.
func (s *server) writeJSON(w http.ResponseWriter, v any) {
	w.Header()["Content-Type"] = jsonContentType
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Error("encode response", "err", err)
	}
}

// writeQuery answers 200 with a query answer. The answer is passed by value
// and boxed only on writeJSON's path, so appending it allocates nothing.
func (s *server) writeQuery(w http.ResponseWriter, answer evclient.QueryResponse) {
	sc := getScratch()
	defer putScratch(sc)
	if !sc.appendQuery(&answer) {
		s.writeJSON(w, answer)
		return
	}
	s.writeAppended(w, sc.b)
}

// writeMPE is writeQuery for an MPE answer.
func (s *server) writeMPE(w http.ResponseWriter, answer evclient.MPEResponse) {
	sc := getScratch()
	defer putScratch(sc)
	if !sc.appendMPE(&answer) {
		s.writeJSON(w, answer)
		return
	}
	s.writeAppended(w, sc.b)
}

// writeAppended answers 200 with an appended JSON body.
func (s *server) writeAppended(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	if _, err := w.Write(body); err != nil {
		s.log.Error("encode response", "err", err)
	}
}

// parse decodes sc.b into dst when it is a query or MPE request in the
// canonical shape, followed by nothing but white space, and reports whether
// it did; dst is untouched when it did not.
func (sc *scratch) parse(dst any) bool {
	p := parser{b: sc.b, sc: sc}
	switch d := dst.(type) {
	case *evclient.QueryRequest:
		if q, ok := p.query(true); ok && p.end() {
			*d = q
			return true
		}
	case *evclient.MPERequest:
		if q, ok := p.query(false); ok && p.end() {
			d.Evidence = q.Evidence
			return true
		}
	}
	return false
}

// parser is a cursor over a body.
type parser struct {
	b  []byte
	i  int
	sc *scratch
	// src is one copy of b as a string, made for the first name a parse
	// keeps: every name is a slice of it, so a body's names cost one
	// allocation together, and keep that copy alive while any of them lives.
	src string
}

// str returns name, a slice of p.b, as a slice of p.src.
func (p *parser) str(name []byte) string {
	if p.src == "" {
		p.src = string(p.b)
	}
	lo := cap(p.b) - cap(name) // name's offset in p.b
	return p.src[lo : lo+len(name)]
}

func (p *parser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// next consumes c, after white space, if it comes next.
func (p *parser) next(c byte) bool {
	p.space()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *parser) end() bool {
	p.space()
	return p.i == len(p.b)
}

// list scans open, members separated by commas, and close; member scans one
// member and reports whether it was well formed.
func (p *parser) list(open, close byte, member func() bool) bool {
	if !p.next(open) {
		return false
	}
	if p.next(close) {
		return true
	}
	for member() {
		if p.next(close) {
			return true
		}
		if !p.next(',') {
			return false
		}
	}
	return false
}

// name scans a string of printable ASCII without escapes.
func (p *parser) name() ([]byte, bool) {
	if !p.next('"') {
		return nil, false
	}
	for j := p.i; j < len(p.b); j++ {
		switch c := p.b[j]; {
		case c == '"':
			s := p.b[p.i:j]
			p.i = j + 1
			return s, true
		case c < 0x20 || c >= utf8.RuneSelf || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// integer scans a JSON integer that fits an int: no fraction, no exponent,
// at most 18 digits.
func (p *parser) integer() (int, bool) {
	p.space()
	neg := p.i < len(p.b) && p.b[p.i] == '-'
	if neg {
		p.i++
	}
	start, n := p.i, 0
	for ; p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9'; p.i++ {
		n = n*10 + int(p.b[p.i]-'0')
	}
	digits := p.i - start
	if digits == 0 || digits > 18 || (digits > 1 && p.b[start] == '0') {
		return 0, false
	}
	if p.i < len(p.b) && (p.b[p.i] == '.' || p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		return 0, false
	}
	if neg {
		n = -n
	}
	return n, true
}

// query scans one query object: "evidence" and, when targets, "query", each at
// most once, and no other member.
func (p *parser) query(targets bool) (q evclient.QueryRequest, ok bool) {
	member := func() bool {
		name, ok := p.name()
		if !ok || !p.next(':') {
			return false
		}
		switch {
		case string(name) == "evidence" && q.Evidence == nil:
			q.Evidence, ok = p.evidence()
		case targets && string(name) == "query" && q.Query == nil:
			q.Query, ok = p.names()
		default:
			ok = false
		}
		return ok
	}
	return q, p.list('{', '}', member)
}

// evidence scans {name: integer, …}. Pairs are collected first, so the map is
// made at its size; a repeated name keeps its last state, as in encoding/json.
func (p *parser) evidence() (evprop.Evidence, bool) {
	pairs := p.sc.pairs[:0]
	ok := p.list('{', '}', func() bool {
		name, ok := p.name()
		if !ok || !p.next(':') {
			return false
		}
		n, ok := p.integer()
		pairs = append(pairs, namedInt{name, n})
		return ok
	})
	p.sc.pairs = pairs
	if !ok {
		return nil, false
	}
	ev := make(evprop.Evidence, len(pairs))
	for _, kv := range pairs {
		ev[p.str(kv.name)] = kv.n
	}
	return ev, true
}

// names scans [name, …].
func (p *parser) names() ([]string, bool) {
	pairs := p.sc.pairs[:0]
	ok := p.list('[', ']', func() bool {
		name, ok := p.name()
		pairs = append(pairs, namedInt{name: name})
		return ok
	})
	p.sc.pairs = pairs
	if !ok {
		return nil, false
	}
	out := make([]string, len(pairs))
	for i, kv := range pairs {
		out[i] = p.str(kv.name)
	}
	return out, true
}

// appendQuery sets sc.b to r's encoding, newline included, and reports
// whether r held no NaN and no infinity; appendMPE does so for an MPE answer.
// TestAppendedFieldsPinned holds the members they write to the types' json
// tags.
func (sc *scratch) appendQuery(r *evclient.QueryResponse) bool {
	a := appender{b: sc.b[:0], keys: sc.keys[:0]}
	a.raw(`{"p_evidence":`)
	a.float(r.PEvidence)
	a.raw(`,"posteriors":`)
	a.posteriors(r.Posteriors)
	a.modelVersion(r.Model, r.Version)
	return sc.end(&a)
}

func (sc *scratch) appendMPE(r *evclient.MPEResponse) bool {
	a := appender{b: sc.b[:0], keys: sc.keys[:0]}
	a.raw(`{"assignment":`)
	a.assignment(r.Assignment)
	a.raw(`,"probability":`)
	a.float(r.Probability)
	a.modelVersion(r.Model, r.Version)
	return sc.end(&a)
}

// end closes the answer a appended and keeps its buffers.
func (sc *scratch) end(a *appender) bool {
	a.raw("}\n")
	sc.b, sc.keys = a.b, a.keys
	return !a.bad
}

// appender writes JSON as json.Encoder does: struct fields in declaration
// order, map keys sorted, HTML-escaped strings, encoding/json's floats.
type appender struct {
	b    []byte
	keys []string
	bad  bool // a NaN or an infinity, which encoding/json refuses
}

func (a *appender) raw(s string) { a.b = append(a.b, s...) }

func (a *appender) comma(i int) {
	if i > 0 {
		a.b = append(a.b, ',')
	}
}

// modelVersion writes the omitempty model and version members that close
// every answer.
func (a *appender) modelVersion(model string, version int64) {
	if model != "" {
		a.raw(`,"model":`)
		a.str(model)
	}
	if version != 0 {
		a.raw(`,"version":`)
		a.b = strconv.AppendInt(a.b, version, 10)
	}
}

// sortedKeys loads a.keys with m's keys in encoding/json's order.
func sortedKeys[V any](a *appender, m map[string]V) []string {
	a.keys = a.keys[:0]
	for k := range m {
		a.keys = append(a.keys, k)
	}
	slices.Sort(a.keys)
	return a.keys
}

func (a *appender) posteriors(m map[string][]float64) {
	if m == nil {
		a.raw("null")
		return
	}
	a.raw("{")
	for i, k := range sortedKeys(a, m) {
		a.comma(i)
		a.str(k)
		a.raw(":")
		if p := m[k]; p == nil {
			a.raw("null")
		} else {
			a.raw("[")
			for j, f := range p {
				a.comma(j)
				a.float(f)
			}
			a.raw("]")
		}
	}
	a.raw("}")
}

func (a *appender) assignment(m map[string]int) {
	if m == nil {
		a.raw("null")
		return
	}
	a.raw("{")
	for i, k := range sortedKeys(a, m) {
		a.comma(i)
		a.str(k)
		a.raw(":")
		a.b = strconv.AppendInt(a.b, int64(m[k]), 10)
	}
	a.raw("}")
}

// float is encoding/json's float64; a NaN or an infinity marks the answer
// bad.
func (a *appender) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		a.bad = true
		return
	}
	a.b = appendJSONFloat(a.b, f)
}

// appendJSONFloat is encoding/json's float64, f finite: the shortest
// representation, in exponent form below 1e-6 and from 1e21, with e-07
// written e-7.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

const hexDigits = "0123456789abcdef"

// str is encoding/json's HTML-escaping string encoder.
func (a *appender) str(s string) { a.b = append(appendJSONString(append(a.b, '"'), s, true), '"') }

// appendJSONString appends s's JSON escape, without the quotes: '"' and '\\'
// backslashed, \n, \r and \t short, other control characters as \u00XX,
// invalid UTF-8 as the escaped U+FFFD, and U+2028 and U+2029 escaped. With
// html it is encoding/json's encoder, which also escapes <, > and & as \u00XX
// and writes \b and \f short; without, it is slog's JSON handler.
func appendJSONString(b []byte, s string, html bool) []byte {
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && (!html || c != '<' && c != '>' && c != '&') {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch {
			case c == '"', c == '\\':
				b = append(b, '\\', c)
			case c == '\n':
				b = append(b, '\\', 'n')
			case c == '\r':
				b = append(b, '\\', 'r')
			case c == '\t':
				b = append(b, '\\', 't')
			case html && c == '\b':
				b = append(b, '\\', 'b')
			case html && c == '\f':
				b = append(b, '\\', 'f')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029: // line and paragraph separators
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(b, s[start:]...)
}
