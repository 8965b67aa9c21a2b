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
// a route accepts and every error it answers are encoding/json's. writeJSON
// appends the query and MPE answers byte for byte as json.Encoder writes
// them; anything else, and an answer with a NaN or an infinity, goes through
// json.Encoder. FuzzQueryBody and FuzzQueryResponse hold both to it. Batch
// bodies and answers go through encoding/json: no measurement asks for more.

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

// readJSON decodes a POST body into dst; on failure it has already
// answered the request (405 on wrong method, 400 envelope on bad JSON).
func (s *server) readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		s.writeErrorCode(w, r, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return false
	}
	sc := getScratch()
	defer putScratch(sc)
	var err error
	sc.b, err = readAll(sc.b[:0], r.Body, maxPooledBody)
	if err == nil && len(sc.b) <= maxPooledBody && sc.parse(dst) {
		return true
	}
	// The decoder reads what arrived, then the rest of the body — nothing when
	// it was whole — or the read's error, as it did when it read the body itself.
	var rest io.Reader = r.Body
	if err != nil {
		rest = failedReader{err}
	}
	if err := json.NewDecoder(io.MultiReader(bytes.NewReader(sc.b), rest)).Decode(dst); err != nil {
		s.writeErrorCode(w, r, http.StatusBadRequest, "bad_request", "invalid JSON: "+err.Error())
		return false
	}
	return true
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

// writeJSON answers 200 with a JSON body.
func (s *server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	sc := getScratch()
	defer putScratch(sc)
	var err error
	if sc.appendAnswer(v) {
		_, err = w.Write(sc.b)
	} else {
		err = json.NewEncoder(w).Encode(v)
	}
	if err != nil {
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
		ev[string(kv.name)] = kv.n
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
		out[i] = string(kv.name)
	}
	return out, true
}

// appendAnswer sets sc.b to v's encoding, newline included, when v is a
// query or MPE answer without a NaN or an infinity, and reports whether it
// did. TestAppendedFieldsPinned holds the members it writes to the types'
// json tags.
func (sc *scratch) appendAnswer(v any) bool {
	a := appender{b: sc.b[:0], keys: sc.keys[:0]}
	switch r := v.(type) {
	case evclient.QueryResponse:
		a.raw(`{"p_evidence":`)
		a.float(r.PEvidence)
		a.raw(`,"posteriors":`)
		a.posteriors(r.Posteriors)
		a.modelVersion(r.Model, r.Version)
	case evclient.MPEResponse:
		a.raw(`{"assignment":`)
		a.assignment(r.Assignment)
		a.raw(`,"probability":`)
		a.float(r.Probability)
		a.modelVersion(r.Model, r.Version)
	default:
		return false
	}
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

// float is encoding/json's float64: the shortest representation, in
// exponent form below 1e-6 and from 1e21, with e-07 written e-7.
func (a *appender) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		a.bad = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	a.b = strconv.AppendFloat(a.b, f, format, -1, 64)
	if n := len(a.b); format == 'e' && a.b[n-4] == 'e' && a.b[n-3] == '-' && a.b[n-2] == '0' {
		a.b[n-2] = a.b[n-1]
		a.b = a.b[:n-1]
	}
}

const hexDigits = "0123456789abcdef"

// str is encoding/json's HTML-escaping string encoder: <, > and & as \u00XX,
// control characters short where JSON has a short form, invalid UTF-8 as
// the escaped U+FFFD, and U+2028 and U+2029 escaped.
func (a *appender) str(s string) {
	b := append(a.b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
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
	a.b = append(append(b, s[start:]...), '"')
}
