// Package audit is the durable half of the observability stack: a
// wait-free batching writer that spills completed queries — evidence,
// requested variables, the model build they ran against, and the answer
// they got — into tamper-evident, Merkle-chained batches on a pluggable
// store. Segments written by one process are verifiable and replayable
// offline (cmd/evreplay): the chain proves no record was altered, dropped
// or reordered after the fact, and each record carries everything needed
// to re-execute its query against a live server or a fresh engine build.
//
// The package is deliberately engine-agnostic: records are plain data,
// stores are byte sinks, and the writer never blocks a producer — the
// serving hot path pays one atomic fetch-add and one atomic pointer store
// per query, the same budget as the in-memory flight recorder.
package audit

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Record kinds. A query record replays as POST /v1/models/{m}/query and
// compares P(e) + posteriors; an MPE record replays as /mpe and compares
// the assignment and its probability.
const (
	KindQuery = uint8(iota)
	KindMPE
)

// recordVersion is the canonical encoding's format version byte. Version 2
// adds the fingerprint after the model version; version 1 records decode
// with an empty one. Decoders reject other versions instead of guessing.
const recordVersion = 2

// Record is one audited query: the request (evidence, requested
// variables), the engine build that answered (model name + version), and
// the recorded answer. It is self-contained — replaying a record needs
// nothing but the record and a server holding the same model.
type Record struct {
	// Seq is the record's position in the writer's lifetime sequence,
	// assigned at enqueue. Gaps in a segment's sequence are records the
	// ring dropped under backpressure (counted, never silent).
	Seq uint64 `json:"seq"`
	// TimeUnixNano is when the query completed; load-mode replay paces
	// itself from consecutive records' timestamps.
	TimeUnixNano int64 `json:"time_unix_nano"`
	// Kind is KindQuery or KindMPE.
	Kind uint8 `json:"kind"`
	// ID is the query ID the request ran under (X-Query-ID).
	ID string `json:"id"`
	// Model and Version name the engine build that answered, and
	// Fingerprint (evprop.Fingerprint, "" in a version 1 record) what its
	// bits depend on besides the model bytes and the evidence.
	Model       string `json:"model"`
	Version     int64  `json:"version"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Cached marks answers served without their own propagation (result
	// cache or singleflight).
	Cached bool `json:"cached"`
	// ElapsedUsec is the recorded serving latency.
	ElapsedUsec float64 `json:"elapsed_usec"`
	// Evidence is the query's hard evidence by variable name.
	Evidence map[string]int `json:"evidence,omitempty"`
	// Query lists the requested posterior variables in request order
	// (empty = every non-evidence variable).
	Query []string `json:"query,omitempty"`
	// Error is the recorded failure ("" on success). Replay expects the
	// same query to fail again; a now-succeeding query is a divergence.
	Error string `json:"error,omitempty"`
	// PEvidence and Posteriors are a query record's recorded answer.
	PEvidence  float64              `json:"p_evidence"`
	Posteriors map[string][]float64 `json:"posteriors,omitempty"`
	// Assignment and Probability are an MPE record's recorded answer.
	Assignment  map[string]int `json:"assignment,omitempty"`
	Probability float64        `json:"probability,omitempty"`
}

// Encode returns the record's canonical binary form: a fixed field order,
// map keys sorted, strings length-prefixed, and floats as their exact
// IEEE-754 bit patterns. Two semantically equal records always encode to
// identical bytes (the Merkle leaves hash these bytes), and every float
// round-trips bit-exactly — the property evreplay's differential mode
// rests on.
func (r *Record) Encode() []byte {
	buf := make([]byte, 0, 128+16*len(r.Evidence)+32*len(r.Posteriors))
	buf = append(buf, recordVersion, r.Kind)
	buf = binary.AppendUvarint(buf, r.Seq)
	buf = binary.AppendVarint(buf, r.TimeUnixNano)
	buf = appendString(buf, r.ID)
	buf = appendString(buf, r.Model)
	buf = binary.AppendVarint(buf, r.Version)
	buf = appendString(buf, r.Fingerprint)
	buf = append(buf, b2u8(r.Cached))
	buf = appendFloat(buf, r.ElapsedUsec)
	buf = binary.AppendUvarint(buf, uint64(len(r.Evidence)))
	for _, name := range sortedKeys(r.Evidence) {
		buf = appendString(buf, name)
		buf = binary.AppendUvarint(buf, uint64(r.Evidence[name]))
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.Query)))
	for _, name := range r.Query {
		buf = appendString(buf, name)
	}
	buf = appendString(buf, r.Error)
	buf = appendFloat(buf, r.PEvidence)
	buf = binary.AppendUvarint(buf, uint64(len(r.Posteriors)))
	for _, name := range sortedFloatKeys(r.Posteriors) {
		buf = appendString(buf, name)
		p := r.Posteriors[name]
		buf = binary.AppendUvarint(buf, uint64(len(p)))
		for _, x := range p {
			buf = appendFloat(buf, x)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.Assignment)))
	for _, name := range sortedKeys(r.Assignment) {
		buf = appendString(buf, name)
		buf = binary.AppendUvarint(buf, uint64(r.Assignment[name]))
	}
	buf = appendFloat(buf, r.Probability)
	return buf
}

// DecodeRecord parses one canonically-encoded record. Every length is
// bounds-checked against the remaining input, so corrupted or truncated
// payloads fail cleanly instead of panicking or over-allocating.
func DecodeRecord(data []byte) (*Record, error) {
	d := &decoder{data: data}
	v := d.byte()
	if v != 1 && v != recordVersion {
		if d.err == nil {
			d.err = fmt.Errorf("audit: unsupported record version %d", v)
		}
		return nil, d.err
	}
	r := &Record{}
	r.Kind = d.byte()
	r.Seq = d.uvarint()
	r.TimeUnixNano = d.varint()
	r.ID = d.string()
	r.Model = d.string()
	r.Version = d.varint()
	if v >= 2 {
		r.Fingerprint = d.string()
	}
	r.Cached = d.byte() != 0
	r.ElapsedUsec = d.float()
	if n := d.count(); n > 0 {
		r.Evidence = make(map[string]int, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			name := d.string()
			r.Evidence[name] = int(d.uvarint())
		}
	}
	if n := d.count(); n > 0 {
		r.Query = make([]string, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			r.Query = append(r.Query, d.string())
		}
	}
	r.Error = d.string()
	r.PEvidence = d.float()
	if n := d.count(); n > 0 {
		r.Posteriors = make(map[string][]float64, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			name := d.string()
			m := d.count()
			p := make([]float64, 0, m)
			for j := uint64(0); j < m && d.err == nil; j++ {
				p = append(p, d.float())
			}
			r.Posteriors[name] = p
		}
	}
	if n := d.count(); n > 0 {
		r.Assignment = make(map[string]int, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			name := d.string()
			r.Assignment[name] = int(d.uvarint())
		}
	}
	r.Probability = d.float()
	if d.err != nil {
		return nil, d.err
	}
	if len(d.data) != d.off {
		return nil, fmt.Errorf("audit: %d trailing bytes after record", len(d.data)-d.off)
	}
	return r, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendFloat(buf []byte, x float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
}

func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedFloatKeys(m map[string][]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// decoder is a cursor over one record's bytes; the first failure sticks
// and every later read returns zeros, so call sites stay linear.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("audit: truncated record: %s at offset %d", what, d.off)
	}
}

func (d *decoder) byte() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.data) {
		d.fail("byte")
		return 0
	}
	b := d.data[d.off]
	d.off++
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

// count reads a collection length and bounds it by the bytes remaining
// (every element costs at least one byte), so a corrupted length cannot
// drive a huge allocation.
func (d *decoder) count() uint64 {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.data)-d.off) {
		d.fail("length")
		return 0
	}
	return n
}

func (d *decoder) string() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	s := string(d.data[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *decoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.data) {
		d.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.off:]))
	d.off += 8
	return v
}
