package audit

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"testing"
)

func sampleRecord() *Record {
	return &Record{
		Seq:          42,
		TimeUnixNano: 1723100000123456789,
		Kind:         KindQuery,
		ID:           "q-9f2c41d3-17",
		Model:        "alarm",
		Version:      3,
		Cached:       true,
		ElapsedUsec:  812.25,
		Evidence:     map[string]int{"XRay": 1, "Asia": 0},
		Query:        []string{"Lung", "Bronc"},
		PEvidence:    0.112233,
		Posteriors: map[string][]float64{
			"Lung":  {0.5125, 0.4875},
			"Bronc": {0.3333333333333333, 0.6666666666666667},
		},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	cases := []*Record{
		sampleRecord(),
		{}, // zero record must survive too
		{
			Kind:        KindMPE,
			Model:       "default",
			Assignment:  map[string]int{"A": 1, "B": 0},
			Probability: 0.25,
		},
		{Error: "evprop: unknown variable \"Zz\"", Evidence: map[string]int{"Zz": 1}},
		{PEvidence: math.Float64frombits(0x3fd5555555555555)}, // exact bit pattern
		{Model: "wide60", Version: 2, Fingerprint: "scheme=2 workers=4"},
	}
	for i, want := range cases {
		got, err := DecodeRecord(want.Encode())
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestRecordEncodeCanonical: semantically equal records encode to
// identical bytes regardless of map construction order — the property
// the Merkle leaves require.
func TestRecordEncodeCanonical(t *testing.T) {
	a := sampleRecord()
	b := sampleRecord()
	b.Evidence = map[string]int{}
	b.Evidence["Asia"] = 0 // reversed insertion order
	b.Evidence["XRay"] = 1
	b.Posteriors = map[string][]float64{
		"Bronc": {0.3333333333333333, 0.6666666666666667},
		"Lung":  {0.5125, 0.4875},
	}
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("equal records encoded differently")
	}
}

// TestRecordFloatBitExact: float fields survive encode/decode with their
// exact bit patterns, including negative zero and NaN payloads.
func TestRecordFloatBitExact(t *testing.T) {
	specials := []uint64{
		math.Float64bits(math.Copysign(0, -1)),
		0x7ff8000000000001, // NaN with payload
		math.Float64bits(math.Inf(1)),
		math.Float64bits(5e-324), // smallest denormal
	}
	for _, bits := range specials {
		r := &Record{PEvidence: math.Float64frombits(bits), Posteriors: map[string][]float64{"X": {math.Float64frombits(bits)}}}
		got, err := DecodeRecord(r.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.PEvidence) != bits {
			t.Fatalf("p_evidence bits %x != %x", math.Float64bits(got.PEvidence), bits)
		}
		if math.Float64bits(got.Posteriors["X"][0]) != bits {
			t.Fatalf("posterior bits changed")
		}
	}
}

// TestDecodeRecordCorrupt: arbitrary prefixes and bit flips must fail
// cleanly (error), never panic or silently decode to a wrong record that
// still matches the original.
func TestDecodeRecordCorrupt(t *testing.T) {
	payload := sampleRecord().Encode()
	for cut := 0; cut < len(payload); cut++ {
		if _, err := DecodeRecord(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	if _, err := DecodeRecord(append([]byte(nil), append(payload, 0xff)...)); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
	if _, err := DecodeRecord([]byte{recordVersion + 1}); err == nil {
		t.Fatal("unknown version decoded without error")
	}
}

// TestRecordDecodesVersion1 decodes sampleRecord as the version 1 codec
// wrote it, without a fingerprint: every field survives and the fingerprint
// is empty.
func TestRecordDecodesVersion1(t *testing.T) {
	v1, err := hex.DecodeString("01002aaab4acbdc394d7e92f0d712d39663263343164332d313705616c61726d060100000000006289400204417369610004585261790102044c756e670542726f6e63000e2f88484dbbbc3f020542726f6e6302555555555555d53f565555555555e53f044c756e6702666666666666e03f333333333333df3f000000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRecord(v1)
	if err != nil {
		t.Fatal(err)
	}
	if want := sampleRecord(); !reflect.DeepEqual(got, want) {
		t.Fatalf("version 1 record:\n got %+v\nwant %+v", got, want)
	}
	if enc := got.Encode(); enc[0] != 2 || bytes.Equal(enc, v1) {
		t.Errorf("re-encoded as version %d", enc[0])
	}
}
