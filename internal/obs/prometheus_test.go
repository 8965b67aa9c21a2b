package obs

import (
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// writeFamily writes a fixed histogram family through the three writers:
// buckets le 1e-06, 4e-06 and +Inf holding counts[0..2], the second with ex
// as its exemplar, then _sum and _count.
func writeFamily(w io.Writer, name string, counts [3]float64, sum float64, ex *Exemplar) {
	WriteHeader(w, name, "Test latencies.", "histogram")
	for i, le := range []string{"1e-06", "4e-06", "+Inf"} {
		var e *Exemplar
		if i == 1 {
			e = ex
		}
		WriteSampleExemplar(w, name+"_bucket", map[string]string{"model": "m", "le": le}, counts[i], e)
	}
	WriteSample(w, name+"_sum", map[string]string{"model": "m"}, sum)
	WriteSample(w, name+"_count", map[string]string{"model": "m"}, counts[2])
}

// TestHistogramPrometheusGolden locks the exposition format of a histogram
// family: any accidental change to metric names, label order, value rendering
// or the exemplar trailer shows up as a diff against this golden.
func TestHistogramPrometheusGolden(t *testing.T) {
	ex := &Exemplar{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", Value: 3e-06, Ts: time.Unix(1700000000, 250e6)}
	var buf strings.Builder
	writeFamily(&buf, "test_seconds", [3]float64{1, 2, 2}, 4e-06, ex)
	want := `# HELP test_seconds Test latencies.
# TYPE test_seconds histogram
test_seconds_bucket{le="1e-06",model="m"} 1
test_seconds_bucket{le="4e-06",model="m"} 2 # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 3e-06 1700000000.250
test_seconds_bucket{le="+Inf",model="m"} 2
test_seconds_sum{model="m"} 4e-06
test_seconds_count{model="m"} 2
`
	if got := buf.String(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriteSampleEscaping(t *testing.T) {
	var buf strings.Builder
	WriteSample(&buf, "m", map[string]string{"b": "x", "a": `q"\`}, 1)
	// Labels render in sorted key order with escaped values.
	want := `m{a="q\"\\",b="x"} 1` + "\n"
	if buf.String() != want {
		t.Errorf("got %q, want %q", buf.String(), want)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		1:     "1",
		0.25:  "0.25",
		1e-06: "1e-06",
	}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", in, got, want)
		}
	}
	if got := formatValue(math.Inf(1)); got != "+Inf" {
		t.Errorf("+Inf renders as %q", got)
	}
	if got := formatValue(math.NaN()); got != "NaN" {
		t.Errorf("NaN renders as %q", got)
	}
}
