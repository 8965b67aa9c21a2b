package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestHistogramPrometheusGolden locks the exposition format: any accidental
// change to metric names, label order or value rendering shows up as a diff
// against this golden prefix.
func TestHistogramPrometheusGolden(t *testing.T) {
	var h Histogram
	h.Observe(time.Microsecond)     // bucket 0: le 1e-06
	h.Observe(3 * time.Microsecond) // bucket 2: le 4e-06
	var buf strings.Builder
	h.WritePrometheus(&buf, "test_seconds", "Test latencies.")
	got := buf.String()
	wantPrefix := `# HELP test_seconds Test latencies.
# TYPE test_seconds histogram
test_seconds_bucket{le="1e-06"} 1
test_seconds_bucket{le="2e-06"} 1
test_seconds_bucket{le="4e-06"} 2
`
	if !strings.HasPrefix(got, wantPrefix) {
		t.Errorf("output does not start with golden prefix.\ngot:\n%s\nwant prefix:\n%s", got, wantPrefix)
	}
	for _, want := range []string{
		"\ntest_seconds_bucket{le=\"+Inf\"} 2\n",
		"\ntest_seconds_sum 4e-06\n",
		"\ntest_seconds_count 2\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", strings.TrimSpace(want), got)
		}
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
