package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestEscapeLabel locks the exposition-format escaping rules for the three
// characters the format requires quoting.
func TestEscapeLabel(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"plain", `hello world`, `hello world`},
		{"backslash", `C:\temp`, `C:\\temp`},
		{"double-quote", `say "hi"`, `say \"hi\"`},
		{"newline", "line1\nline2", `line1\nline2`},
		{"all-three", "a\\\"b\"\nc", `a\\\"b\"\nc`},
		{"backslash-n-literal", `already\n`, `already\\n`},
		{"empty", ``, ``},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := escapeLabel(c.in); got != c.want {
				t.Errorf("escapeLabel(%q) = %q, want %q", c.in, got, c.want)
			}
		})
	}
}

// TestEscapeLabelRoundTrip: whatever goes through WriteSample must come back
// byte-identical through the lint parser — escaping and unescaping are
// inverses.
func TestEscapeLabelRoundTrip(t *testing.T) {
	values := []string{
		`plain`, `back\slash`, `"quoted"`, "new\nline", "mix\\\"\n\\n", `trailing\`,
	}
	for _, v := range values {
		var b strings.Builder
		WriteSample(&b, "m", map[string]string{"v": v}, 1)
		_, labels, _, err := parseSampleLine(strings.TrimSuffix(b.String(), "\n"))
		if err != nil {
			t.Fatalf("value %q: %v (line %q)", v, err, b.String())
		}
		if labels["v"] != v {
			t.Errorf("value %q round-tripped to %q", v, labels["v"])
		}
	}
}

// TestHistogramExpositionConformance: a populated histogram family — monotone
// cumulative buckets, a terminal +Inf bucket equal to _count, a _sum — lints
// clean, and a histogram's own +Inf bucket, overflow included, is its count.
// cmd/evserve's TestMetricsConformance lints the histogram the server renders.
func TestHistogramExpositionConformance(t *testing.T) {
	var b strings.Builder
	writeFamily(&b, "test_latency_seconds", [3]float64{1, 5, 7}, 7200.021, nil)
	out := b.String()
	if problems := LintExposition(strings.NewReader(out)); len(problems) != 0 {
		t.Fatalf("conformance problems:\n%s\nin:\n%s", strings.Join(problems, "\n"), out)
	}
	h := &Histogram{}
	for _, d := range []time.Duration{
		0, time.Microsecond, 50 * time.Microsecond, time.Millisecond,
		20 * time.Millisecond, time.Second, 2 * time.Hour, // overflow bucket
	} {
		h.Observe(d)
	}
	if bounds, cumulative := h.Buckets(); !math.IsInf(bounds[len(bounds)-1], 1) || cumulative[len(cumulative)-1] != 7 || h.Count() != 7 {
		t.Errorf("last bound %v holds %d of %d observations", bounds[len(bounds)-1], cumulative[len(cumulative)-1], h.Count())
	}
}

// TestEmptyHistogramConformance: an empty family — all-zero buckets, the +Inf
// terminal, zero _count and _sum — is still complete and consistent.
func TestEmptyHistogramConformance(t *testing.T) {
	var b strings.Builder
	writeFamily(&b, "empty_seconds", [3]float64{}, 0, nil)
	if problems := LintExposition(strings.NewReader(b.String())); len(problems) != 0 {
		t.Fatalf("conformance problems:\n%s", strings.Join(problems, "\n"))
	}
	if !strings.Contains(b.String(), `empty_seconds_bucket{le="+Inf",model="m"} 0`) {
		t.Errorf("empty family lacks +Inf bucket:\n%s", b.String())
	}
}

// TestHistogramExemplarConformance: an exemplar surfaces as an OpenMetrics
// trailer on its bucket line and the family still lints clean (the linter
// validates the trailer grammar too); a histogram keeps one only where one
// was set, in the set observation's bucket.
func TestHistogramExemplarConformance(t *testing.T) {
	var b strings.Builder
	writeFamily(&b, "ex_seconds", [3]float64{1, 2, 3}, 0.021,
		&Exemplar{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", Value: 0.001, Ts: time.Now()})
	out := b.String()
	if problems := LintExposition(strings.NewReader(out)); len(problems) != 0 {
		t.Fatalf("conformance problems:\n%s\nin:\n%s", strings.Join(problems, "\n"), out)
	}
	if !strings.Contains(out, `# {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 0.001 `) {
		t.Errorf("missing exemplar trailer in:\n%s", out)
	}
	if got := strings.Count(out, "# {trace_id="); got != 1 {
		t.Errorf("%d exemplar trailers, want 1:\n%s", got, out)
	}

	h := &Histogram{}
	h.Observe(10 * time.Microsecond) // its trace dropped: no exemplar
	h.Observe(time.Millisecond)
	h.SetExemplar(time.Millisecond, "4bf92f3577b34da6a3ce929d0e0e4736") // its trace kept
	traced := histBucketOf(int64(time.Millisecond))
	for i := 0; i <= histBuckets; i++ {
		if ex := h.BucketExemplar(i); (ex != nil) != (i == traced) {
			t.Errorf("bucket %d has exemplar %+v; only bucket %d is traced", i, ex, traced)
		}
	}
	if ex := h.BucketExemplar(traced); ex == nil || ex.Value != 0.001 || ex.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("BucketExemplar = %+v", ex)
	}
	if h.BucketExemplar(-1) != nil || h.BucketExemplar(histBuckets+1) != nil {
		t.Error("out-of-range BucketExemplar should be nil")
	}
}

// TestLintExpositionCatches: the linter must actually flag the defect
// classes it exists for (a linter that passes everything proves nothing).
func TestLintExpositionCatches(t *testing.T) {
	cases := []struct {
		name, payload, wantProblem string
	}{
		{
			"missing help",
			"# TYPE x counter\nx 1\n",
			"no # HELP",
		},
		{
			"missing type",
			"# HELP x about x\nx 1\n",
			"no # TYPE",
		},
		{
			"histogram without +Inf",
			"# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 1\nh_count 2\n",
			"no terminal +Inf",
		},
		{
			"count mismatch",
			"# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
			"_count 3 != +Inf bucket 2",
		},
		{
			"missing sum",
			"# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n",
			"missing _sum",
		},
		{
			"non-monotone buckets",
			"# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
			"cumulative count decreases",
		},
		{
			"garbage line",
			"# HELP x about x\n# TYPE x counter\nnot a metric at all }{\n",
			"line 3",
		},
		{
			"unterminated label",
			"# HELP x about x\n# TYPE x counter\nx{a=\"b} 1\n",
			"unterminated",
		},
		{
			"exemplar on a counter",
			"# HELP x about x\n# TYPE x counter\nx 1 # {trace_id=\"4bf92f3577b34da6a3ce929d0e0e4736\"} 1 1.0\n",
			"allowed only on histogram _bucket",
		},
		{
			"exemplar on histogram _sum",
			"# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1 # {trace_id=\"4bf92f3577b34da6a3ce929d0e0e4736\"} 1 1.0\nh_count 1\n",
			"allowed only on histogram _bucket",
		},
		{
			"exemplar trace_id not hex",
			"# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1 # {trace_id=\"XYZ\"} 1 1.0\nh_sum 1\nh_count 1\n",
			"not 32 lowercase hex",
		},
		{
			"exemplar without label set",
			"# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1 # 0.5\nh_sum 1\nh_count 1\n",
			"no label set",
		},
		{
			"exemplar with bad value",
			"# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1 # {trace_id=\"4bf92f3577b34da6a3ce929d0e0e4736\"} oops 1.0\nh_sum 1\nh_count 1\n",
			"bad value",
		},
		{
			"exemplar with bad timestamp",
			"# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1 # {trace_id=\"4bf92f3577b34da6a3ce929d0e0e4736\"} 1 later\nh_sum 1\nh_count 1\n",
			"bad timestamp",
		},
		{
			"exemplar with extra fields",
			"# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1 # {trace_id=\"4bf92f3577b34da6a3ce929d0e0e4736\"} 1 1.0 extra\nh_sum 1\nh_count 1\n",
			"want `value [timestamp]`",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			problems := LintExposition(strings.NewReader(c.payload))
			for _, p := range problems {
				if strings.Contains(p, c.wantProblem) {
					return
				}
			}
			t.Errorf("problems %v do not mention %q", problems, c.wantProblem)
		})
	}
}

// TestLintExpositionCleanPayload: a well-formed mixed payload yields no
// problems (guards against linter false positives).
func TestLintExpositionCleanPayload(t *testing.T) {
	payload := `# HELP up Whether the target is up.
# TYPE up gauge
up 1
# HELP rpc_seconds RPC latency.
# TYPE rpc_seconds histogram
rpc_seconds_bucket{le="0.1"} 1
rpc_seconds_bucket{le="+Inf"} 3
rpc_seconds_sum 0.5
rpc_seconds_count 3
# HELP reqs_total Requests.
# TYPE reqs_total counter
reqs_total{code="200",path="/v1/models/{name}/query"} 10
reqs_total{code="500",path="/v1/models/{name}/que\"ry\n"} 0
`
	if problems := LintExposition(strings.NewReader(payload)); len(problems) != 0 {
		t.Errorf("unexpected problems: %v", problems)
	}
}
