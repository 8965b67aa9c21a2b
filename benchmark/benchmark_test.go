package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The benchmark starts its own binary as the reference server; under go test
// that binary is the test's.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == "--refserver" {
		os.Exit(refServe(os.Stderr))
	}
	os.Exit(m.Run())
}

// contract mirrors ../BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the tables in spec.go describe the same benchmark.
func TestContractMatchesSpec(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, spec.go %q/%q", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, spec.go %d", len(c.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := c.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != string(m.better) || got.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, spec.go %+v", i, got, m)
		}
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]contractMetric{}, c.EndToEnd...), c.PerLayer...) {
		if !nameRe.MatchString(m.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
		}
		if !unitRe.MatchString(m.Unit) {
			t.Errorf("%s: unit %q has characters outside [A-Za-z0-9_/%%.-]", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// contractLine is the last line of a run's standard output.
type contractLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func quickRun(t *testing.T, trace string, corrupt bool) (int, contractLine, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "small-miss", "--seed", "5", "--quick", "--trace", trace}
	code := run(context.Background(), args, &stdout, &stderr, corrupt)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last output line is not the result object: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	return code, line, stdout.String()
}

// The smoke run: one short round per phase on the small model. Each mode
// prints exactly the metrics BENCHMARK.json declares for it, with the
// declared units, every answer agrees with the reference, and the per-layer
// budget closes.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts evserve")
	}
	c := readContract(t)
	var layers contractLine
	for _, mode := range []struct {
		trace string
		want  []contractMetric
	}{{"0", c.EndToEnd}, {"1", c.PerLayer}} {
		code, line, out := quickRun(t, mode.trace, false)
		if code != 0 || !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Fatalf("--trace %s: exit %d, line %+v\n%s", mode.trace, code, line, out)
		}
		declared := map[string]bool{}
		for _, m := range mode.want {
			declared[m.Name] = true
			got, ok := line.Metrics[m.Name]
			if !ok {
				t.Errorf("--trace %s: metric %s is declared but not printed", mode.trace, m.Name)
				continue
			}
			if got.Unit != m.Unit {
				t.Errorf("--trace %s: %s printed in %q, declared in %q", mode.trace, m.Name, got.Unit, m.Unit)
			}
			if !strings.Contains(out, m.Name) {
				t.Errorf("--trace %s: %s missing from the readable listing", mode.trace, m.Name)
			}
		}
		for name := range line.Metrics {
			if !declared[name] {
				t.Errorf("--trace %s: metric %s is printed but not declared", mode.trace, name)
			}
		}
		layers = line
	}

	v := func(name string) float64 { return layers.Metrics[name].Value }
	near := func(what string, got, want float64) {
		if diff := got - want; diff > 1e-6*want || diff < -1e-6*want {
			t.Errorf("%s: %v != %v", what, got, want)
		}
	}
	near("envelope + server_side = request", v("evserve.envelope_us")+v("evserve.server_side_us"), v("evserve.request_us"))
	near("span children + unaccounted = root",
		v("evserve.span_cache_lookup_us")+v("evserve.span_absorb_us")+v("evserve.span_propagate_us")+v("evserve.span_collect_us")+v("evserve.span_unaccounted_us"),
		v("evserve.span_root_us"))
	near("overhead + serial = run_w1", v("sched.overhead_us")+v("taskgraph.serial_us"), v("sched.run_w1_us"))
	if v("jtree.cliques") != 34 || v("jtree.max_table_entries") != 128 || v("jtree.total_entries") != 914 {
		t.Errorf("small40 compiled to %v cliques, max table %v, %v entries; the workload is defined on 34, 128, 914",
			v("jtree.cliques"), v("jtree.max_table_entries"), v("jtree.total_entries"))
	}
}

// A reference that disagrees with the server must fail the run: the wrong
// answers are counted, listed, and turn the exit code non-zero.
func TestCorruptReferenceFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts evserve")
	}
	code, line, out := quickRun(t, "0", true)
	if code == 0 || line.Correct || line.Failed == 0 {
		t.Fatalf("corrupt reference: exit %d, correct %v, failed %d; want a failing run", code, line.Correct, line.Failed)
	}
	if !strings.Contains(out, "WRONG query evidence=") {
		t.Errorf("wrong answers are not listed with their evidence:\n%s", out)
	}
}

func TestJudge(t *testing.T) {
	lat := e2eMetric{name: "latency_p50_ms", better: lower, bound: 0.10}
	qps := e2eMetric{name: "throughput_qps", better: higher, bound: 0.10}
	setup := e2eMetric{name: "setup_s", better: lower, bound: 0.25, floor: 0.010}
	cases := []struct {
		m    e2eMetric
		a, b float64
		want verdict
	}{
		{lat, 1.0, 1.09, verdictOK},
		{lat, 1.0, 1.11, verdictWorse},
		{lat, 1.0, 0.5, verdictOK}, // better is never worse
		{qps, 1000, 910, verdictOK},
		{qps, 1000, 890, verdictWorse},
		{qps, 1000, 2000, verdictOK},
		{setup, 0.006, 0.012, verdictOK},    // doubled, but 6 ms is under the floor
		{setup, 0.040, 0.060, verdictWorse}, // +50 % and +20 ms
		{lat, 0, 1, verdictInvalid},
	}
	for _, c := range cases {
		if _, got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v -> %v) = %s, want %s", c.m.name, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareDocuments(t *testing.T) {
	doc := func(p50, late float64, failed int) *document {
		return &document{Workloads: map[string]*workloadResult{"small-miss": {
			Failed:    failed,
			LateShare: late,
			EndToEnd: map[string]metricValue{
				"latency_p50_ms": {Value: p50, Unit: "ms"},
				"paced_p50_ms":   {Value: 2, Unit: "ms"},
			},
		}}}
	}
	var out bytes.Buffer
	if code := compareDocuments(doc(1, 0, 0), doc(1.05, 0, 0), &out); code != 0 {
		t.Errorf("A/A within the bound: exit %d\n%s", code, out.String())
	}
	if code := compareDocuments(doc(1, 0, 0), doc(1.4, 0, 0), &out); code != 1 {
		t.Errorf("40 %% slower p50: exit %d, want 1", code)
	}
	out.Reset()
	if code := compareDocuments(doc(1, 0, 0), doc(1, 0.05, 0), &out); code != 2 || !strings.Contains(out.String(), "invalid") {
		t.Errorf("late generator: exit %d, want 2 and an invalid row\n%s", code, out.String())
	}
	if code := compareDocuments(doc(1, 0, 0), doc(1, 0, 3), &out); code != 2 {
		t.Errorf("failed requests: exit %d, want 2", code)
	}
	if code := compareDocuments(doc(1, 0, 0), &document{Workloads: map[string]*workloadResult{}}, &out); code != 2 {
		t.Errorf("no common workload: exit %d, want 2", code)
	}
}
