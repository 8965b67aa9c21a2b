package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file implements just enough of the Prometheus text exposition format
// (version 0.0.4) for /v1/metrics: HELP/TYPE headers, and sample lines with
// optional labels and an optional exemplar — from which cmd/evserve renders
// its counters, gauges and histograms (cumulative le buckets). Writing the
// format by hand keeps the container dependency-free; any Prometheus scraper
// parses it.

// WriteHeader emits the # HELP and # TYPE lines for a metric.
func WriteHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// formatValue renders a sample value the way Prometheus expects: shortest
// round-trip float, with +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// WriteSample emits one sample line. Labels are rendered in sorted key
// order so the output is deterministic (golden-testable).
func WriteSample(w io.Writer, name string, labels map[string]string, value float64) {
	fmt.Fprintf(w, "%s %s\n", seriesRef(name, labels), formatValue(value))
}

// WriteSampleExemplar emits one sample line with an OpenMetrics exemplar
// trailer, `… # {trace_id="…"} value timestamp`, linking the series to the
// distributed trace that produced a representative observation. A nil
// exemplar degrades to a plain sample line.
func WriteSampleExemplar(w io.Writer, name string, labels map[string]string, value float64, ex *Exemplar) {
	if ex == nil {
		WriteSample(w, name, labels, value)
		return
	}
	fmt.Fprintf(w, "%s %s # {trace_id=\"%s\"} %s %s\n",
		seriesRef(name, labels), formatValue(value),
		escapeLabel(ex.TraceID), formatValue(ex.Value),
		strconv.FormatFloat(float64(ex.Ts.UnixNano())/1e9, 'f', 3, 64))
}

// seriesRef renders `name{labels}` with labels in sorted key order.
func seriesRef(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, k, escapeLabel(labels[k]))
	}
	b.WriteByte('}')
	return b.String()
}
