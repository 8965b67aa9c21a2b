// Command benchmark is the repository's end-to-end load benchmark: it
// builds cmd/evserve, starts it on a generated model, drives it over
// loopback HTTP through evprop/client, checks the answers against an
// in-process serial reference engine, and reports end-to-end metrics
// (--trace 0) or a per-layer budget from a separate traced run (--trace 1).
// README.md defines every workload and metric.
//
//	go run -C benchmark . --workload small-miss --seed 1 --seconds 30 --trace 0
//	go run -C benchmark . --workload all --out a.json
//	go run -C benchmark . --compare a.json b.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"evprop"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr, false)
	stop()
	os.Exit(code)
}

// traceMode selects which of a workload's two runs are made.
const (
	traceOff  = 0 // end-to-end phases only, nothing traced
	traceOn   = 1 // the traced per-layer run only
	traceBoth = 2 // both, one after the other (the default by hand)
)

// run is main without the process exit, so tests can call it. corruptRef
// shifts one reference posterior (tests only).
func run(ctx context.Context, args []string, stdout, stderr io.Writer, corruptRef bool) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload name, or all")
		seed    = fs.Int64("seed", 1, "traffic seed: the same seed gives the same request streams")
		seconds = fs.Float64("seconds", 30, "measured seconds per run: a warm-up and 15 cycles of reference, solo, duo and paced slices")
		trace   = fs.Int("trace", traceBoth, "0 = end-to-end run, 1 = traced per-layer run, 2 = both")
		out     = fs.String("out", "", "also write the full result document (provenance, per-round values, spans) to this file")
		refsrv  = fs.Bool("refserver", false, "serve as the reference server (the benchmark starts itself in this mode)")
		quick   = fs.Bool("quick", false, "smoke run: one cycle of 0.3 s slices, 20 traced queries")
		compare = fs.Bool("compare", false, "compare two result documents: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *refsrv {
		return refServe(stderr)
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace < traceOff || *trace > traceBoth || *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: --trace must be 0, 1 or 2 and --seconds positive")
		return 2
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := workloadByName(*name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}

	modDir, err := moduleDir()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	bin, err := buildServer(ctx, modDir)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	doc := &document{Provenance: provenance(modDir, *seed, *seconds), Workloads: map[string]*workloadResult{}}
	code := 0
	for _, w := range todo {
		res, err := runWorkload(ctx, w, bin, modDir, *seed, planFor(*seconds, *quick), *trace, corruptRef)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		doc.Workloads[w.name] = res
		doc.Provenance.ServerFlags = res.serverFlags
		res.print(stdout, w)
		if res.Failed > 0 {
			code = 1
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(doc, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if len(todo) == 1 {
		// The contract line: the last line of standard output.
		res := doc.Workloads[todo[0].name]
		line, err := json.Marshal(res.contractLine())
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

// document is the result file: provenance plus one entry per workload run.
type document struct {
	Provenance provenanceInfo             `json:"provenance"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

// workloadResult is everything one workload's runs produced.
type workloadResult struct {
	Model string  `json:"model"`
	WallS float64 `json:"wall_s"`
	tally
	// Attempted and Failed cover every phase of every run made; FailedShare
	// is their ratio.
	Attempted   int     `json:"attempted"`
	Failed      int     `json:"failed"`
	FailedShare float64 `json:"failed_share"`
	// LateShare is the share of the end-to-end open-loop requests sent more
	// than lateLimit after their due time; above 1 % the run's paced_p90_ms
	// describes the generator, not the server.
	LateShare float64 `json:"paced_late_share"`
	// RefUs is the reference loop before and after the workload.
	RefUs    [2]float64             `json:"reference_loop_us"`
	EndToEnd map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	Spans    []span                 `json:"spans,omitempty"`

	serverFlags string
}

// contractLine is the one-line JSON object the driver reads.
func (r *workloadResult) contractLine() map[string]any {
	metrics := map[string]map[string]any{}
	for _, set := range []map[string]metricValue{r.EndToEnd, r.PerLayer} {
		for name, m := range set {
			metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	return map[string]any{
		"correct":   r.Failed == 0,
		"attempted": max(r.Attempted, 1),
		"failed":    r.Failed,
		"metrics":   metrics,
	}
}

// print lists every metric by name with its unit, then the accounting.
func (r *workloadResult) print(w io.Writer, wl workload) {
	fmt.Fprintf(w, "== %s (%s) — %.1f s wall\n", wl.name, wl.model, r.WallS)
	for _, set := range []map[string]metricValue{r.EndToEnd, r.PerLayer} {
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "%-34s %14.6g %s\n", name, set[name].Value, set[name].Unit)
		}
	}
	for _, phase := range []string{"warmup", "solo", "duo", "paced", "traced"} {
		if p := r.Phases[phase]; p != nil {
			fmt.Fprintf(w, "phase %-7s sent %7d  succeeded %7d  failed %d\n", phase, p.Sent, p.Succeeded, p.Failed)
		}
	}
	fmt.Fprintf(w, "answers checked against the reference: %d, wrong: %d; failed_share %.6f\n", r.Checked, len(r.Wrong), r.FailedShare)
	for i, wa := range r.Wrong {
		if i == 5 {
			break
		}
		fmt.Fprintf(w, "WRONG %s: %s\n", wa.Request, wa.Diff)
	}
}

// runWorkload makes the end-to-end run, the traced run, or both, for one
// workload. Everything it creates lives in one directory under the
// benchmark's .work/, removed on every return path along with the server.
func runWorkload(ctx context.Context, w workload, bin, modDir string, seed int64, p plan, trace int, corruptRef bool) (*workloadResult, error) {
	wallStart := time.Now()
	workDir, err := os.MkdirTemp(filepath.Join(modDir, ".work"), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)

	m := models[w.model]
	var bif bytes.Buffer
	if err := m.network().WriteBIF(&bif, m.name, nil); err != nil {
		return nil, fmt.Errorf("write %s: %w", m.name, err)
	}
	modelsDir := filepath.Join(workDir, "models")
	if err := os.Mkdir(modelsDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(modelsDir, m.name+".bif"), bif.Bytes(), 0o644); err != nil {
		return nil, err
	}
	// The reference is compiled from the bytes the server will parse, not
	// from the generator's in-memory network.
	refNet, _, err := evprop.ParseBIF(bytes.NewReader(bif.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("parse generated %s: %w", m.name, err)
	}
	or, err := newOracle(refNet)
	if err != nil {
		return nil, err
	}
	defer or.eng.Close()
	or.corrupt = corruptRef

	e := &env{ctx: ctx, w: w, seed: seed, plan: p, bin: bin, workDir: workDir, modelsDir: modelsDir, bif: bif.Bytes(), oracle: or, clk: wallClock{}}
	defer e.stopServers()
	res := &workloadResult{Model: m.name, tally: tally{Phases: map[string]*phaseCounts{}}}
	res.RefUs[0] = referenceLoop()

	if trace != traceOn {
		srv, setup, err := e.bootMedian()
		if err != nil {
			return nil, err
		}
		res.EndToEnd, res.LateShare, err = e.runLoad(srv, &res.tally)
		if err != nil {
			return nil, err
		}
		srv.stop()
		res.EndToEnd["setup_s"] = setup
	}
	if trace != traceOff {
		if err := e.runTraced(res); err != nil {
			return nil, err
		}
	}
	res.serverFlags = strings.Join(evserveFlags(modelsDir), " ")
	res.verify()
	for _, pc := range res.Phases {
		res.Attempted += pc.Sent
		res.Failed += pc.Failed
	}
	if res.Attempted > 0 {
		res.FailedShare = float64(res.Failed) / float64(res.Attempted)
	}
	res.RefUs[1] = referenceLoop()
	if pl := res.PerLayer; pl != nil {
		pl["loadgen.ref_us_start"] = metricValue{Value: res.RefUs[0], Unit: "us"}
		pl["loadgen.ref_us_end"] = metricValue{Value: res.RefUs[1], Unit: "us"}
	}
	res.WallS = time.Since(wallStart).Seconds()
	if err := ctx.Err(); err != nil {
		return nil, errors.New("interrupted")
	}
	return res, nil
}
