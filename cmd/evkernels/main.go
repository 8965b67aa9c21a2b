// evkernels times the five potential-table primitives directly and writes the
// results as JSON. It is the source of BENCH_kernels.json:
//
//	go run ./cmd/evkernels -out BENCH_kernels.json
//
// Every primitive is timed three ways on every shape: through the compiled
// plan the engines use (potential.NewPlan — tiled where the natural runs are
// short), through the run-only plan (potential.NewRunPlan — the same walk
// without the tile) and through the per-entry scalar reference. Plans are
// compiled once outside the timed loop, as taskgraph compiles one per edge.
//
// The shapes are of two families. small/medium/large drop the trailing half
// of the clique's variables, so every run is long — the shape the run
// decomposition was built for. The w17-* shapes are what the load benchmark's
// junction trees actually contain: a 17-variable binary clique whose separator
// drops one variable, the last (runs of 2), the second-to-last (contiguous
// runs of 2), the third-to-last (runs of 4) or a middle one (runs of 256).
// Two thirds of wide60's clique-pass entries sit in the first three.
//
// Each measurement repeats the primitive over the whole table until at least
// -min-entries entries have been processed, takes the median of -iters such
// samples, and reports ns/entry. After writing the file the tool fails (exit
// 1) if, for any primitive a message executes, the plan on a short-run shape
// costs more than twice the plan on the long-run shape of the same table size
// (w17-drop-mid): short runs must not be a different performance class.
// (Extend is reported but not held to it: its long-run form is a fill that
// never reads the table it writes, its tiled form a gather, and it runs only
// when a model is compiled.) `make smoke-kernels` runs the tool with few
// iterations for that verdict and the JSON shape alone.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"evprop/internal/potential"
)

type shape struct {
	name     string
	sup, sub *potential.Potential
	// short marks the shapes whose natural runs are below the tile threshold;
	// each is held to twice the cost of longRef.
	short bool
}

// longRef names the long-run shape the short-run shapes are compared with.
const longRef = "w17-drop-mid"

type result struct {
	Primitive     string  `json:"primitive"`
	Shape         string  `json:"shape"`
	Entries       int     `json:"entries"`
	SubsetEntries int     `json:"subset_entries"`
	ShortRuns     bool    `json:"short_runs"`
	PlanNs        float64 `json:"ns_per_entry_plan"`
	RunNs         float64 `json:"ns_per_entry_run"`
	ScalarNs      float64 `json:"ns_per_entry_scalar"`
	Speedup       float64 `json:"speedup"`
}

// provenance mirrors the block benchmark/ writes into BENCH_e2e.json (that
// module cannot be imported from here): numbers from different host
// signatures are not comparable.
type provenance struct {
	Host struct {
		Signature  string `json:"signature"`
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
		CPUModel   string `json:"cpu_model"`
		NumCPU     int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
	} `json:"host"`
	GitCommit string `json:"git_commit"`
}

type report struct {
	Provenance provenance `json:"provenance"`
	Iterations int        `json:"iterations"`
	MinEntries int        `json:"min_entries_per_sample"`
	Results    []result   `json:"results"`
}

func hostProvenance() provenance {
	var p provenance
	h := &p.Host
	h.GOOS, h.GOARCH, h.GoVersion = runtime.GOOS, runtime.GOARCH, runtime.Version()
	h.NumCPU, h.GOMAXPROCS = runtime.NumCPU(), runtime.GOMAXPROCS(0)
	h.CPUModel = "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	h.Signature = fmt.Sprintf("%s/%s %s x%d %s", h.GOOS, h.GOARCH, h.CPUModel, h.NumCPU, h.GoVersion)
	p.GitCommit = "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.GitCommit = strings.TrimSpace(string(out))
	}
	return p
}

func shapes() []shape {
	// keep reports whether the separator keeps the clique's i-th variable.
	mk := func(name string, nSup, states int, short bool, keep func(i int) bool) shape {
		var vars, card, sv, sc []int
		for i := 0; i < nSup; i++ {
			vars, card = append(vars, i), append(card, states)
			if keep(i) {
				sv, sc = append(sv, i), append(sc, states)
			}
		}
		rng := rand.New(rand.NewSource(17))
		sup := potential.MustNew(vars, card)
		sub := potential.MustNew(sv, sc)
		for i := range sup.Data {
			sup.Data[i] = rng.Float64() + 0.5
		}
		// The subset table is exactly 1.0 everywhere: multiply and divide
		// are repeated thousands of times over the same work table per
		// sample, and any other factor would drift it into denormals
		// (slow on x86) or infinity. Multiplying by 1.0 costs the same
		// cycles as any normal operand.
		for i := range sub.Data {
			sub.Data[i] = 1.0
		}
		return shape{name, sup, sub, short}
	}
	prefix := func(n int) func(int) bool { return func(i int) bool { return i < n } }
	drop := func(miss int) func(int) bool { return func(i int) bool { return i != miss } }
	return []shape{
		mk("small", 3, 4, false, prefix(2)),  // 64 entries, runs of 4
		mk("medium", 6, 4, false, prefix(3)), // 4096 entries, runs of 64
		mk("large", 9, 4, false, prefix(4)),  // 262144 entries, runs of 1024
		mk("w17-drop-last", 17, 2, true, drop(16)),
		mk("w17-drop-2nd-last", 17, 2, true, drop(15)),
		mk("w17-drop-3rd-last", 17, 2, true, drop(14)),
		mk(longRef, 17, 2, false, drop(8)),
	}
}

// sample times fn repeated until minEntries table entries are processed and
// returns ns/entry.
func sample(entries, minEntries int, fn func()) float64 {
	reps := (minEntries + entries - 1) / entries
	if reps < 1 {
		reps = 1
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps*entries)
}

func median(iters, entries, minEntries int, fn func()) float64 {
	fn() // warm up
	xs := make([]float64, iters)
	for i := range xs {
		xs[i] = sample(entries, minEntries, fn)
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

func main() {
	iters := flag.Int("iters", 5, "samples per measurement (median taken)")
	minEntries := flag.Int("min-entries", 1<<21, "minimum table entries processed per sample")
	out := flag.String("out", "-", "output file (- for stdout)")
	flag.Parse()

	check := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "evkernels:", err)
			os.Exit(1)
		}
	}

	rep := report{Provenance: hostProvenance(), Iterations: *iters, MinEntries: *minEntries}
	for _, sh := range shapes() {
		n := sh.sup.Len()
		p, q := sh.sup, sh.sub
		work := p.Clone()
		dstSub := q.CloneZero()
		dstSup := p.CloneZero()
		plan, err := potential.NewPlan(p.Vars, p.Card, q.Vars, q.Card)
		check(err)
		runs, err := potential.NewRunPlan(p.Vars, p.Card, q.Vars, q.Card)
		check(err)
		prims := []struct {
			name   string
			plan   func(pl *potential.Plan) error
			scalar func() error
		}{
			{"multiply",
				func(pl *potential.Plan) error { return pl.MulRange(work, q, 0, n) },
				func() error { return work.MulRangeScalar(q, 0, n) }},
			{"divide",
				func(pl *potential.Plan) error { return pl.DivRange(work, q, 0, n) },
				func() error { return work.DivRangeScalar(q, 0, n) }},
			{"marginalize",
				func(pl *potential.Plan) error { return pl.MarginalInto(p, dstSub, 0, n) },
				func() error { return p.MarginalIntoScalar(dstSub, 0, n) }},
			{"max-marginalize",
				func(pl *potential.Plan) error { return pl.MaxMarginalInto(p, dstSub, 0, n) },
				func() error { return p.MaxMarginalIntoScalar(dstSub, 0, n) }},
			{"extend",
				func(pl *potential.Plan) error { return pl.ExtendInto(q, dstSup, 0, n) },
				func() error { return q.ExtendIntoScalar(dstSup, 0, n) }},
		}
		for _, pr := range prims {
			tiled := median(*iters, n, *minEntries, func() { check(pr.plan(plan)) })
			run := median(*iters, n, *minEntries, func() { check(pr.plan(runs)) })
			scalar := median(*iters, n, *minEntries, func() { check(pr.scalar()) })
			rep.Results = append(rep.Results, result{
				Primitive:     pr.name,
				Shape:         sh.name,
				Entries:       n,
				SubsetEntries: q.Len(),
				ShortRuns:     sh.short,
				PlanNs:        round3(tiled),
				RunNs:         round3(run),
				ScalarNs:      round3(scalar),
				Speedup:       round2(scalar / tiled),
			})
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	check(err)
	buf = append(buf, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(buf)
	} else {
		err = os.WriteFile(*out, buf, 0o644)
	}
	check(err)
	check(shortRunsKeepUp(rep.Results))
}

// shortRunsKeepUp holds every short-run shape to at most twice the long-run
// shape's plan cost per entry, primitive by primitive (extend excepted, see the
// package comment).
func shortRunsKeepUp(results []result) error {
	long := map[string]float64{}
	for _, r := range results {
		if r.Shape == longRef {
			long[r.Primitive] = r.PlanNs
		}
	}
	var slow []string
	for _, r := range results {
		if r.ShortRuns && r.Primitive != "extend" && r.PlanNs > 2*long[r.Primitive] {
			slow = append(slow, fmt.Sprintf("%s on %s: %.3f ns/entry, %s: %.3f", r.Primitive, r.Shape, r.PlanNs, longRef, long[r.Primitive]))
		}
	}
	if slow != nil {
		return fmt.Errorf("short runs cost more than twice long runs:\n  %s", strings.Join(slow, "\n  "))
	}
	return nil
}

func round3(x float64) float64 { return float64(int(x*1000+0.5)) / 1000 }
func round2(x float64) float64 { return float64(int(x*100+0.5)) / 100 }
