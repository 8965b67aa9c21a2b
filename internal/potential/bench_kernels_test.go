package potential

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// Per-primitive kernel timings, the repo's one kernel harness: `make
// bench-kernels` runs every BenchmarkKernel* here five times and commits the
// output, in Go's benchmark format, as BENCH_kernels.txt.
//
// Each primitive is timed three ways on every shape, in ns/entry: through the
// compiled plan the engines use (NewPlan, tiled where the natural runs are
// short), through the run-only plan (NewRunPlan, the same walk without the
// tile) and through the per-entry scalar reference. Both plans are compiled
// outside the timed loop, as taskgraph compiles one per edge.
//
// Two shape families. small/medium/large drop the trailing half of the
// clique's variables, so every run is long: the shape the run decomposition
// was built for. The w17-* shapes are the load benchmark's junction trees' own:
// a 17-variable binary clique whose separator drops one variable, the last
// (runs of 2), the second-to-last (contiguous runs of 2), the third-to-last
// (runs of 4) or a middle one (runs of 256). Two thirds of wide60's
// clique-pass entries sit in the first three, the short-run shapes.

type kernelShape struct {
	name    string
	supVars []int
	supCard []int
	subVars []int
	subCard []int
	// short marks the shapes whose natural runs are shorter than tileRunMax;
	// BenchmarkKernelShortRuns holds each to twice the cost of longRef.
	short bool
}

// longRef names the long-run shape the short-run shapes are compared with: a
// table of the same size whose runs are 256 entries long.
const longRef = "w17-drop-mid"

func kernelShapes() []kernelShape {
	mk := func(name string, nSup, states int, short bool, keep func(i int) bool) kernelShape {
		sh := kernelShape{name: name, short: short}
		for i := 0; i < nSup; i++ {
			sh.supVars, sh.supCard = append(sh.supVars, i), append(sh.supCard, states)
			if keep(i) {
				sh.subVars, sh.subCard = append(sh.subVars, i), append(sh.subCard, states)
			}
		}
		return sh
	}
	prefix := func(n int) func(int) bool { return func(i int) bool { return i < n } }
	drop := func(miss int) func(int) bool { return func(i int) bool { return i != miss } }
	return []kernelShape{
		mk("small", 3, 4, false, prefix(2)),  // 64-entry table, 16-entry subset
		mk("medium", 6, 4, false, prefix(3)), // 4096-entry table, 64-entry subset
		mk("large", 9, 4, false, prefix(4)),  // 262144-entry table, 256-entry subset
		mk("w17-drop-last", 17, 2, true, drop(16)),
		mk("w17-drop-2nd-last", 17, 2, true, drop(15)),
		mk("w17-drop-3rd-last", 17, 2, true, drop(14)),
		mk(longRef, 17, 2, false, drop(8)),
	}
}

// tables returns the shape's superset table p, random, and its subset table q,
// exactly 1.0 everywhere: multiply and divide hit the same work table over and
// over, and any other factor drifts it into denormals or infinity, which cost
// extra. Multiplying by 1.0 costs the cycles any normal operand does.
func (sh kernelShape) tables() (p, q *Potential) {
	p = randomPotential(rand.New(rand.NewSource(17)), sh.supVars, sh.supCard)
	q = MustNew(sh.subVars, sh.subCard)
	for i := range q.Data {
		q.Data[i] = 1
	}
	return p, q
}

// A kernel is one primitive on a shape's tables, p over the superset and q
// over the subset: its body through a plan, and its scalar reference.
type kernel func(p, q *Potential) (plan func(*Plan) error, scalar func() error)

func multiplyKernel(p, q *Potential) (func(*Plan) error, func() error) {
	w, n := p.Clone(), p.Len()
	return func(pl *Plan) error { return pl.MulRange(w, q, 0, n) },
		func() error { return w.MulRangeScalar(q, 0, n) }
}

func divideKernel(p, q *Potential) (func(*Plan) error, func() error) {
	w, n := p.Clone(), p.Len()
	return func(pl *Plan) error { return pl.DivRange(w, q, 0, n) },
		func() error { return w.DivRangeScalar(q, 0, n) }
}

func marginalizeKernel(p, q *Potential) (func(*Plan) error, func() error) {
	dst, n := q.CloneZero(), p.Len()
	return func(pl *Plan) error { return pl.MarginalInto(p, dst, 0, n) },
		func() error { return p.MarginalIntoScalar(dst, 0, n) }
}

func maxMarginalizeKernel(p, q *Potential) (func(*Plan) error, func() error) {
	dst, n := q.CloneZero(), p.Len()
	return func(pl *Plan) error { return pl.MaxMarginalInto(p, dst, 0, n) },
		func() error { return p.MaxMarginalIntoScalar(dst, 0, n) }
}

func extendKernel(p, q *Potential) (func(*Plan) error, func() error) {
	dst, n := p.CloneZero(), p.Len()
	return func(pl *Plan) error { return pl.ExtendInto(q, dst, 0, n) },
		func() error { return q.ExtendIntoScalar(dst, 0, n) }
}

// mustPlan compiles the shape's domain pair with newPlan, NewPlan or NewRunPlan.
func mustPlan(b *testing.B, sh kernelShape, newPlan func(supVars, supCard, subVars, subCard []int) (*Plan, error)) *Plan {
	b.Helper()
	pl, err := newPlan(sh.supVars, sh.supCard, sh.subVars, sh.subCard)
	if err != nil {
		b.Fatal(err)
	}
	return pl
}

// benchKernel times one primitive on every shape through the compiled plan,
// through the run-only plan and through the scalar reference.
func benchKernel(b *testing.B, k kernel) {
	for _, sh := range kernelShapes() {
		p, q := sh.tables()
		tiled, runs := mustPlan(b, sh, NewPlan), mustPlan(b, sh, NewRunPlan)
		plan, scalar := k(p, q)
		for _, way := range []struct {
			name string
			body func() error
		}{
			{"plan", func() error { return plan(tiled) }},
			{"run", func() error { return plan(runs) }},
			{"scalar", scalar},
		} {
			b.Run(sh.name+"/"+way.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := way.body(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p.Len()), "ns/entry")
			})
		}
	}
}

func BenchmarkKernelMultiply(b *testing.B)       { benchKernel(b, multiplyKernel) }
func BenchmarkKernelDivide(b *testing.B)         { benchKernel(b, divideKernel) }
func BenchmarkKernelMarginalize(b *testing.B)    { benchKernel(b, marginalizeKernel) }
func BenchmarkKernelMaxMarginalize(b *testing.B) { benchKernel(b, maxMarginalizeKernel) }
func BenchmarkKernelExtend(b *testing.B)         { benchKernel(b, extendKernel) }

// shortRunRounds is the least number of interleaved rounds the short-run
// verdict is the median of (odd, so the median is one round's ratio).
const shortRunRounds = 51

// BenchmarkKernelShortRuns is the timed half of the short-run property (the
// counted half is TestRunPlanInvariants): for each primitive a message
// executes, the compiled plan on a short-run shape may cost at most twice what
// it costs on longRef, a table of the same size. Short runs must not be a
// different performance class. Extend is not held to it: its long-run form is
// a fill that never reads the table it writes, its tiled form a gather, and it
// runs only when a model is compiled.
//
// The two shapes are timed interleaved, short then long, over b.N rounds but
// at least shortRunRounds, so a slow spell of a shared host lands on both sides
// of a round's ratio; the verdict is the median ratio, reported as short/long.
// `make smoke-kernels` runs this benchmark alone, once.
func BenchmarkKernelShortRuns(b *testing.B) {
	shapes := kernelShapes()
	ref := shapes[slices.IndexFunc(shapes, func(sh kernelShape) bool { return sh.name == longRef })]
	for _, prim := range []struct {
		name string
		k    kernel
	}{
		{"multiply", multiplyKernel},
		{"divide", divideKernel},
		{"marginalize", marginalizeKernel},
		{"max-marginalize", maxMarginalizeKernel},
	} {
		for _, sh := range shapes {
			if !sh.short {
				continue
			}
			b.Run(prim.name+"/"+sh.name, func(b *testing.B) {
				short, long := planSample(b, sh, prim.k), planSample(b, ref, prim.k)
				b.ResetTimer()
				ratios := make([]float64, max(b.N, shortRunRounds)|1)
				for i := range ratios {
					s := short()
					ratios[i] = s / long()
				}
				slices.Sort(ratios)
				ratio := ratios[len(ratios)/2]
				b.ReportMetric(ratio, "short/long")
				if ratio > 2 {
					b.Fatalf("%s through the plan costs %.2f× as much per entry on %s as on %s; the bound is 2×",
						prim.name, ratio, sh.name, longRef)
				}
			})
		}
	}
}

// planSample compiles the shape's plan and returns a timer of k through it:
// each call runs k over the whole table twice (2^18 entries on a w17 shape) and
// returns the nanoseconds that took.
func planSample(b *testing.B, sh kernelShape, k kernel) func() float64 {
	p, q := sh.tables()
	pl := mustPlan(b, sh, NewPlan)
	body, _ := k(p, q)
	if err := body(pl); err != nil { // and warm up
		b.Fatal(err)
	}
	return func() float64 {
		start := time.Now()
		err := body(pl)
		if err == nil {
			err = body(pl)
		}
		if err != nil {
			b.Fatal(err)
		}
		return float64(time.Since(start).Nanoseconds())
	}
}
