package potential

import (
	"math/rand"
	"testing"
)

// Per-primitive plan-vs-run-vs-scalar benchmarks, the in-package counterpart
// of cmd/evkernels (which writes BENCH_kernels.json). Two shape families:
// small/medium/large drop the trailing half of the clique's variables, so
// every run is long; the w17-* shapes are the benchmark trees' own — a
// 17-variable binary clique over a separator that drops one variable, near
// the end (runs of 2 or 4, walked by tile) or in the middle (runs of 256).

type kernelShape struct {
	name    string
	supVars []int
	supCard []int
	subVars []int
	subCard []int
}

func kernelShapes() []kernelShape {
	mk := func(name string, nSup, states int, keep func(i int) bool) kernelShape {
		sh := kernelShape{name: name}
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
		mk("small", 3, 4, prefix(2)),  // 64-entry table, 16-entry subset
		mk("medium", 6, 4, prefix(3)), // 4096-entry table, 64-entry subset
		mk("large", 9, 4, prefix(4)),  // 262144-entry table, 256-entry subset
		mk("w17-drop-last", 17, 2, drop(16)),
		mk("w17-drop-2nd-last", 17, 2, drop(15)),
		mk("w17-drop-3rd-last", 17, 2, drop(14)),
		mk("w17-drop-mid", 17, 2, drop(8)),
	}
}

func perEntry(b *testing.B, entries int) {
	b.Helper()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(entries), "ns/entry")
}

// benchKernel times one primitive on every shape three ways: through the
// compiled plan, through the run-only plan and through the scalar reference.
// Both plans are compiled outside the timed loop, as the engines hold them.
// setup returns the two bodies for a shape's tables, p over the superset and
// q over the subset.
func benchKernel(b *testing.B, setup func(p, q *Potential) (plan func(*Plan) error, scalar func() error)) {
	for _, sh := range kernelShapes() {
		rng := rand.New(rand.NewSource(17))
		p := randomPotential(rng, sh.supVars, sh.supCard)
		q := randomPotential(rng, sh.subVars, sh.subCard)
		// Multiply and divide hit the same work table b.N times: any factor
		// but 1.0 drifts it into denormals or infinity, which cost extra.
		for i := range q.Data {
			q.Data[i] = 1
		}
		tiled, err := NewPlan(sh.supVars, sh.supCard, sh.subVars, sh.subCard)
		if err != nil {
			b.Fatal(err)
		}
		runs, err := NewRunPlan(sh.supVars, sh.supCard, sh.subVars, sh.subCard)
		if err != nil {
			b.Fatal(err)
		}
		plan, scalar := setup(p, q)
		n := p.Len()
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
				perEntry(b, n)
			})
		}
	}
}

func BenchmarkKernelMultiply(b *testing.B) {
	benchKernel(b, func(p, q *Potential) (func(*Plan) error, func() error) {
		w, n := p.Clone(), p.Len()
		return func(pl *Plan) error { return pl.MulRange(w, q, 0, n) },
			func() error { return w.MulRangeScalar(q, 0, n) }
	})
}

func BenchmarkKernelDivide(b *testing.B) {
	benchKernel(b, func(p, q *Potential) (func(*Plan) error, func() error) {
		w, n := p.Clone(), p.Len()
		return func(pl *Plan) error { return pl.DivRange(w, q, 0, n) },
			func() error { return w.DivRangeScalar(q, 0, n) }
	})
}

func BenchmarkKernelMarginalize(b *testing.B) {
	benchKernel(b, func(p, q *Potential) (func(*Plan) error, func() error) {
		dst, n := q.CloneZero(), p.Len()
		return func(pl *Plan) error { return pl.MarginalInto(p, dst, 0, n) },
			func() error { return p.MarginalIntoScalar(dst, 0, n) }
	})
}

func BenchmarkKernelMaxMarginalize(b *testing.B) {
	benchKernel(b, func(p, q *Potential) (func(*Plan) error, func() error) {
		dst, n := q.CloneZero(), p.Len()
		return func(pl *Plan) error { return pl.MaxMarginalInto(p, dst, 0, n) },
			func() error { return p.MaxMarginalIntoScalar(dst, 0, n) }
	})
}

func BenchmarkKernelExtend(b *testing.B) {
	benchKernel(b, func(p, q *Potential) (func(*Plan) error, func() error) {
		dst, n := p.CloneZero(), p.Len()
		return func(pl *Plan) error { return pl.ExtendInto(q, dst, 0, n) },
			func() error { return q.ExtendIntoScalar(dst, 0, n) }
	})
}
