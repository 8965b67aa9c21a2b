// Benchmarks regenerating every table and figure of the paper (via the
// simulated multicore machine — see DESIGN.md for the substitution
// rationale) plus real-execution benchmarks of the primitives, the
// compilation pipeline and every scheduler on host-scale junction trees.
//
//	go test -bench=. -benchmem
package evprop

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"evprop/internal/baseline"
	"evprop/internal/bayesnet"
	"evprop/internal/bif"
	"evprop/internal/experiments"
	"evprop/internal/jtree"
	"evprop/internal/machine"
	"evprop/internal/potential"
	"evprop/internal/sched"
	"evprop/internal/taskgraph"
)

// --- Figure regenerators (one per table/figure) ---------------------------

// BenchmarkFig5Rerooting regenerates Fig. 5 and reports the 8-core
// rerooting speedup of the widest template (b=8).
func BenchmarkFig5Rerooting(b *testing.B) {
	cm := machine.Xeon()
	var last float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(cm)
		if err != nil {
			b.Fatal(err)
		}
		s := r.Series[len(r.Series)-1]
		last = s.Speedup[len(s.Speedup)-1]
	}
	b.ReportMetric(last, "speedup@8cores")
}

// BenchmarkRerootingAlgorithm1 measures the real wall-clock cost of root
// selection plus rerooting on a 512-clique junction tree — the paper
// reports 24 µs against ~1e5 µs of propagation.
func BenchmarkRerootingAlgorithm1(b *testing.B) {
	tr, err := jtree.Random(jtree.RandomConfig{N: 512, Width: 15, States: 2, Degree: 4, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := tr.SelectRoot()
		if _, err := tr.Reroot(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6PNLBaseline regenerates Fig. 6 and reports the collapse
// ratio t(16)/t(4) of Junction tree 1 (must exceed 1: the distributed
// baseline slows down beyond 4 processors).
func BenchmarkFig6PNLBaseline(b *testing.B) {
	cm := machine.Xeon()
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(cm)
		if err != nil {
			b.Fatal(err)
		}
		s := r.Series[0]
		ratio = s.Seconds[len(s.Seconds)-1] / s.Seconds[2]
	}
	b.ReportMetric(ratio, "t16/t4")
}

// BenchmarkFig7Methods regenerates Fig. 7 and reports the three 8-core
// speedups for Junction tree 1.
func BenchmarkFig7Methods(b *testing.B) {
	cm := machine.Xeon()
	at8 := map[string]float64{}
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(cm)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range r.Series {
			if s.Tree == "JT1" {
				at8[s.Method] = s.Speedup[len(s.Speedup)-1]
			}
		}
	}
	b.ReportMetric(at8["collaborative"], "collaborative@8")
	b.ReportMetric(at8["dataparallel"], "dataparallel@8")
	b.ReportMetric(at8["openmp"], "openmp@8")
}

// BenchmarkFig8LoadBalance regenerates Fig. 8 and reports the worst
// per-thread scheduling-overhead percentage at 8 threads (paper: ≤ 0.9 %).
func BenchmarkFig8LoadBalance(b *testing.B) {
	cm := machine.Xeon()
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(cm)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		pt := r.Points[len(r.Points)-1]
		for _, o := range pt.OverheadPct {
			if o > worst {
				worst = o
			}
		}
	}
	b.ReportMetric(worst, "maxSchedPct@8")
}

// BenchmarkFig9Parameters regenerates Fig. 9 and reports the minimum
// 8-core speedup over all parameter settings except the small-table
// (wC=10, r=2) case the paper also excludes.
func BenchmarkFig9Parameters(b *testing.B) {
	cm := machine.Xeon()
	var minSp float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(cm)
		if err != nil {
			b.Fatal(err)
		}
		minSp = 1e9
		for _, s := range r.Series {
			if s.Label == "wC=10" {
				continue
			}
			if sp := s.Speedup[len(s.Speedup)-1]; sp < minSp {
				minSp = sp
			}
		}
	}
	b.ReportMetric(minSp, "minSpeedup@8")
}

// --- Real-execution benchmarks (host-scale tables) -------------------------

// benchTree builds a materialized junction tree small enough to execute on
// the host but large enough that primitive work dominates.
func benchTree(b *testing.B) *jtree.Tree {
	b.Helper()
	tr, err := jtree.Random(jtree.RandomConfig{N: 64, Width: 10, States: 2, Degree: 4, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	if err := tr.MaterializeRandom(9); err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkPrimitiveMarginalize measures the marginalization primitive on a
// 2^14-entry table.
func BenchmarkPrimitiveMarginalize(b *testing.B) {
	vars := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	card := make([]int, len(vars))
	for i := range card {
		card[i] = 2
	}
	p, err := potential.NewConstant(vars, card, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(p.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Marginal(vars[:7]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrimitiveMultiply measures the aligned table multiplication
// primitive.
func BenchmarkPrimitiveMultiply(b *testing.B) {
	vars := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	card := make([]int, len(vars))
	for i := range card {
		card[i] = 2
	}
	p, err := potential.NewConstant(vars, card, 1)
	if err != nil {
		b.Fatal(err)
	}
	q, err := potential.NewConstant(vars[:7], card[:7], 1)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(p.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.MulBy(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrimitiveExtend measures the extension primitive.
func BenchmarkPrimitiveExtend(b *testing.B) {
	vars := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	card := make([]int, len(vars))
	for i := range card {
		card[i] = 2
	}
	q, err := potential.NewConstant(vars[:7], card[:7], 1)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := potential.New(vars, card)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(dst.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.ExtendInto(dst, 0, dst.Len()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrimitiveMarginalizeScalar is the per-entry reference path for
// BenchmarkPrimitiveMarginalize: the same marginalization without the
// run-decomposed kernel, for an at-a-glance blocked-vs-scalar comparison
// (cmd/evkernels produces the systematic one in BENCH_kernels.json).
func BenchmarkPrimitiveMarginalizeScalar(b *testing.B) {
	vars := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	card := make([]int, len(vars))
	for i := range card {
		card[i] = 2
	}
	p, err := potential.NewConstant(vars, card, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := potential.New(vars[:7], card[:7])
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(p.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.MarginalIntoScalar(dst, 0, p.Len()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrimitiveMultiplyScalar is the per-entry reference path for
// BenchmarkPrimitiveMultiply.
func BenchmarkPrimitiveMultiplyScalar(b *testing.B) {
	vars := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	card := make([]int, len(vars))
	for i := range card {
		card[i] = 2
	}
	p, err := potential.NewConstant(vars, card, 1)
	if err != nil {
		b.Fatal(err)
	}
	q, err := potential.NewConstant(vars[:7], card[:7], 1)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(p.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.MulRangeScalar(q, 0, p.Len()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileAsia measures the full Bayesian-network-to-junction-tree
// compilation pipeline.
func BenchmarkCompileAsia(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, _ := bayesnet.Asia()
		if _, err := net.Compile(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerialPropagation measures one full two-pass evidence
// propagation executed serially.
func BenchmarkSerialPropagation(b *testing.B) {
	tr := benchTree(b)
	g := taskgraph.Build(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := g.NewState()
		if err != nil {
			b.Fatal(err)
		}
		if err := st.RunSerial(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollaborative measures the collaborative scheduler end to end at
// several worker counts (wall-clock speedup requires a multicore host; on
// one core this measures scheduling overhead).
func BenchmarkCollaborative(b *testing.B) {
	tr := benchTree(b)
	g := taskgraph.Build(tr)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(benchName("P", p), func(b *testing.B) {
			pool, err := sched.NewPool(p)
			if err != nil {
				b.Fatal(err)
			}
			defer pool.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := g.NewState()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := pool.Run(st, sched.Options{Threshold: 256}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPropagateWide is one propagation of the load benchmark's two wide
// models at one and at two workers, partitioned as Compile decides by itself
// and at the fixed δ it used to derive (twice the mean clique table). pieces/op
// and partitioned/op do not move with host load: they are the companion
// numbers of the benchmark's wide-miss and mid-dense throughput. At two
// workers both graphs occupy the pool whole (W/CP 2.49 and 2.58), so the
// automatic rows report 0 pieces where the fixed δ cuts 49 and 52 tasks into
// 237 and 315; one worker runs inline and cuts nothing either way.
func BenchmarkPropagateWide(b *testing.B) {
	for _, m := range []struct {
		name    string
		parents int
		fixedδ  int
	}{{"wide60", 5, 18896}, {"mid60", 4, 1000}} {
		net := RandomNetwork(60, 2, m.parents, 7)
		vars := net.Variables()
		ev := Evidence{vars[3]: 1, vars[17]: 0, vars[41]: 1}
		for _, workers := range []int{1, 2} {
			for _, δ := range []int{0, m.fixedδ} {
				name := fmt.Sprintf("%s/P=%d/auto", m.name, workers)
				if δ > 0 {
					name = fmt.Sprintf("%s/P=%d/δ=%d", m.name, workers, δ)
				}
				b.Run(name, func(b *testing.B) {
					eng, err := net.Compile(Options{Workers: workers, PartitionThreshold: δ})
					if err != nil {
						b.Fatal(err)
					}
					defer eng.Close()
					pieces, partitioned := 0, 0
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res, err := eng.Propagate(ev)
						if err != nil {
							b.Fatal(err)
						}
						met := res.Metrics()
						pieces += met.Pieces
						partitioned += met.Partitioned
						res.Close()
					}
					b.ReportMetric(float64(pieces)/float64(b.N), "pieces/op")
					b.ReportMetric(float64(partitioned)/float64(b.N), "partitioned/op")
				})
			}
		}
	}
}

// evidenceModels are the load benchmark's three models with the evidence width
// of the workload that drives each (small-miss, mid-dense, wide-miss): what the
// engine's tables are sliced on.
type evidenceModel struct {
	name                     string
	nodes, parents, observed int
}

var evidenceModels = []evidenceModel{{"Small", 40, 3, 4}, {"Mid", 60, 4, 30}, {"Wide", 60, 5, 4}}

// benchmarkPropagateEvidence is one propagation per op at the load benchmark's
// P = 2 over never-repeating evidence of the workload's width, states recycled
// (no cache). ns/op follows the evidence — the tables are sliced on it — and
// allocs/op does not move with host load.
func benchmarkPropagateEvidence(b *testing.B, m evidenceModel) {
	net := RandomNetwork(m.nodes, 2, m.parents, 7)
	eng, err := net.Compile(Options{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	evs := benchmarkEvidence(net, 1, m.observed, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Propagate(evs[i%len(evs)])
		if err != nil {
			b.Fatal(err)
		}
		res.Close()
	}
}

func BenchmarkPropagateSmallEvidence(b *testing.B) { benchmarkPropagateEvidence(b, evidenceModels[0]) }
func BenchmarkPropagateMidEvidence(b *testing.B)   { benchmarkPropagateEvidence(b, evidenceModels[1]) }
func BenchmarkPropagateWideEvidence(b *testing.B)  { benchmarkPropagateEvidence(b, evidenceModels[2]) }

// BenchmarkPropagateWideLoad is the wide-miss workload without HTTP: wide60
// with 4 variables observed and 3 declared as targets, as the query handler
// declares them, over 4 096 never-repeating requests, from one caller and from
// two at once, at one and at two workers, without a result cache and with the
// benchmark's 32-entry one — which pins nothing here, every query being the
// first sight of its evidence, so the cache=32 rows must read as the cache=0
// rows do. The last row declares nothing and so runs both passes whole: what
// the rows above it skip. ns/op is wall time over
// all callers' operations, so two callers that each get a core halve it.
// pool_runs/op says which executor the granularity rule chose: at two workers
// a lone caller's every run is the pool's (1), and with a second caller in
// flight a run is priced at one worker and stays on its goroutine (≈ 0 — the
// few that find the other caller between two operations still dispatch).
// skipped/op is the share of the graph's tasks the targets masked.
// `make bench-load` runs it at -benchtime 3000x.
func BenchmarkPropagateWideLoad(b *testing.B) {
	net := RandomNetwork(60, 2, 5, 7)
	evs, asked := benchmarkQueries(net, 1, 4, 3, 4096)
	row := func(workers, callers, cacheSize int, targeted bool) func(*testing.B) {
		return func(b *testing.B) {
			eng, err := net.Compile(Options{Workers: workers, CacheSize: cacheSize})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			var next, skipped atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
						q := i % int64(len(evs))
						var targets []string
						if targeted {
							targets = asked[q]
						}
						res, err := eng.Propagate(evs[q], targets...)
						if err != nil {
							b.Error(err)
							return
						}
						skipped.Add(int64(res.rec.TasksSkipped))
						res.Close()
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(eng.SchedulerReport().PoolRuns)/float64(b.N), "pool_runs/op")
			b.ReportMetric(float64(skipped.Load())/float64(b.N)/float64(eng.inner.Graph().N()), "skipped/op")
		}
	}
	for _, workers := range []int{1, 2} {
		for _, callers := range []int{1, 2} {
			for _, cacheSize := range []int{0, 32} {
				b.Run(fmt.Sprintf("P=%d/k=%d/cache=%d", workers, callers, cacheSize), row(workers, callers, cacheSize, true))
			}
		}
	}
	b.Run("P=2/k=2/cache=0/untargeted", row(2, 2, 0, false))
}

// BenchmarkPropagateTwoModels is BenchmarkPropagateWideLoad for a server with
// two models: a wide60 and a mid60 engine compiled at the same Workers and
// queried together, each by its own one or two callers, 4 variables observed,
// never-repeating evidence, no cache. The callers draw operations from one
// counter, as closed-loop clients of one server would: ns/op is wall time over
// both models' operations and wide/op the share of them that were wide60's.
// pool_runs/op is the share the granularity rule sent to the workers — the two
// engines' workers being the same P goroutines, and their runs priced by one
// count — and goroutines is what the process holds once both have run.
// `make bench-load` runs it at -benchtime 3000x.
func BenchmarkPropagateTwoModels(b *testing.B) {
	models := []*Network{RandomNetwork(60, 2, 5, 7), RandomNetwork(60, 2, 4, 7)}
	evs := [][]Evidence{benchmarkEvidence(models[0], 1, 4, 4096), benchmarkEvidence(models[1], 1, 4, 4096)}
	for _, workers := range []int{2, 4} {
		for _, callers := range []int{1, 2} {
			b.Run(fmt.Sprintf("P=%d/k=%dx2", workers, callers), func(b *testing.B) {
				var engines []*Engine
				for _, net := range models {
					eng, err := net.Compile(Options{Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					engines = append(engines, eng)
				}
				var next atomic.Int64
				var wg sync.WaitGroup
				b.ReportAllocs()
				b.ResetTimer()
				for c := 0; c < 2*callers; c++ {
					eng, evs := engines[c%2], evs[c%2]
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
							res, err := eng.Propagate(evs[i%int64(len(evs))])
							if err != nil {
								b.Error(err)
								return
							}
							res.Close()
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				poolRuns := engines[0].SchedulerReport().PoolRuns + engines[1].SchedulerReport().PoolRuns
				b.ReportMetric(float64(poolRuns)/float64(b.N), "pool_runs/op")
				b.ReportMetric(float64(engines[0].Stats().Propagations)/float64(b.N), "wide/op")
				b.ReportMetric(float64(runtime.NumGoroutine()), "goroutines")
			})
		}
	}
}

// BenchmarkAbsorb is what priming a recycled state for a query costs on the
// same three models and widths: the tables the evidence slices gathered from
// the tree at the observed states, every other table only sized, and a kernel
// plan compiled for each (clique ⊇ separator) pair that holds an observed
// variable. entries/op is the run that follows, in table entries, against the
// graph's full weight; written/op the entries absorb wrote (absorbWrites).
func BenchmarkAbsorb(b *testing.B) {
	for _, m := range evidenceModels {
		b.Run(m.name, func(b *testing.B) {
			net := RandomNetwork(m.nodes, 2, m.parents, 7)
			tree, err := net.inner.Compile()
			if err != nil {
				b.Fatal(err)
			}
			g := taskgraph.Build(tree)
			st, err := g.NewState()
			if err != nil {
				b.Fatal(err)
			}
			var evs []potential.Evidence
			var writes []int // per evidence, the entries its absorb writes
			for _, ev := range benchmarkEvidence(net, 1, m.observed, 64) {
				iev, err := net.evidence(ev)
				if err != nil {
					b.Fatal(err)
				}
				evs = append(evs, iev)
				c, s, _ := absorbWrites(b, st, iev)
				writes = append(writes, c+s)
			}
			entries, written := 0.0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.AbsorbEvidence(evs[i%len(evs)]); err != nil {
					b.Fatal(err)
				}
				entries += st.Weight()
				written += writes[i%len(evs)]
			}
			b.ReportMetric(entries/float64(b.N), "entries/op")
			b.ReportMetric(float64(written)/float64(b.N), "written/op")
			b.ReportMetric(g.TotalWeight(), "graph-entries")
		})
	}
}

// BenchmarkBaselineSchedulers measures the comparison executors end to end.
func BenchmarkBaselineSchedulers(b *testing.B) {
	tr := benchTree(b)
	g := taskgraph.Build(tr)
	run := func(name string, f func(st *taskgraph.State) error) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := g.NewState()
				if err != nil {
					b.Fatal(err)
				}
				if err := f(st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("levelsync", func(st *taskgraph.State) error { _, err := baseline.LevelSync(st, 4); return err })
	run("dataparallel", func(st *taskgraph.State) error { _, err := baseline.DataParallel(st, 4); return err })
	run("centralized", func(st *taskgraph.State) error { _, err := baseline.Centralized(st, 4); return err })
	run("distributed", func(st *taskgraph.State) error { _, err := baseline.DistributedEmu(st, 4); return err })
}

// BenchmarkEndToEndQuery measures a public-API query on the Asia network,
// the library's headline use case.
func BenchmarkEndToEndQuery(b *testing.B) {
	eng, err := Asia().Compile(Options{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	ev := Evidence{"XRay": 1, "Smoke": 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(ev, "Lung", "Tub", "Bronc"); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, p int) string {
	return fmt.Sprintf("%s=%d", prefix, p)
}

// BenchmarkBIFParse measures parsing a written BIF file of a mid-size
// random network.
func BenchmarkBIFParse(b *testing.B) {
	net := bayesnet.RandomNetwork(40, 2, 3, 3)
	var buf bytes.Buffer
	if err := bif.Write(&buf, net, "bench", nil); err != nil {
		b.Fatal(err)
	}
	src := buf.String()
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, err := bif.ParseString(src)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := doc.ToNetwork(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMPE measures max-product propagation plus MPE extraction.
func BenchmarkMPE(b *testing.B) {
	eng, err := Asia().Compile(Options{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	ev := Evidence{"Dysp": 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.MostProbableExplanation(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryOne measures a one-target query: the collect pass and the
// distribute messages on the one path from the root to the target's clique
// (EXPERIMENTS.md, "Distribute only toward what was asked").
func BenchmarkQueryOne(b *testing.B) {
	eng, err := Asia().Compile(Options{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	ev := Evidence{"XRay": 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.QueryOne(ev, "Lung"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryJoint measures an out-of-clique joint posterior.
func BenchmarkQueryJoint(b *testing.B) {
	eng, err := Asia().Compile(Options{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.QueryJoint(nil, "Asia", "XRay", "Dysp"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDSeparation measures Bayes-Ball reachability on a larger
// network.
func BenchmarkDSeparation(b *testing.B) {
	net := RandomNetwork(200, 2, 3, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.DSeparated([]string{"A"}, []string{"GR"}, []string{"Z", "BA"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRerootSelectOnly isolates Algorithm 1's root selection from the
// tree copy.
func BenchmarkRerootSelectOnly(b *testing.B) {
	tr, err := jtree.Random(jtree.RandomConfig{N: 512, Width: 15, States: 2, Degree: 4, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr.SelectRoot() < 0 {
			b.Fatal("no root")
		}
	}
}
