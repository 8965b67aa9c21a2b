package evprop

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"testing"
	"time"
)

// optionsTried is how TestOptionsMoveNoBits covers each field of Options:
// Workers is in the Fingerprint, Lazy is the one field that moves bits
// outside it (a lazy engine agrees with an eager one to tolerance), and every
// other field has a non-default value that must leave every answer's bits
// where the default engine puts them.
var optionsTried = []struct {
	field string
	skip  string // why the field is not tried; "" when it is
	opts  Options
}{
	{field: "Workers", skip: "in the fingerprint"},
	{field: "Lazy", skip: "a lazy engine agrees to tolerance, not to the bit"},
	{field: "Scheduler", opts: Options{Scheduler: SchedulerSerial}},
	{field: "CacheSize", opts: Options{CacheSize: 32}},
	{field: "PprofLabels", opts: Options{PprofLabels: true}},
	{field: "DisableFlightRecorder", opts: Options{DisableFlightRecorder: true}},
	{field: "SlowQueryThreshold", opts: Options{SlowQueryThreshold: time.Nanosecond}},
}

// TestOptionsMoveNoBits is the fingerprint's contract: two engines with one
// Fingerprint answer a query with the same bits whatever else their Options
// say, Lazy excepted. Every field of Options must be in optionsTried, so a
// new option that moves bits cannot pass unseen. Each tried value is compiled
// beside a default engine of the same Workers, and each asks sparse (4
// observed) and dense (30 observed) evidence three times — a cache's first
// sight, its admitted run and its hit — for P(e), every posterior and the
// MPE. mid60 at four workers and wide60 at two are graphs sched.Split cuts, so
// the serial row holds only because a serial run cuts as the pool does.
func TestOptionsMoveNoBits(t *testing.T) {
	typ := reflect.TypeOf(Options{})
	for i := range typ.NumField() {
		name := typ.Field(i).Name
		found := false
		for _, row := range optionsTried {
			if row.field != name {
				continue
			}
			found = true
			if row.skip == "" && reflect.ValueOf(row.opts).FieldByName(name).IsZero() {
				t.Errorf("Options.%s: the tried value is the default", name)
			}
		}
		if !found {
			t.Errorf("Options.%s is not in optionsTried: say what value to try, or why it may move bits", name)
		}
	}
	for _, m := range []struct {
		name           string
		nodes, parents int
		workers        []int
		queries        int
	}{
		{"small40", 40, 3, []int{2, 4}, 4},
		{"mid60", 60, 4, []int{2, 4}, 4},
		{"wide60", 60, 5, []int{2}, 2},
	} {
		net := servedModel(t, m.nodes, m.parents)
		evs := append(benchmarkEvidence(net, 1, 4, m.queries), benchmarkEvidence(net, 2, 30, m.queries)...)
		for _, workers := range m.workers {
			def, err := net.Compile(Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			want := optionAnswers(t, net, def, evs)
			for _, row := range optionsTried {
				if row.skip != "" {
					continue
				}
				what := fmt.Sprintf("%s workers=%d %s", m.name, workers, row.field)
				opts := row.opts
				opts.Workers = workers
				eng, err := net.Compile(opts)
				if err != nil {
					t.Fatal(err)
				}
				if eng.Fingerprint() != def.Fingerprint() {
					t.Fatalf("%s: fingerprint %v, default engine %v", what, eng.Fingerprint(), def.Fingerprint())
				}
				got := optionAnswers(t, net, eng, evs)
				if len(got) != len(want) {
					t.Fatalf("%s: %d answers, default engine %d", what, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: answer %d is %v, default engine %v", what, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// optionAnswers asks each evidence three times of eng and returns, in order,
// P(e) and every variable's posterior of each run and the probability and
// assignment of each evidence's MPE.
func optionAnswers(t *testing.T, net *Network, eng *Engine, evs []Evidence) []float64 {
	t.Helper()
	vars := net.Variables()
	var out []float64
	for _, ev := range evs {
		for range 3 {
			res, err := eng.Propagate(ev)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.ProbabilityOfEvidence())
			for _, v := range vars {
				p, err := res.Posterior(v)
				if err != nil {
					t.Fatalf("posterior of %s: %v", v, err)
				}
				out = append(out, p...)
			}
			res.Close()
		}
		mpe, p, err := eng.MostProbableExplanation(ev)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
		for _, v := range vars {
			out = append(out, float64(mpe[v]))
		}
	}
	return out
}

// TestSmallDeltaBounded: a fixed δ cuts a task into at most two pieces per
// worker. At δ = 16 entries, wide60's runs forced onto two workers were some
// 10⁵ pieces, each Marginalize piece after the first with a separator-sized
// buffer of its own, and a test of them ran past go test's timeout. Bounded,
// eight such runs finish in well under 5 s and allocate no more than twice
// what eight runs at sched.Split's own cuts do (runtime/metrics'
// /gc/heap/allocs:bytes; not under the race detector, whose sync.Pool drops
// pooled states at random). A run that finds no pooled state allocates one,
// some 3 MB, and doubles its side, so nothing may empty the pools or hide them
// from a measured run. The collector, which empties them, is held off for the
// test. sync.Pool keeps an item Put on one P where a Get on another P cannot
// take it, but a pool holding an item per P always has one a Get can take:
// each engine's warm-up is GOMAXPROCS runs at once, each holding its result
// until all have returned. Under load the test still fails rarely (4 in 3 000
// runs beside two other test processes on two cores): measured runs that take
// turns on two states or run scratches grow each for the same evidence.
func TestSmallDeltaBounded(t *testing.T) {
	const workers, runs = 2, 8
	net := servedModel(t, 60, 5)
	evs := benchmarkEvidence(net, 1, 4, runs+1)
	gcPercent := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(gcPercent) })
	allocs := func(δ int) uint64 {
		t.Helper()
		eng, err := net.compile(Options{Workers: workers}, seam(true, δ))
		if err != nil {
			t.Fatal(err)
		}
		propagate := func(ev Evidence) {
			t.Helper()
			res, err := eng.Propagate(ev)
			if err != nil {
				t.Fatal(err)
			}
			if m := res.Metrics(); m.Partitioned == 0 || m.Pieces > 2*workers*m.Partitioned {
				t.Fatalf("δ=%d: %d tasks cut into %d pieces", δ, m.Partitioned, m.Pieces)
			}
			res.Close()
		}
		warm := make([]*QueryResult, runtime.GOMAXPROCS(0))
		errs := make([]error, len(warm))
		var wg sync.WaitGroup
		for i := range warm {
			wg.Add(1)
			go func() {
				defer wg.Done()
				warm[i], errs[i] = eng.Propagate(evs[runs])
			}()
		}
		wg.Wait()
		for i, res := range warm {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			res.Close()
		}
		sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(sample)
		before := sample[0].Value.Uint64()
		start := time.Now()
		for _, ev := range evs[:runs] {
			propagate(ev)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("δ=%d: %d runs took %v", δ, runs, d)
		}
		metrics.Read(sample)
		return sample[0].Value.Uint64() - before
	}
	split, small := allocs(0), allocs(16)
	t.Logf("heap allocated by %d runs: %d B at Split's cuts, %d B at δ=16", runs, split, small)
	if !raceEnabled && small > 2*split {
		t.Errorf("δ=16 allocated %d B in %d runs, more than twice Split's %d B", small, runs, split)
	}
}
