package evprop

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func wetGrassNetwork(t *testing.T) *Network {
	t.Helper()
	n := NewNetwork()
	n.MustAddVariable("Rain", 2, nil, []float64{0.8, 0.2})
	n.MustAddVariable("Wet", 2, []string{"Rain"}, []float64{
		0.9, 0.1,
		0.2, 0.8,
	})
	return n
}

func TestAddVariableErrors(t *testing.T) {
	n := NewNetwork()
	if err := n.AddVariable("A", 2, []string{"missing"}, []float64{1, 0}); err == nil {
		t.Error("accepted unknown parent")
	}
	if err := n.AddVariable("A", 2, nil, []float64{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddVariable("A", 2, nil, []float64{0.5, 0.5}); err == nil {
		t.Error("accepted duplicate variable")
	}
}

func TestVariablesAndStates(t *testing.T) {
	n := wetGrassNetwork(t)
	vars := n.Variables()
	if len(vars) != 2 || vars[0] != "Rain" || vars[1] != "Wet" {
		t.Errorf("Variables = %v", vars)
	}
	if n.States("Rain") != 2 || n.States("missing") != 0 {
		t.Error("States wrong")
	}
	if err := n.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestQueryMatchesBayesRule(t *testing.T) {
	n := wetGrassNetwork(t)
	eng, err := n.Compile(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	post, err := eng.Query(Evidence{"Wet": 1}, "Rain")
	if err != nil {
		t.Fatal(err)
	}
	// P(R=1|W=1) = 0.2·0.8 / (0.2·0.8 + 0.8·0.1) = 0.16/0.24 = 2/3.
	if got := post["Rain"][1]; math.Abs(got-2.0/3.0) > 1e-9 {
		t.Errorf("P(Rain|Wet) = %v, want 2/3", got)
	}
}

func TestQueryAllSchedulers(t *testing.T) {
	for _, s := range []string{SchedulerCollaborative, SchedulerSerial} {
		n := Asia()
		eng, executor := compileColumn(t, n, Options{Workers: 3, Scheduler: s})
		post, err := eng.Query(Evidence{"XRay": 1}, "Lung", "Tub")
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if recs := eng.RecentQueries(); len(recs) != 1 || recs[0].Executor != executor {
			t.Errorf("%s: records %+v, want one run on executor %q", s, recs, executor)
		}
		want, err := n.ExactMarginal("Lung", Evidence{"XRay": 1})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(post["Lung"][1]-want[1]) > 1e-9 {
			t.Errorf("%s: P(Lung|XRay) = %v, oracle %v", s, post["Lung"], want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	n := NewNetwork()
	if _, err := n.Compile(Options{}); err == nil {
		t.Error("compiled empty network")
	}
	n2 := wetGrassNetwork(t)
	// The third name Options.Scheduler once took is unknown like any other
	// (spelled in halves: no source file names it any more).
	for _, name := range []string{"bogus", "ste" + "aling"} {
		if _, err := n2.Compile(Options{Scheduler: name}); err == nil || !strings.Contains(err.Error(), "unknown scheduler") {
			t.Errorf("Compile with scheduler %q returned %v, want the unknown-scheduler error", name, err)
		}
	}
}

func TestQueryAll(t *testing.T) {
	n := Sprinkler()
	eng, err := n.Compile(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	post, err := eng.QueryAll(Evidence{"WetGrass": 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(post) != 3 {
		t.Errorf("QueryAll returned %d posteriors, want 3", len(post))
	}
	if _, has := post["WetGrass"]; has {
		t.Error("QueryAll returned the evidence variable")
	}
	if math.Abs(post["Rain"][1]-0.7079) > 1e-3 {
		t.Errorf("P(Rain|Wet) = %v, want ≈0.7079", post["Rain"][1])
	}
}

func TestProbabilityOfEvidence(t *testing.T) {
	n := wetGrassNetwork(t)
	eng, err := n.Compile(Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := eng.ProbabilityOfEvidence(Evidence{"Wet": 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.24) > 1e-9 {
		t.Errorf("P(Wet=1) = %v, want 0.24", p)
	}
}

func TestMostProbableState(t *testing.T) {
	n := Student()
	eng, err := n.Compile(Options{})
	if err != nil {
		t.Fatal(err)
	}
	state, p, err := eng.MostProbableState(Evidence{"Letter": 1, "SAT": 1}, "Intelligence")
	if err != nil {
		t.Fatal(err)
	}
	if state != 1 {
		t.Errorf("most probable Intelligence = %d, want 1 (high)", state)
	}
	if p <= 0.5 || p > 1 {
		t.Errorf("posterior %v implausible", p)
	}
}

func TestEvidenceErrors(t *testing.T) {
	n := wetGrassNetwork(t)
	eng, err := n.Compile(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(Evidence{"missing": 0}, "Rain"); err == nil {
		t.Error("accepted evidence on unknown variable")
	}
	if _, err := eng.Query(nil, "missing"); err == nil {
		t.Error("accepted query of unknown variable")
	}
	if _, err := eng.Query(Evidence{"Wet": 7}, "Rain"); err == nil {
		t.Error("accepted out-of-range evidence state")
	}
}

func TestCliques(t *testing.T) {
	eng, err := Asia().Compile(Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, w := eng.Cliques()
	if n < 4 || w < 2 || w > 4 {
		t.Errorf("Cliques = (%d, %d)", n, w)
	}
}

func TestRandomNetworkPublic(t *testing.T) {
	n := RandomNetwork(12, 2, 3, 4)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// δ only acts on dispatched runs, and a 12-variable network's run inline.
	eng, _ := compileColumn(t, n, Options{Workers: 4, PartitionThreshold: 8})
	vars := n.Variables()
	ev := Evidence{vars[0]: 0}
	post, err := eng.QueryAll(ev)
	if err != nil {
		t.Fatal(err)
	}
	if rep := eng.SchedulerReport(); rep.PoolRuns != 1 || rep.Partitioned == 0 {
		t.Errorf("δ=8 on the pool: %d pool runs, %d tasks partitioned", rep.PoolRuns, rep.Partitioned)
	}
	for name, dist := range post {
		sum := 0.0
		for _, p := range dist {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("posterior of %s sums to %v", name, sum)
		}
		want, err := n.ExactMarginal(name, ev)
		if err != nil {
			t.Fatal(err)
		}
		for s := range dist {
			if math.Abs(dist[s]-want[s]) > 1e-9 {
				t.Errorf("P(%s|e) = %v, oracle %v", name, dist, want)
				break
			}
		}
	}
}

func TestPartitionThresholdModes(t *testing.T) {
	n := Asia()
	for _, thr := range []int{-1, 0, 2, 1000} {
		eng, _ := compileColumn(t, n, Options{PartitionThreshold: thr, Workers: 2})
		post, err := eng.Query(Evidence{"Dysp": 1}, "Bronc")
		if err != nil {
			t.Fatalf("threshold %d: %v", thr, err)
		}
		// Of the four, only δ=2 is below Asia's 4- and 8-entry tables: off,
		// the automatic rule (no piece under one dispatch, 1000 entries) and
		// 1000 split none.
		if rep := eng.SchedulerReport(); rep.PoolRuns != 1 || (rep.Partitioned > 0) != (thr == 2) {
			t.Errorf("threshold %d: %d pool runs, %d tasks partitioned", thr, rep.PoolRuns, rep.Partitioned)
		}
		want, err := n.ExactMarginal("Bronc", Evidence{"Dysp": 1})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(post["Bronc"][1]-want[1]) > 1e-9 {
			t.Errorf("threshold %d: P = %v, oracle %v", thr, post["Bronc"], want)
		}
	}
}

// TestAutoThresholdFloor: automatic partitioning makes no piece lighter than
// the dispatch that delivers it, so the 40-node benchmark model — whose
// 2×mean-table δ of 56 entries once split 60 of its tasks into 153 pieces — is
// never partitioned, even at a P high enough for the granularity rule to
// dispatch it (a mean task of 30 entries pays from 35 workers) and far above
// what its graph can occupy.
func TestAutoThresholdFloor(t *testing.T) {
	eng, err := RandomNetwork(40, 2, 3, 7).Compile(Options{Workers: 40})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Propagate(Evidence{})
	if err != nil {
		t.Fatal(err)
	}
	if m := res.Metrics(); m.Executor != "pool" || m.Workers != 40 || m.Partitioned != 0 || m.Pieces != 0 {
		t.Errorf("executor %q P=%d, %d tasks partitioned into %d pieces", m.Executor, m.Workers, m.Partitioned, m.Pieces)
	}
	res.Close()
	eng.Close()
}

func TestBuiltinNetworksValidate(t *testing.T) {
	for name, n := range map[string]*Network{
		"Asia": Asia(), "Sprinkler": Sprinkler(), "Student": Student(),
	} {
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestMostProbableExplanation(t *testing.T) {
	n := Sprinkler()
	eng, err := n.Compile(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	mpe, p, err := eng.MostProbableExplanation(Evidence{"WetGrass": 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(mpe) != 4 {
		t.Fatalf("MPE covers %d variables: %v", len(mpe), mpe)
	}
	if mpe["WetGrass"] != 1 {
		t.Error("MPE contradicts evidence")
	}
	if p <= 0 || p > 1 {
		t.Errorf("conditional MPE probability %v out of range", p)
	}
	// Brute force over the 8 non-evidence configurations.
	bestP := 0.0
	var bestC, bestS, bestR int
	for c := 0; c < 2; c++ {
		for s := 0; s < 2; s++ {
			for r := 0; r < 2; r++ {
				pe, err := eng.ProbabilityOfEvidence(Evidence{
					"Cloudy": c, "Sprinkler": s, "Rain": r, "WetGrass": 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if pe > bestP {
					bestP, bestC, bestS, bestR = pe, c, s, r
				}
			}
		}
	}
	if mpe["Cloudy"] != bestC || mpe["Sprinkler"] != bestS || mpe["Rain"] != bestR {
		t.Errorf("MPE = %v, brute force wants C=%d S=%d R=%d", mpe, bestC, bestS, bestR)
	}
	pw, err := eng.ProbabilityOfEvidence(Evidence{"WetGrass": 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-bestP/pw) > 1e-9 {
		t.Errorf("MPE conditional probability %v, want %v", p, bestP/pw)
	}
}

func TestMostProbableExplanationErrors(t *testing.T) {
	n := wetGrassNetwork(t)
	eng, err := n.Compile(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.MostProbableExplanation(Evidence{"missing": 1}); err == nil {
		t.Error("accepted unknown evidence variable")
	}
}

func TestBIFPublicRoundTrip(t *testing.T) {
	n := Asia()
	var buf bytes.Buffer
	if err := n.WriteBIF(&buf, "asia", map[string][]string{"Asia": {"no", "yes"}}); err != nil {
		t.Fatal(err)
	}
	back, states, err := ParseBIF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := states["Asia"]; len(got) != 2 || got[1] != "yes" {
		t.Errorf("states = %v", got)
	}
	eng, err := back.Compile(Options{})
	if err != nil {
		t.Fatal(err)
	}
	post, err := eng.Query(Evidence{"XRay": 1}, "Lung")
	if err != nil {
		t.Fatal(err)
	}
	want, err := Asia().ExactMarginal("Lung", Evidence{"XRay": 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(post["Lung"][1]-want[1]) > 1e-9 {
		t.Errorf("BIF round trip changed inference: %v vs %v", post["Lung"], want)
	}
}

func TestParseBIFErrors(t *testing.T) {
	if _, _, err := ParseBIF(strings.NewReader("not bif at all {")); err == nil {
		t.Error("accepted garbage")
	}
}

func TestQuerySoft(t *testing.T) {
	n := Sprinkler()
	eng, err := n.Compile(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// One-hot soft evidence equals hard evidence.
	soft, err := eng.QuerySoft(nil, SoftEvidence{"WetGrass": {0, 1}}, "Rain")
	if err != nil {
		t.Fatal(err)
	}
	hard, err := eng.Query(Evidence{"WetGrass": 1}, "Rain")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(soft["Rain"][1]-hard["Rain"][1]) > 1e-9 {
		t.Errorf("one-hot soft %v vs hard %v", soft["Rain"], hard["Rain"])
	}
	// Uniform weights change nothing.
	flat, err := eng.QuerySoft(nil, SoftEvidence{"WetGrass": {1, 1}}, "Rain")
	if err != nil {
		t.Fatal(err)
	}
	prior, err := eng.Query(nil, "Rain")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(flat["Rain"][1]-prior["Rain"][1]) > 1e-9 {
		t.Errorf("uniform soft evidence moved the posterior")
	}
	// A weak observation lands strictly between prior and hard posterior.
	weak, err := eng.QuerySoft(nil, SoftEvidence{"WetGrass": {0.5, 1}}, "Rain")
	if err != nil {
		t.Fatal(err)
	}
	if !(prior["Rain"][1] < weak["Rain"][1] && weak["Rain"][1] < hard["Rain"][1]) {
		t.Errorf("weak evidence %v not between prior %v and hard %v",
			weak["Rain"][1], prior["Rain"][1], hard["Rain"][1])
	}
	// Errors.
	if _, err := eng.QuerySoft(nil, SoftEvidence{"missing": {1, 1}}, "Rain"); err == nil {
		t.Error("accepted soft evidence on unknown variable")
	}
	if _, err := eng.QuerySoft(nil, SoftEvidence{"WetGrass": {1, 1}}, "missing"); err == nil {
		t.Error("accepted unknown query variable")
	}
}

// TestQueryOne: QueryOne is Query for one variable — the same propagation, the
// same bits — and goes through the result cache like any other query.
func TestQueryOne(t *testing.T) {
	n := Asia()
	eng, err := n.Compile(Options{Workers: 2, CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	ev := Evidence{"XRay": 1}
	got, err := eng.QueryOne(ev, "Lung")
	if err != nil {
		t.Fatal(err)
	}
	all, err := eng.Query(ev, "Lung")
	if err != nil {
		t.Fatal(err)
	}
	want := all["Lung"]
	if len(got) != len(want) {
		t.Fatalf("QueryOne = %v, Query %v", got, want)
	}
	for s := range want {
		if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
			t.Errorf("QueryOne[%d] = %v, Query %v", s, got[s], want[s])
		}
	}
	// The first sight, the pinned second and the hit on it are one answer.
	third, err := eng.QueryOne(ev, "Lung")
	if err != nil {
		t.Fatal(err)
	}
	for s := range want {
		if math.Float64bits(third[s]) != math.Float64bits(want[s]) {
			t.Errorf("QueryOne[%d] = %v from the cache, Query %v", s, third[s], want[s])
		}
	}
	if st, runs := eng.CacheStats(), eng.Stats().Propagations; st.Hits != 1 || st.Misses != 2 || st.FirstSight != 1 || runs != 2 {
		t.Errorf("%d hits, %d misses (%d first sights), %d propagations after three identical queries, want 1, 2 (1) and 2", st.Hits, st.Misses, st.FirstSight, runs)
	}
	if _, err := eng.QueryOne(nil, "missing"); !errors.Is(err, ErrUnknownVariable) {
		t.Errorf("unknown variable returned %v", err)
	}
}

func TestQueryJoint(t *testing.T) {
	n := Asia()
	eng, err := n.Compile(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	j, err := eng.QueryJoint(Evidence{"Smoke": 1}, "Asia", "XRay")
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Vars) != 2 || len(j.P) != 4 {
		t.Fatalf("joint shape: %v %v", j.Vars, j.Card)
	}
	sum := 0.0
	for _, p := range j.P {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("joint sums to %v", sum)
	}
	// Marginalizing the joint must reproduce the single-variable query.
	post, err := eng.Query(Evidence{"Smoke": 1}, "XRay")
	if err != nil {
		t.Fatal(err)
	}
	// Find XRay's position in the joint.
	xpos := -1
	for i, v := range j.Vars {
		if v == "XRay" {
			xpos = i
		}
	}
	if xpos < 0 {
		t.Fatal("XRay not in joint vars")
	}
	marg := make([]float64, j.Card[xpos])
	for a := 0; a < j.Card[0]; a++ {
		for b := 0; b < j.Card[1]; b++ {
			s := []int{a, b}[xpos]
			marg[s] += j.At(a, b)
		}
	}
	for s := range marg {
		if math.Abs(marg[s]-post["XRay"][s]) > 1e-9 {
			t.Errorf("joint marginalizes to %v, query gives %v", marg, post["XRay"])
			break
		}
	}
	if _, err := eng.QueryJoint(nil, "missing"); err == nil {
		t.Error("accepted unknown variable")
	}
}

func TestDSeparatedPublic(t *testing.T) {
	n := Asia()
	sep, err := n.DSeparated([]string{"Asia"}, []string{"Smoke"}, nil)
	if err != nil || !sep {
		t.Errorf("Asia/Smoke: %v, %v", sep, err)
	}
	sep, err = n.DSeparated([]string{"Asia"}, []string{"Smoke"}, []string{"Dysp"})
	if err != nil || sep {
		t.Errorf("Asia/Smoke|Dysp: %v, %v", sep, err)
	}
	if _, err := n.DSeparated([]string{"missing"}, []string{"Smoke"}, nil); err == nil {
		t.Error("accepted unknown variable")
	}
}

func TestMarkovBlanketPublic(t *testing.T) {
	n := Asia()
	mb, err := n.MarkovBlanket("Lung")
	if err != nil {
		t.Fatal(err)
	}
	if len(mb) != 3 {
		t.Errorf("blanket = %v", mb)
	}
	if _, err := n.MarkovBlanket("missing"); err == nil {
		t.Error("accepted unknown variable")
	}
}

func TestAddNoisyOr(t *testing.T) {
	n := NewNetwork()
	n.MustAddVariable("C1", 2, nil, []float64{0.5, 0.5})
	n.MustAddVariable("C2", 2, nil, []float64{0.5, 0.5})
	if err := n.AddNoisyOr("E", []string{"C1", "C2"}, []float64{0.2, 0.4}, 0.05); err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	eng, err := n.Compile(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// P(E=1 | C1=0, C2=0) = leak.
	p, err := eng.Query(Evidence{"C1": 0, "C2": 0}, "E")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p["E"][1]-0.05) > 1e-12 {
		t.Errorf("leak-only P = %v", p["E"][1])
	}
	// P(E=0 | C1=1, C2=1) = (1-leak)·q1·q2.
	p, err = eng.Query(Evidence{"C1": 1, "C2": 1}, "E")
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.95 * 0.2 * 0.4; math.Abs(p["E"][0]-want) > 1e-12 {
		t.Errorf("both-causes P(off) = %v, want %v", p["E"][0], want)
	}
	// P(E=0 | C1=1, C2=0) = (1-leak)·q1.
	p, err = eng.Query(Evidence{"C1": 1, "C2": 0}, "E")
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.95 * 0.2; math.Abs(p["E"][0]-want) > 1e-12 {
		t.Errorf("first-cause P(off) = %v, want %v", p["E"][0], want)
	}
}

func TestAddNoisyOrErrors(t *testing.T) {
	n := NewNetwork()
	n.MustAddVariable("C", 2, nil, []float64{0.5, 0.5})
	n.MustAddVariable("T", 3, nil, []float64{0.4, 0.3, 0.3})
	if err := n.AddNoisyOr("E", []string{"C"}, []float64{0.1, 0.2}, 0); err == nil {
		t.Error("accepted mismatched inhibitors")
	}
	if err := n.AddNoisyOr("E", []string{"C"}, []float64{1.5}, 0); err == nil {
		t.Error("accepted inhibitor > 1")
	}
	if err := n.AddNoisyOr("E", []string{"C"}, []float64{0.1}, -0.2); err == nil {
		t.Error("accepted negative leak")
	}
	if err := n.AddNoisyOr("E", []string{"T"}, []float64{0.1}, 0); err == nil {
		t.Error("accepted ternary parent")
	}
}

func TestSampleAndFit(t *testing.T) {
	n := Sprinkler()
	data, err := n.SampleN(8000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 8000 || len(data[0]) != 4 {
		t.Fatalf("samples shaped %d × %d", len(data), len(data[0]))
	}
	fitted, err := n.FitParameters(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fitted.Compile(Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Query(Evidence{"WetGrass": 1}, "Rain")
	if err != nil {
		t.Fatal(err)
	}
	want, err := n.ExactMarginal("Rain", Evidence{"WetGrass": 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got["Rain"][1]-want[1]) > 0.05 {
		t.Errorf("fitted P(Rain|Wet) = %v, true %v", got["Rain"][1], want[1])
	}
	// Missing variable in a sample errors.
	if _, err := n.FitParameters([]map[string]int{{"Rain": 0}}, 1); err == nil {
		t.Error("accepted incomplete sample")
	}
}

func TestXMLBIFPublicRoundTrip(t *testing.T) {
	n := Student()
	var buf bytes.Buffer
	if err := n.WriteXMLBIF(&buf, "student", nil); err != nil {
		t.Fatal(err)
	}
	back, _, err := ParseXMLBIF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.ExactMarginal("Grade", nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := n.ExactMarginal("Grade", nil)
	if err != nil {
		t.Fatal(err)
	}
	for s := range want {
		if math.Abs(got[s]-want[s]) > 1e-12 {
			t.Errorf("XMLBIF round trip changed P(Grade): %v vs %v", got, want)
			break
		}
	}
	if _, _, err := ParseXMLBIF(strings.NewReader("not xml")); err == nil {
		t.Error("accepted garbage")
	}
}

func TestMutualInformation(t *testing.T) {
	n := Asia()
	eng, err := n.Compile(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// XRay is informative about TbOrCa; Asia is nearly uninformative about
	// Bronc.
	strong, err := eng.MutualInformation(nil, "TbOrCa", "XRay")
	if err != nil {
		t.Fatal(err)
	}
	weak, err := eng.MutualInformation(nil, "Bronc", "Asia")
	if err != nil {
		t.Fatal(err)
	}
	if strong <= weak {
		t.Errorf("MI(TbOrCa;XRay)=%v not above MI(Bronc;Asia)=%v", strong, weak)
	}
	if weak < 0 || weak > 1e-6 {
		t.Errorf("MI of independent pair = %v", weak)
	}
	// Symmetry.
	rev, err := eng.MutualInformation(nil, "XRay", "TbOrCa")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(strong-rev) > 1e-9 {
		t.Errorf("MI not symmetric: %v vs %v", strong, rev)
	}
	if _, err := eng.MutualInformation(nil, "XRay", "XRay"); err == nil {
		t.Error("accepted self MI")
	}
	if _, err := eng.MutualInformation(nil, "missing", "XRay"); err == nil {
		t.Error("accepted unknown variable")
	}
}

func TestBestObservation(t *testing.T) {
	n := Asia()
	eng, err := n.Compile(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// For diagnosing TbOrCa, the X-ray must rank above the travel history.
	names, mis, err := eng.BestObservation(nil, "TbOrCa", "XRay", "Asia", "Dysp")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || len(mis) != 3 {
		t.Fatalf("ranked %d candidates", len(names))
	}
	if names[0] != "XRay" {
		t.Errorf("best observation = %s (%v), want XRay", names[0], mis)
	}
	for i := 1; i < len(mis); i++ {
		if mis[i] > mis[i-1]+1e-12 {
			t.Errorf("ranking not sorted: %v", mis)
		}
	}
	// Already-observed candidates and the target itself are skipped.
	names, _, err = eng.BestObservation(Evidence{"XRay": 1}, "TbOrCa", "XRay", "TbOrCa", "Dysp")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "Dysp" {
		t.Errorf("filtered ranking = %v", names)
	}
}

func TestLearnChowLiu(t *testing.T) {
	// Sample a tree-shaped truth, learn back, check posterior agreement.
	truth := NewNetwork()
	truth.MustAddVariable("Root", 2, nil, []float64{0.5, 0.5})
	truth.MustAddVariable("Mid", 2, []string{"Root"}, []float64{0.9, 0.1, 0.2, 0.8})
	truth.MustAddVariable("Leaf", 2, []string{"Mid"}, []float64{0.85, 0.15, 0.1, 0.9})
	data, err := truth.SampleN(15000, 13)
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]int{"Root": 2, "Mid": 2, "Leaf": 2}
	learned, err := LearnChowLiu(data, states, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := learned.Compile(Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Query(Evidence{"Leaf": 1}, "Root")
	if err != nil {
		t.Fatal(err)
	}
	want, err := truth.ExactMarginal("Root", Evidence{"Leaf": 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got["Root"][1]-want[1]) > 0.04 {
		t.Errorf("learned P(Root|Leaf) = %.4f, true %.4f", got["Root"][1], want[1])
	}
	if _, err := LearnChowLiu([]map[string]int{{"Root": 0}}, states, 1); err == nil {
		t.Error("accepted incomplete sample")
	}
}

// TestSteadyStateAllocs holds the warm inline path to a fixed allocation
// budget: one propagation of the 40-node benchmark model at the benchmark's
// P = 2, state and scratch pooled, allocates its record, its result and a
// handful of per-query values — nothing per task and nothing per kernel call
// (every walk is a plan compiled once on the task graph). It was 799 when each
// kernel call built its own aligner.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled states at random under the race detector")
	}
	net := RandomNetwork(40, 2, 3, 7)
	eng, err := net.Compile(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	vars := net.Variables()
	ev := Evidence{vars[3]: 1, vars[17]: 0}
	propagate := func() {
		res, err := eng.Propagate(ev)
		if err != nil {
			t.Fatal(err)
		}
		if m := res.Metrics(); m.Executor != "inline" {
			t.Fatalf("executor %q, want the inline path", m.Executor)
		}
		res.Close()
	}
	for i := 0; i < 8; i++ {
		propagate() // fill the state and scratch pools
	}
	if allocs := testing.AllocsPerRun(200, propagate); allocs > 40 {
		t.Errorf("%.0f allocations per pooled inline propagation, want at most 40", allocs)
	}
}
