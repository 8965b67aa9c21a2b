package main

import (
	"fmt"
	"math/rand"
	"sort"

	"evprop"
	evclient "evprop/client"
)

// model is one generated network. The generator seed is part of the
// workload definition: -seed drives only the traffic, never the model, so
// two runs with different seeds load the same junction tree.
type model struct {
	name                      string
	nodes, states, maxParents int
	seed                      int64
}

func (m model) network() *evprop.Network {
	return evprop.RandomNetwork(m.nodes, m.states, m.maxParents, m.seed)
}

var models = map[string]model{
	// 34 cliques, largest table 128 entries: fixed costs dominate.
	"small40": {"small40", 40, 2, 3, 7},
	// 43 cliques, largest table 8 192 entries.
	"mid60": {"mid60", 60, 2, 4, 7},
	// 42 cliques, largest table 131 072 entries (width 17): the paper's
	// Fig. 9 regime, where δ-partitioning does real work.
	"wide60": {"wide60", 60, 2, 5, 7},
}

// workload is one traffic mix against one model.
type workload struct {
	name, why string
	model     string
	// evidenceVars variables are observed per request, in random states.
	evidenceVars int
	// targets posteriors are asked for; 0 asks for every unobserved variable.
	targets int
	// pool > 0 draws every request from a fixed pool of that many
	// evidence/target pairs, so after warm-up every query is a cache hit.
	// The pool is generated from poolSeed and is, like the model, part of
	// the workload definition; --seed only orders the draws. It has to be:
	// evserve's 32-entry cache is 16 shards of two entries, an arbitrary
	// pool of 16 puts three keys in some shard and thrashes (hit ratio
	// about 0.75), and whether it does would change with the seed. This
	// poolSeed's sixteen signatures land at most two to a shard.
	pool     int
	poolSeed int64
	// mpeEvery > 0 makes every mpeEvery-th request a POST /mpe.
	mpeEvery int
	// pacedRate is the open-loop phase's fixed arrival rate in requests
	// per second, a fifth to a third of the duo capacity of a 2-vCPU host.
	pacedRate float64
	// traceQueries is the number of queries the traced run walks through
	// every layer.
	traceQueries int
	// refWork and refValues size the reference server's request: table
	// entries to stream over and numbers to return, chosen so that the
	// reference takes about as long as evserve does on this workload.
	refWork, refValues int
	// refSoloMs and refDuoQps are the reference's nominal timings on this
	// request: its median round trip with one client and its answers per
	// second with two, on the host the baseline was recorded on in one of
	// its fast spells. They only fix the unit end-to-end timings are
	// reported in (see runLoad).
	refSoloMs, refDuoQps float64
}

// refBootS is the reference server's nominal start-to-ready time.
const refBootS = 0.0054

var workloads = []workload{
	{
		name:  "small-miss",
		why:   "40-node model, sparse never-repeating evidence: HTTP/JSON/log/trace and per-task scheduling dominate, kernels are invisible",
		model: "small40", evidenceVars: 4, targets: 3, pacedRate: 600, traceQueries: 200, refWork: 600_000, refValues: 6, refSoloMs: 0.60, refDuoQps: 2400,
	},
	{
		name:  "small-hit",
		why:   "40-node model, 16 repeating queries: every request is a cache hit, so only decode/signature/lookup/project/encode/record runs",
		model: "small40", evidenceVars: 4, targets: 3, pool: 16, poolSeed: 4, pacedRate: 2000, traceQueries: 200, refWork: 0, refValues: 6, refSoloMs: 0.115, refDuoQps: 14500,
	},
	{
		name:  "wide-miss",
		why:   "width-17 model, never-repeating evidence: table arithmetic, delta-partitioning, 2-worker speed-up and per-result memory dominate; the cache only costs",
		model: "wide60", evidenceVars: 4, targets: 3, pacedRate: 30, traceQueries: 50, refWork: 24_000_000, refValues: 6, refSoloMs: 9.0, refDuoQps: 122,
	},
	{
		name:  "mid-dense",
		why:   "mid-width model, evidence on half the variables, all posteriors returned, one MPE per three queries: dense, collect- and encode-heavy, max-product",
		model: "mid60", evidenceVars: 30, targets: 0, mpeEvery: 4, pacedRate: 150, traceQueries: 200, refWork: 4_000_000, refValues: 60, refSoloMs: 2.0, refDuoQps: 580,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// direction says which way a metric improves.
type direction string

const (
	lower  direction = "lower"
	higher direction = "higher"
)

// e2eMetric is one end-to-end metric with the bound by which it may worsen
// between two runs before -compare reports it as worse. BENCHMARK.json
// carries the same table; benchmark_test.go keeps the two equal. The bounds
// are about three times the widest ten-seed spread seen on a 2-vCPU shared
// host, capped at the contract's 25 %.
type e2eMetric struct {
	name, unit string
	better     direction
	bound      float64
	// floor is an absolute change below which a relative excess is ignored
	// (set-up takes 5-20 ms, so a quarter of it is within one process
	// start's jitter).
	floor float64
}

var endToEnd = []e2eMetric{
	{name: "setup_s", unit: "s", better: lower, bound: 0.25, floor: 0.010},
	{name: "latency_p50_ms", unit: "ms", better: lower, bound: 0.25},
	{name: "latency_p95_ms", unit: "ms", better: lower, bound: 0.25},
	{name: "throughput_qps", unit: "1/s", better: higher, bound: 0.25},
	{name: "paced_p50_ms", unit: "ms", better: lower, bound: 0.25},
	{name: "server_cpu_ms_per_query", unit: "ms", better: lower, bound: 0.25},
	{name: "server_peak_rss_mb", unit: "MB", better: lower, bound: 0.20},
}

// request is one generated query.
type request struct {
	evidence evclient.Evidence
	targets  []string
	mpe      bool
}

// schema is what a stream needs to know about the model.
type schema struct {
	vars   []string
	states map[string]int
}

func schemaOf(net *evprop.Network) schema {
	s := schema{vars: net.Variables(), states: map[string]int{}}
	for _, v := range s.vars {
		s.states[v] = net.States(v)
	}
	return s
}

// stream is a deterministic request generator: the same (workload, seed,
// lane) always yields the same sequence. Every sender owns one stream, so
// senders never share a generator.
type stream struct {
	w    workload
	s    schema
	rng  *rand.Rand
	pool []request
	n    int
}

// laneSeed mixes the run seed with a phase/round/sender lane so that no two
// lanes of a run replay each other's requests.
func laneSeed(seed int64, lane int) int64 {
	return seed*1_000_003 + int64(lane)*7919 + 1
}

func newStream(w workload, s schema, seed int64, lane int) *stream {
	st := &stream{w: w, s: s, rng: rand.New(rand.NewSource(laneSeed(seed, lane)))}
	if w.pool > 0 {
		pr := rand.New(rand.NewSource(w.poolSeed))
		for i := 0; i < w.pool; i++ {
			st.pool = append(st.pool, st.generate(pr))
		}
	}
	return st
}

func (st *stream) next() request {
	st.n++
	if st.pool != nil {
		return st.pool[st.rng.Intn(len(st.pool))]
	}
	r := st.generate(st.rng)
	r.mpe = st.w.mpeEvery > 0 && st.n%st.w.mpeEvery == 0
	if r.mpe {
		r.targets = nil
	}
	return r
}

func (st *stream) generate(rng *rand.Rand) request {
	perm := rng.Perm(len(st.s.vars))
	r := request{evidence: evclient.Evidence{}}
	for _, i := range perm[:st.w.evidenceVars] {
		v := st.s.vars[i]
		r.evidence[v] = rng.Intn(st.s.states[v])
	}
	for _, i := range perm[st.w.evidenceVars : st.w.evidenceVars+st.w.targets] {
		r.targets = append(r.targets, st.s.vars[i])
	}
	sort.Strings(r.targets)
	return r
}

func (r request) String() string {
	kind := "query"
	if r.mpe {
		kind = "mpe"
	}
	return fmt.Sprintf("%s evidence=%v targets=%v", kind, map[string]int(r.evidence), r.targets)
}
