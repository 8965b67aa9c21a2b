package main

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"evprop"
	evclient "evprop/client"
	"evprop/internal/audit"
	"evprop/internal/obs"
	"evprop/internal/obs/trace"
	"evprop/internal/registry"
)

// server routes HTTP requests onto a registry of compiled models. Handlers
// run lock-free: every request pins its model's current version with one
// atomic acquire, propagates on that engine, and releases it — a version
// swapped out mid-request drains gracefully under the requests still
// holding it.
type server struct {
	// reg holds every model; compiles happen in the background and publish
	// by atomic pointer swap.
	reg *registry.Registry
	// perModel maps model name → its request counters and traffic window,
	// the only place a request is counted (see stats.go). Entries are created
	// lazily on first use and dropped on model delete. noModel counts the
	// requests that resolved no model.
	perModel sync.Map // map[string]*modelStats
	noModel  *modelStats
	// log is the process log; access receives the one access-log line per
	// request (see instrument), in the same format.
	log    *slog.Logger
	access *accessLog
	// timeout, when non-zero, bounds every request with a deadline that the
	// engine observes mid-propagation.
	timeout time.Duration
	// maxInflight, when non-zero, bounds concurrently admitted
	// propagating requests; excess requests get 429 overloaded.
	maxInflight int64
	inflight    atomic.Int64
	// pprofEnabled wires net/http/pprof under /debug/pprof/ (opt-in via
	// the -pprof flag: profiling endpoints expose internals and should not
	// be on by default).
	pprofEnabled bool
	// cacheOn mirrors the engines' cache configuration so the hot path can
	// skip cache accounting without asking an engine each time.
	cacheOn bool
	// workers is -workers (0: GOMAXPROCS), the P every model compiles at and
	// so the size of the process's worker pool that the scheduler block of
	// every stats view reads, and the most items of one batch in flight.
	workers int
	// aud, when non-nil, receives one durable audit record per completed
	// query/MPE (the -audit-dir pipeline; see audit.go). audStore is its
	// file-segment backend and auditDir the configured directory.
	aud      *audit.Writer
	audStore *audit.FileStore
	auditDir string
	// tracer owns distributed tracing (the -trace flags): per-request span
	// arenas, tail sampling into the debug store, optional OTLP export. nil
	// when tracing is off — every consumer nil-checks.
	tracer *trace.Tracer
	// sampler takes the 1 s snapshots behind /v1/stream; started is the
	// uptime epoch reported by /v1/healthz and every snapshot.
	sampler *obs.Sampler[evclient.Stats]
	started time.Time
	// ready gates /v1/readyz: false until the listener is up, false again
	// once drain begins. drain is closed by beginDrain (via drainOnce) so
	// every in-flight /v1/stream handler unblocks during graceful shutdown.
	ready     atomic.Bool
	drain     chan struct{}
	drainOnce sync.Once
}

// newMultiServer builds a server over an empty registry; models arrive by
// the registry's LoadDir (-models-dir) or PUT /v1/models/{name}.
func newMultiServer(opts evprop.Options) *server {
	s := &server{
		reg:     registry.New(opts),
		noModel: &modelStats{name: noModelName, window: obs.NewWindow()},
		log:     slog.Default(),
		access:  &accessLog{w: os.Stderr},
		cacheOn: opts.CacheSize > 0,
		workers: opts.Workers,
		started: time.Now(),
		drain:   make(chan struct{}),
	}
	if s.workers <= 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	s.sampler = obs.NewSampler(streamInterval, 1, s.statsNow)
	return s
}

// close drains and drops every model; for shutdown and failed boots.
func (s *server) close() { s.reg.Close() }

// mux routes the /v1 API: every model-scoped operation lives under
// /v1/models/{name}/…. Every route goes through instrument, so each request
// carries a query ID and emits one access-log record; only the pprof
// endpoints, the stream and the health probes bypass it. A path that matches
// no route is 404 not_found in the error envelope.
func (s *server) mux() *http.ServeMux {
	m := http.NewServeMux()
	// A route's pattern is also its endpoint label in the access log and spans.
	route := func(pattern string, h http.HandlerFunc) {
		m.HandleFunc(pattern, s.instrument(pattern, h))
	}
	// Model management.
	route("/v1/models", s.handleModels)
	route("/v1/models/{name}", s.handleModelByName)
	route("/v1/models/{name}/reload", s.handleModelReload)
	route("/v1/models/{name}/stats", s.handleModelStats)
	// Model-scoped queries.
	route("/v1/models/{name}/query", s.handleQuery)
	route("/v1/models/{name}/batch", s.handleBatch)
	route("/v1/models/{name}/mpe", s.handleMPE)
	route("/v1/models/{name}/dsep", s.handleDSep)
	// Introspection.
	route("/v1/stats", s.handleStats)
	route("/v1/metrics", s.handleMetrics)
	route("/v1/audit", s.handleAudit)
	route("/v1/debug/flightrecorder", s.handleFlightRecorder)
	route("/v1/debug/trace", s.handleTrace)
	// The stream and the health probes stay outside instrument: probes fire
	// every few seconds and a stream lives for minutes — folding either into
	// the access log would drown the real traffic signal.
	m.HandleFunc("/v1/stream", s.handleStream)
	m.HandleFunc("/v1/healthz", s.handleHealthz)
	m.HandleFunc("/v1/readyz", s.handleReadyz)
	// Everything else.
	route("/", func(w http.ResponseWriter, r *http.Request) {
		s.writeErrorCode(w, r, http.StatusNotFound, "not_found", "no route for "+r.URL.Path)
	})
	if s.pprofEnabled {
		m.HandleFunc("/debug/pprof/", pprof.Index)
		m.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		m.HandleFunc("/debug/pprof/profile", pprof.Profile)
		m.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		m.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return m
}

// acquire pins the request's model version and points the request at the
// model's counters; the model-scoped handlers call it before anything else
// can fail, so a request is counted — answered, malformed or refused — on the
// model its route names. On failure it has already answered the request,
// counted against noModel.
func (s *server) acquire(w http.ResponseWriter, r *http.Request) (*registry.Version, func(), *modelStats, bool) {
	name := r.PathValue("name")
	v, release, err := s.reg.Acquire(name)
	if err != nil {
		s.writeError(w, r, err)
		return nil, nil, nil, false
	}
	ms := s.modelStatsFor(name)
	ri := reqInfoFrom(r.Context())
	ri.ms, ri.version = ms, v
	return v, release, ms, true
}

// modelSchema is the GET /v1/models/{name} body: the registry's lifecycle info
// plus the variable schema.
func modelSchema(info registry.Info, net *evprop.Network) evclient.ModelSchema {
	resp := evclient.ModelSchema{ModelInfo: info}
	for _, name := range net.Variables() {
		resp.Variables = append(resp.Variables, evclient.Variable{Name: name, States: net.States(name)})
	}
	return resp
}

// modelInfo finds one model's registry Info.
func (s *server) modelInfo(name string) (registry.Info, bool) {
	for _, info := range s.reg.List() {
		if info.Name == name {
			return info, true
		}
	}
	return registry.Info{Name: name}, false
}

// outcome is one answered (or failed) query or MPE: what was asked, of which
// model version, what came back, and the engine's records of the
// propagations behind it. answer builds it; finish is the only place it is
// written anywhere — the latency histogram, the request totals that the access
// log, the window and the audit log read — so those views cannot disagree.
type outcome struct {
	kind     uint8 // audit.KindQuery or audit.KindMPE
	v        *registry.Version
	evidence evprop.Evidence
	// targets are a query's requested posteriors (none: every non-evidence
	// variable).
	targets []string

	// The answer, unset when err is: P(e) and posteriors for a query,
	// assignment and its probability for an MPE.
	pe          float64
	posteriors  map[string][]float64
	assignment  map[string]int
	probability float64

	// cached marks an answer that cost no propagation of its own: every
	// engine run behind it was served from the result cache.
	cached  bool
	elapsed time.Duration
	err     error
	// runs summarize the engine's records of the propagations behind the
	// answer, the first nruns of them: the entries its flight recorder holds.
	runs  [3]evprop.RunSummary
	nruns int
}

// answer resolves one query or MPE on its pinned version and folds the
// outcome into every view. Each query costs exactly one sum-product
// propagation (an MPE one max-product propagation more), cache permitting.
func (s *server) answer(ctx context.Context, o *outcome) {
	start := time.Now()
	s.propagate(ctx, o)
	o.elapsed = time.Since(start)
	s.finish(ctx, o)
}

// propagate is the one place the server calls an engine: it runs the
// outcome's sum-product propagation under ctx — the request's deadline,
// query ID and trace — declaring what it will read: a query its targets (none
// listed: every posterior), an MPE no posterior at all, so that run only
// collects — and derives the answer from it inside a collect span. An MPE's
// max-product companion run happens during that derivation, under the same
// ctx, so it lands in the same trace (below collect), is recorded under the
// same query ID and stops at the same deadline.
func (s *server) propagate(ctx context.Context, o *outcome) {
	var res *evprop.QueryResult
	var err error
	if o.kind == audit.KindMPE {
		res, err = o.v.Engine.CollectContext(ctx, o.evidence)
	} else {
		res, err = o.v.Engine.PropagateContext(ctx, o.evidence, o.targets...)
	}
	if err != nil {
		o.err = err
		return
	}
	defer res.Close()
	if o.kind == audit.KindMPE {
		// The companion run's spans nest under collect: its span rides ctx.
		csp := trace.FromContext(ctx).StartChild("collect")
		o.assignment, o.probability, o.err = res.MPEContext(trace.ContextWith(ctx, csp))
		endSpan(csp, o.err)
	} else {
		csp := trace.FromContext(ctx).Child("collect")
		// The answer only reads the posteriors, and so does the audit log.
		o.pe = res.ProbabilityOfEvidence()
		if o.pe > 0 {
			o.posteriors, o.err = res.SharedPosteriors(o.targets...)
		} else {
			o.posteriors = map[string][]float64{}
		}
		endSpan(&csp, o.err)
	}
	o.nruns = res.Runs(o.runs[:])
	o.cached = true
	for _, run := range o.runs[:o.nruns] {
		o.cached = o.cached && run.Cached
	}
}

// endSpan ends sp, failed with err's message when there is one.
func endSpan(sp *trace.Span, err error) {
	if err != nil {
		sp.Fail(err.Error())
	}
	sp.End()
}

// finish folds one outcome into the views: the request's totals (which
// instrument turns into the access-log line, the window sample and, once
// tail sampling kept the request's trace, the latency exemplar), its model's
// latency histogram and the audit log.
// Failed outcomes stay out of the histogram — they are counted as errors
// by writeErrorCode, and a batch item's failure is reported in place.
func (s *server) finish(ctx context.Context, o *outcome) {
	ri := reqInfoFrom(ctx)
	ri.fold(o, s.cacheOn)
	if o.err == nil {
		ri.ms.latency.Observe(o.elapsed)
	}
	if s.aud != nil {
		s.aud.Enqueue(o.auditRecord(ri.queryID, ri.ms.name))
	}
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	v, release, ms, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	req, ok := readJSON[evclient.QueryRequest](s, w, r)
	if !ok {
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.inflight.Add(-1)
	ms.queries.Add(1)
	o := &outcome{kind: audit.KindQuery, v: v, evidence: req.Evidence, targets: req.Query}
	s.answer(r.Context(), o)
	if o.err != nil {
		s.writeError(w, r, o.err)
		return
	}
	s.writeQuery(w, evclient.QueryResponse{PEvidence: o.pe, Posteriors: o.posteriors, Model: r.PathValue("name"), Version: v.ID})
}

// admit applies -max-inflight admission control to the propagating
// routes. On rejection it has already answered 429.
func (s *server) admit(w http.ResponseWriter, r *http.Request) bool {
	if n := s.inflight.Add(1); s.maxInflight > 0 && n > s.maxInflight {
		s.inflight.Add(-1)
		s.writeError(w, r, fmt.Errorf("%w: %d in flight", errOverloaded, s.maxInflight))
		return false
	}
	return true
}

// handleBatch answers many queries in one round trip on the batch's pinned
// version, at most -workers of them at a time: admission counts a batch as one
// request, so its items must not hold a state each. Sub-queries sharing an
// evidence signature collapse in the engine's singleflight and result cache
// (two propagations on a signature never seen before, none on a cached one);
// nothing here groups them.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	v, release, ms, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	req, ok := readJSON[evclient.BatchRequest](s, w, r)
	if !ok {
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.inflight.Add(-1)
	ms.batches.Add(1)
	results := make([]evclient.BatchResult, len(req.Queries))
	var next atomic.Int64 // the next item to answer
	var wg sync.WaitGroup
	for range min(s.workers, len(req.Queries)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(req.Queries) {
					return
				}
				// Each sub-query runs under its own child span, so the trace
				// shows the batch fanning out.
				isp := trace.FromContext(r.Context()).StartChild("batch.item",
					trace.Int("batch.index", int64(i)))
				q := req.Queries[i]
				o := &outcome{kind: audit.KindQuery, v: v, evidence: q.Evidence, targets: q.Query}
				s.answer(trace.ContextWith(r.Context(), isp), o)
				if o.err != nil {
					isp.Fail(o.err.Error())
					results[i] = evclient.BatchResult{Error: o.err.Error()}
				} else {
					results[i] = evclient.BatchResult{PEvidence: o.pe, Posteriors: o.posteriors}
				}
				isp.End()
			}
		}()
	}
	wg.Wait()
	s.writeJSON(w, evclient.BatchResponse{Results: results, Model: r.PathValue("name"), Version: v.ID})
}

func (s *server) handleMPE(w http.ResponseWriter, r *http.Request) {
	v, release, ms, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	req, ok := readJSON[evclient.MPERequest](s, w, r)
	if !ok {
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.inflight.Add(-1)
	ms.mpes.Add(1)
	o := &outcome{kind: audit.KindMPE, v: v, evidence: req.Evidence}
	s.answer(r.Context(), o)
	if o.err != nil {
		s.writeError(w, r, o.err)
		return
	}
	s.writeMPE(w, evclient.MPEResponse{Assignment: o.assignment, Probability: o.probability, Model: r.PathValue("name"), Version: v.ID})
}

func (s *server) handleDSep(w http.ResponseWriter, r *http.Request) {
	v, release, _, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	req, ok := readJSON[evclient.DSepRequest](s, w, r)
	if !ok {
		return
	}
	sep, err := v.Net.DSeparated(req.X, req.Y, req.Z)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.writeJSON(w, evclient.DSepResponse{Separated: sep})
}

// handleFlightRecorder dumps a model's flight recorder (the recorder is
// scoped per model version — the required `?model=` selects one).
// `?id=q-…` filters the ring to one query ID — the lookup used to
// correlate an X-Query-ID response header or access-log line with its
// scheduler run. `?since=<seq>` returns only records with a strictly
// greater sequence number and `&limit=N` caps the page (oldest first);
// together with the response's next_since cursor a poller tails the ring
// without re-reading records it has already seen.
func (s *server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErrorCode(w, r, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	q := r.URL.Query()
	var since uint64
	haveSince := false
	if raw := q.Get("since"); raw != "" {
		n, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			s.writeErrorCode(w, r, http.StatusBadRequest, "bad_request", "since must be a non-negative integer")
			return
		}
		since, haveSince = n, true
	}
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			s.writeErrorCode(w, r, http.StatusBadRequest, "bad_request", "limit must be a non-negative integer")
			return
		}
		limit = n
	}
	name := q.Get("model")
	if name == "" {
		s.writeErrorCode(w, r, http.StatusBadRequest, "bad_request", "model is required")
		return
	}
	v, err := s.reg.Current(name)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	resp := evclient.FlightRecorderPage{
		Model:     name,
		Recorder:  v.Engine.FlightRecorderStats(),
		Records:   v.Engine.RecentQueries(),
		NextSince: since,
	}
	if id := q.Get("id"); id != "" {
		var recs []evprop.FlightRecord
		for _, rec := range resp.Records {
			if rec.ID == id {
				recs = append(recs, rec)
			}
		}
		resp.Records = recs
	}
	if haveSince {
		// Records arrive sorted by Seq; keep the strictly-newer suffix.
		cut := len(resp.Records)
		for i, rec := range resp.Records {
			if rec.Seq > since {
				cut = i
				break
			}
		}
		resp.Records = resp.Records[cut:]
	}
	if limit > 0 && len(resp.Records) > limit {
		resp.Records = resp.Records[:limit]
	}
	if n := len(resp.Records); n > 0 {
		resp.NextSince = resp.Records[n-1].Seq
	}
	s.writeJSON(w, resp)
}
