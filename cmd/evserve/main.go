// Command evserve serves exact inference over HTTP for many models at
// once. Models live in a registry: each is compiled to its own engine in
// the background and published by an atomic pointer swap, so uploads and
// hot reloads never pause serving — new queries route to the new version
// while in-flight queries drain against the old one. Handlers take no
// lock and each query costs exactly one evidence propagation.
//
// -models-dir boots one model per *.bif/*.xml/*.xmlbif file, named by its
// basename; without it the registry starts empty and models arrive by
// PUT /v1/models/{name}. Every model-scoped operation is addressed by name.
//
//	evserve -models-dir ./models -addr :8080
//	evserve -models-dir ./models -log json -request-timeout 5s
//
// Model management (JSON):
//
//	GET    /v1/models                 → {"models": [{"name": …, "state": "ready", "version": 3, …}, …]}
//	GET    /v1/models/{name}          → model info + {"variables": [{"name": "...", "states": n}, …]}
//	PUT    /v1/models/{name}          ← a BIF or XMLBIF document (sniffed); ?wait=1 blocks for the compile
//	DELETE /v1/models/{name}          → drains in-flight queries, then releases the engine
//	POST   /v1/models/{name}/reload   → recompile from the retained source (re-reads file sources); ?wait=1 blocks
//	GET    /v1/models/{name}/stats    → that model's stats row: counters, latency, window, cache, gauges
//
// Model-scoped queries:
//
//	POST /v1/models/{name}/query  ← {"evidence": {"XRay": 1}, "query": ["Lung"]}
//	                              → {"p_evidence": 0.11, "posteriors": {"Lung": [0.51, 0.49]}, "model": …, "version": …}
//	POST /v1/models/{name}/batch  ← {"queries": [{"evidence": …, "query": …}, …]}
//	POST /v1/models/{name}/mpe    ← {"evidence": {"XRay": 1}}
//	POST /v1/models/{name}/dsep   ← {"x": ["Asia"], "y": ["Smoke"], "z": []}
//
// Introspection:
//
//	GET /v1/stats  → {totals, models: [one stats row per model], unresolved, audit, trace};
//	                every request is counted once, on its model, and the totals are sums over the rows
//	GET /v1/metrics → Prometheus text exposition, one series per model (model="…")
//	GET /v1/stream → Server-Sent Events, one /v1/stats body per second (the feed evtop renders)
//	GET /v1/healthz → liveness: build info, go version, uptime
//	GET /v1/readyz  → readiness: 200 while serving, 503 once drain begins
//	GET /v1/audit  → audit pipeline status: counters, chain head, segment totals
//	GET /v1/debug/flightrecorder?model=<name> → that model's recent query ring,
//	                slow runs marked; ?id=q-… filters to one query ID,
//	                ?since=<seq>&limit=N pages oldest-first (next_since cursor)
//	GET /v1/debug/trace → recently kept trace IDs; ?id=<32-hex> returns one
//	                kept trace's span tree (see cmd/evtrace for a waterfall)
//
// Distributed tracing is on by default (-trace): every request runs under
// a span arena, honors a caller's W3C traceparent/tracestate (the trace ID
// survives end to end and is echoed as X-Trace-ID and in error envelopes),
// and tail sampling keeps slow, failed and caller-flagged traces plus a
// -trace-sample head-sampled remainder. -otlp-endpoint additionally pushes
// kept traces as OTLP/JSON to a collector.
//
// Errors are uniform: every failure answers
// {"error": {"code": …, "message": …, "query_id": …}} with the status
// from one typed-error mapping table (unknown variable/impossible
// evidence → 422, unknown model → 404, overload → 429, timeout → 504);
// a path that matches no route is 404 not_found.
//
// Repeated-evidence traffic is served from a per-model result cache
// (-cache-size, on by default) with singleflight collapsing of concurrent
// identical queries, /v1/batch sub-queries included. -max-inflight bounds
// concurrently admitted propagating requests (429 beyond it).
//
// -audit-dir enables the durable query audit: every completed query and MPE
// request is spilled asynchronously into Merkle-chained, tamper-evident
// segment files (-audit-batch and -audit-rotate tune batching and rotation;
// see internal/audit and cmd/evreplay).
//
// Every response carries an X-Query-ID header (minted per request, or echoed
// from the client's own X-Query-ID when it is ≤64 bytes of [A-Za-z0-9._:-];
// anything else is replaced with a generated ID) that also tags the engine's
// flight recorder entry and the request's slog access-log record, so one ID
// correlates all three. SIGINT/SIGTERM drain in-flight propagations before
// the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"evprop"
	"evprop/internal/audit"
	"evprop/internal/buildinfo"
	"evprop/internal/obs/trace"
)

// shutdownGrace bounds how long a drain may take once a signal arrives.
const shutdownGrace = 10 * time.Second

func main() {
	var (
		modelsDir = flag.String("models-dir", "", "serve every *.bif/*.xml/*.xmlbif in this directory, named by file basename (empty = start with no models; PUT /v1/models/{name} adds them)")
		workers   = flag.Int("workers", 0, "worker goroutines of the process, shared by every model (0 = GOMAXPROCS)")
		addr      = flag.String("addr", ":8080", "listen address")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		logFmt    = flag.String("log", "text", "access-log format: text or json")
		timeout   = flag.Duration("request-timeout", 0, "per-request deadline (0 = none)")
		inflight  = flag.Int("max-inflight", 0, "reject propagating requests beyond this many in flight with 429 (0 = unlimited)")
		slowThr   = flag.Duration("slow-threshold", 0, "slow-query floor: a slower run is marked slow in the flight recorder and its trace is kept (0 = adaptive, 2×p99)")
		cacheSz   = flag.Int("cache-size", 1024, "per-model shared-evidence result cache entries (0 = disable caching); 16 shards, so the capacity that holds is this rounded down to a multiple of 16, at least 16 (cache.capacity in /v1/stats; cache.bytes is what the entries pin)")
		auditDir  = flag.String("audit-dir", "", "spill every query into Merkle-chained audit segments in this directory (empty = off)")
		auditBat  = flag.Int("audit-batch", 0, "audit records per flushed batch (0 = default)")
		auditRot  = flag.Int64("audit-rotate", 0, "rotate audit segments beyond this many bytes (0 = default)")
		traceOn   = flag.Bool("trace", true, "distributed tracing: per-request span trees with W3C traceparent propagation, tail-sampled into GET /v1/debug/trace")
		traceRate = flag.Float64("trace-sample", 0.01, "head-sampling rate for traces not kept by tail rules (slow/error/caller-flagged are always kept)")
		otlpEndp  = flag.String("otlp-endpoint", "", "push kept traces as OTLP/JSON to this collector URL (e.g. http://collector:4318/v1/traces; empty = no export)")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("evserve"))
		return
	}

	logger, err := newLogger(*logFmt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evserve:", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)

	opts := evprop.Options{
		Workers:            *workers,
		SlowQueryThreshold: *slowThr,
		CacheSize:          *cacheSz,
		// Worker pprof labels are readable only through /debug/pprof/, so
		// they ride the same flag and cost nothing when it is off.
		PprofLabels: *pprofOn,
	}
	srv := newMultiServer(opts)
	if *auditDir != "" {
		store, err := audit.OpenFileStore(*auditDir, audit.FileStoreOptions{MaxSegmentBytes: *auditRot})
		if err != nil {
			srv.close()
			fmt.Fprintln(os.Stderr, "evserve:", err)
			os.Exit(1)
		}
		srv.audStore = store
		srv.aud, err = audit.NewWriter(store, audit.Config{BatchSize: *auditBat})
		if err != nil {
			srv.close()
			fmt.Fprintln(os.Stderr, "evserve:", err)
			os.Exit(1)
		}
		srv.auditDir = *auditDir
	}
	if *modelsDir != "" {
		// One model per file, all compiled concurrently.
		if err := srv.reg.LoadDir(*modelsDir); err != nil {
			srv.close()
			fmt.Fprintln(os.Stderr, "evserve:", err)
			os.Exit(1)
		}
	}
	srv.pprofEnabled = *pprofOn
	srv.log = logger
	srv.timeout = *timeout
	srv.maxInflight = int64(*inflight)
	if *traceOn {
		srv.tracer = &trace.Tracer{
			SampleRate: *traceRate,
			Store:      trace.NewStore(trace.DefaultStoreSize),
		}
		if *otlpEndp != "" {
			srv.tracer.Exporter = trace.NewExporter(*otlpEndp, "evserve")
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.close()
		fmt.Fprintln(os.Stderr, "evserve:", err)
		os.Exit(1)
	}
	logger.Info("evserve: listening",
		slog.Int("models", len(srv.reg.Names())),
		slog.String("addr", ln.Addr().String()))
	srv.sampler.Start()
	srv.ready.Store(true)
	err = serve(ctx, ln, srv, logger)
	srv.beginDrain() // listener-failure path: Shutdown never ran
	srv.close()
	if srv.tracer != nil {
		// Flush whatever the OTLP exporter has queued (nil-safe).
		srv.tracer.Exporter.Close()
	}
	if srv.aud != nil {
		// Drain and seal the audit log after the last request finished; a
		// failed final flush is worth a log line but not a dirty exit.
		if cerr := srv.aud.Close(); cerr != nil {
			logger.Error("evserve: audit close", slog.String("err", cerr.Error()))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "evserve:", err)
		os.Exit(1)
	}
	logger.Info("evserve: stopped")
}

// newLogger builds the process logger in the requested access-log format.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log format %q (want text or json)", format)
	}
}

// serve runs the HTTP server until the listener fails or ctx is canceled
// (SIGINT/SIGTERM in main), then drains in-flight requests for up to
// shutdownGrace before returning.
func serve(ctx context.Context, ln net.Listener, srv *server, logger *slog.Logger) error {
	hs := &http.Server{
		Handler: srv.mux(),
		// Bound header reads so an idle half-open connection cannot pin a
		// goroutine forever; request bodies stay unbounded because batch
		// payloads are legitimately large.
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Shutdown's first act is to run these callbacks: readyz flips to 503 and
	// every /v1/stream handler unblocks, so long-lived streams cannot pin the
	// drain until its grace deadline.
	hs.RegisterOnShutdown(srv.beginDrain)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("evserve: draining in-flight requests", slog.Duration("grace", shutdownGrace))
	sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		// The grace period ran out; close the stragglers hard.
		hs.Close()
		return err
	}
	return nil
}
