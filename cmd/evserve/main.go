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
// Model management lives under /v1/models, the model-scoped queries (query,
// batch, mpe, dsep) under /v1/models/{name}/, and introspection beside them:
// /v1/stats (every request counted once, on its model), /v1/metrics,
// /v1/stream (one /v1/stats body per second, the feed evtop renders),
// /v1/healthz, /v1/readyz, /v1/audit, /v1/debug/flightrecorder and
// /v1/debug/trace. README.md lists every route, and TestREADMERoutes holds that
// list to the mux. The server declares no body of its own: each one with more
// than a single key is a type of evprop/client.
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
// flight recorder entry and the request's access-log line, so one ID
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

// options are evserve's command-line flags.
type options struct {
	modelsDir, addr, logFmt, auditDir, otlpEndpoint string
	workers, inflight, cacheSize, auditBatch        int
	auditRotate                                     int64
	timeout, slowThreshold                          time.Duration
	traceSample                                     float64
	pprof, trace, version                           bool
}

// flagSet declares evserve's flags on a set whose Parse fills o. README.md's
// evserve section lists every one (TestREADMEFlags).
func flagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.StringVar(&o.modelsDir, "models-dir", "", "serve every *.bif/*.xml/*.xmlbif in this directory, named by file basename (empty = start with no models; PUT /v1/models/{name} adds them)")
	fs.IntVar(&o.workers, "workers", 0, "worker goroutines of the process, shared by every model (0 = GOMAXPROCS)")
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.BoolVar(&o.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	fs.StringVar(&o.logFmt, "log", "text", "access-log format: text or json")
	fs.DurationVar(&o.timeout, "request-timeout", 0, "per-request deadline (0 = none)")
	fs.IntVar(&o.inflight, "max-inflight", 0, "reject propagating requests beyond this many in flight with 429 (0 = unlimited)")
	fs.DurationVar(&o.slowThreshold, "slow-threshold", 0, "slow-query floor: a slower run is marked slow in the flight recorder and its trace is kept (0 = adaptive, 2×p99)")
	fs.IntVar(&o.cacheSize, "cache-size", 1024, "per-model shared-evidence result cache entries (0 = disable caching); 16 shards, so the capacity that holds is this rounded down to a multiple of 16, at least 16 (cache.capacity in /v1/stats; cache.bytes is what the entries hold, 8 bytes per answer)")
	fs.StringVar(&o.auditDir, "audit-dir", "", "spill every query into Merkle-chained audit segments in this directory (empty = off)")
	fs.IntVar(&o.auditBatch, "audit-batch", 0, "audit records per flushed batch (0 = default)")
	fs.Int64Var(&o.auditRotate, "audit-rotate", 0, "rotate audit segments beyond this many bytes (0 = default)")
	fs.BoolVar(&o.trace, "trace", true, "distributed tracing: per-request span trees with W3C traceparent propagation, tail-sampled into GET /v1/debug/trace")
	fs.Float64Var(&o.traceSample, "trace-sample", 0.01, "head-sampling rate for traces not kept by tail rules (slow/error/caller-flagged are always kept)")
	fs.StringVar(&o.otlpEndpoint, "otlp-endpoint", "", "push kept traces as OTLP/JSON to this collector URL (e.g. http://collector:4318/v1/traces; empty = no export)")
	fs.BoolVar(&o.version, "version", false, "print version and exit")
	return fs
}

func main() {
	var o options
	flagSet(&o).Parse(os.Args[1:])
	if o.version {
		fmt.Println(buildinfo.String("evserve"))
		return
	}

	logger, access, err := newLogger(o.logFmt, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evserve:", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)

	opts := evprop.Options{
		Workers:            o.workers,
		SlowQueryThreshold: o.slowThreshold,
		CacheSize:          o.cacheSize,
		// Worker pprof labels are readable only through /debug/pprof/, so
		// they ride the same flag and cost nothing when it is off.
		PprofLabels: o.pprof,
	}
	srv := newMultiServer(opts)
	if o.auditDir != "" {
		store, err := audit.OpenFileStore(o.auditDir, audit.FileStoreOptions{MaxSegmentBytes: o.auditRotate})
		if err != nil {
			srv.close()
			fmt.Fprintln(os.Stderr, "evserve:", err)
			os.Exit(1)
		}
		srv.audStore = store
		srv.aud, err = audit.NewWriter(store, audit.Config{BatchSize: o.auditBatch})
		if err != nil {
			srv.close()
			fmt.Fprintln(os.Stderr, "evserve:", err)
			os.Exit(1)
		}
		srv.auditDir = o.auditDir
	}
	if o.modelsDir != "" {
		// One model per file, all compiled concurrently.
		if err := srv.reg.LoadDir(o.modelsDir); err != nil {
			srv.close()
			fmt.Fprintln(os.Stderr, "evserve:", err)
			os.Exit(1)
		}
	}
	srv.pprofEnabled = o.pprof
	srv.log, srv.access = logger, access
	srv.timeout = o.timeout
	srv.maxInflight = int64(o.inflight)
	if o.trace {
		srv.tracer = newTracer(o.traceSample, o.otlpEndpoint)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", o.addr)
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

// newTracer is the -trace tracer: head-sampled at rate, kept traces in the
// debug store, and pushed to an OTLP collector when endpoint is set.
func newTracer(rate float64, endpoint string) *trace.Tracer {
	t := &trace.Tracer{SampleRate: rate, Store: trace.NewStore(trace.DefaultStoreSize)}
	if endpoint != "" {
		t.Exporter = trace.NewExporter(endpoint, "evserve")
	}
	return t
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
