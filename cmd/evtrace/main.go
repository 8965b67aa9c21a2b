// Command evtrace fetches distributed traces from a running evserve and
// renders them as terminal waterfalls: one line per span, indented by
// parent link, with duration, share of the request, a time-positioned bar,
// and the interesting attributes (cache hit, singleflight role, lazy
// pruning counters) inline.
//
//	evtrace -url http://localhost:8080                          # list recently kept traces
//	evtrace -url http://localhost:8080 -id <32 hex>             # waterfall one trace
//	evtrace -url http://localhost:8080 -model asia -drive 3     # send a traced 3-query batch, render its trace
//	evtrace -url http://localhost:8080 -model asia -drive 3 -assert
//
// -drive mints a sampled W3C traceparent, sends one batch of n identical
// queries to -model under it (identical so the engine's singleflight and
// result cache collapse them: on a signature the server has not seen, the
// first sight's private propagation plus one shared, cached one), then fetches
// the trace back by the minted ID. -assert additionally verifies the span tree
// — caller's parent preserved on the root, pipeline stages present and
// ordered, min(n, 2) propagate spans with the other n−2 sub-queries served by
// the second — and exits non-zero on any violation, which is what
// `make smoke-trace` runs against a freshly booted server. Like the rest of
// the tooling it is standard-library only.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	evclient "evprop/client"
	"evprop/internal/buildinfo"
)

func main() {
	var (
		url     = flag.String("url", "http://localhost:8080", "evserve base URL")
		id      = flag.String("id", "", "trace ID to fetch (32 hex chars); empty lists recent traces")
		model   = flag.String("model", "", "model to drive queries at (required with -drive)")
		drive   = flag.Int("drive", 0, "send one traced batch of this many identical queries, then render its trace")
		assert  = flag.Bool("assert", false, "with -drive: verify the span tree and exit non-zero on violations")
		timeout = flag.Duration("timeout", 5*time.Second, "overall deadline")
		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("evtrace"))
		return
	}
	if *drive > 0 && *model == "" {
		fmt.Fprintln(os.Stderr, "evtrace: -drive needs -model")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := evclient.New(strings.TrimRight(*url, "/"))
	if err := run(ctx, c, *model, *id, *drive, *assert); err != nil {
		fmt.Fprintln(os.Stderr, "evtrace:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, c *evclient.Client, model, id string, drive int, assert bool) error {
	switch {
	case drive > 0:
		return driveAndRender(ctx, c, model, drive, assert)
	case id != "":
		tr, err := c.Trace(ctx, id)
		if err != nil {
			return err
		}
		fmt.Print(waterfall(tr, barWidth))
		return nil
	default:
		ids, err := c.RecentTraces(ctx)
		if err != nil {
			return err
		}
		if len(ids) == 0 {
			fmt.Println("no traces retained (tail sampling keeps slow, failed and caller-flagged requests)")
			return nil
		}
		for _, tid := range ids {
			fmt.Println(tid)
		}
		return nil
	}
}

// driveAndRender sends one traced batch of n identical queries and renders
// (and optionally asserts) the resulting span tree.
func driveAndRender(ctx context.Context, c *evclient.Client, model string, n int, assert bool) error {
	tp, traceID := evclient.NewTraceparent(true) // sampled: tail sampling must keep it
	queries := make([]evclient.BatchQuery, n)
	for i := range queries {
		queries[i] = evclient.BatchQuery{Evidence: evclient.Evidence{}}
	}
	br, err := c.Batch(evclient.WithTraceparent(ctx, tp), model, queries)
	if err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	for i, r := range br.Results {
		if r.Error != "" {
			return fmt.Errorf("batch result %d: %s", i, r.Error)
		}
	}
	tr, err := awaitTrace(ctx, c, traceID)
	if err != nil {
		return err
	}
	fmt.Print(waterfall(tr, barWidth))
	if assert {
		parentSpan := strings.Split(tp, "-")[2]
		if problems := assertTrace(tr, traceID, parentSpan, n); len(problems) > 0 {
			return fmt.Errorf("span-tree assertions failed:\n  %s", strings.Join(problems, "\n  "))
		}
		fmt.Printf("asserts ok: root parent preserved, stages ordered, %d sub-queries cost %d propagations\n", n, min(n, 2))
	}
	return nil
}

// awaitTrace polls for the trace: the root span finishes after the batch
// response is written, so the store can trail the client by a beat.
func awaitTrace(ctx context.Context, c *evclient.Client, id string) (*evclient.TraceResponse, error) {
	for {
		tr, err := c.Trace(ctx, id)
		if err == nil {
			return tr, nil
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("trace %s not retained: %w (last: %v)", id, ctx.Err(), err)
		case <-time.After(10 * time.Millisecond):
		}
	}
}
