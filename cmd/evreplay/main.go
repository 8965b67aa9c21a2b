// Command evreplay reads the Merkle-chained audit segments evserve writes
// under -audit-dir and turns them back into traffic. It always verifies
// the chain first — a tampered or torn log is refused before a single
// query is replayed.
//
//	evreplay -dir ./audit -mode verify
//	evreplay -dir ./audit -mode dump
//	evreplay -dir ./audit -mode load -url http://localhost:8080 -speed 2
//	evreplay -dir ./audit -mode diff -bif asia.bif
//
// Modes:
//
//	verify  check the Merkle chain and print a summary (default)
//	dump    print every record as one JSON line
//	load    re-drive the recorded queries as live traffic and report
//	        throughput and latency; -speed 0 replays flat out, 1 at the
//	        recorded pacing, N at N× the recorded pacing
//	diff    re-execute every record and compare answers bit for bit:
//	        P(e), every posterior, MPE assignments and probabilities must
//	        match to the last float bit, and recorded failures must fail
//	        again; exits non-zero on any divergence
//
// The replay target is either a live evserve (-url, routed per record to
// the model that answered it) or an in-process engine compiled from -bif —
// the latter is how a recorded log is checked against a new build without
// serving it.
//
// A record carries the fingerprint of the engine that answered it
// (evprop.Fingerprint: the compile scheme and Workers). In-process, each
// record replays on an engine compiled at its recorded Workers (-workers
// serves records written before fingerprints were); a record of another
// compile scheme is refused. Against a server, diff mode refuses a record
// whose fingerprint differs from the one /v1/models/{name} reports. Either
// refusal happens before anything replays, and exits 2.
//
// Against a live server, every replayed request carries a W3C traceparent
// derived deterministically from the record's query ID (SHA-256), so
// server-side traces and access logs correlate back to the audit log; in
// diff mode the traceparent is flagged sampled, and each mismatch prints
// the evtrace command that renders its kept span tree.
//
// Exit codes: 0 success, 1 diff mismatch, 2 verification or I/O failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"evprop"
	"evprop/client"
	"evprop/internal/audit"
	"evprop/internal/registry"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(argv []string) int {
	fs := flag.NewFlagSet("evreplay", flag.ExitOnError)
	var (
		dir     = fs.String("dir", "", "audit segment directory (required)")
		mode    = fs.String("mode", "verify", "verify, dump, load or diff")
		url     = fs.String("url", "", "replay against a live evserve at this base URL")
		bifFile = fs.String("bif", "", "replay on an in-process engine compiled from this BIF file (.xml/.xmlbif: XMLBIF)")
		workers = fs.Int("workers", 0, "in-process engine workers for records without a fingerprint (0 = GOMAXPROCS)")
		speed   = fs.Float64("speed", 0, "load pacing: 0 = flat out, 1 = recorded, N = N× faster")
		conc    = fs.Int("concurrency", 8, "concurrent in-flight replays")
		limit   = fs.Int("limit", 0, "replay at most this many records (0 = all)")
	)
	fs.Parse(argv) //nolint:errcheck // ExitOnError
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "evreplay: -dir is required")
		return 2
	}
	if *conc < 1 {
		*conc = 1
	}

	recs, summary, err := loadSegments(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evreplay:", err)
		return 2
	}
	fmt.Printf("verified: %d batches, %d records, chain head %s\n",
		summary.batches, len(recs), summary.head)
	if *limit > 0 && len(recs) > *limit {
		recs = recs[:*limit]
	}

	switch *mode {
	case "verify":
		return 0
	case "dump":
		if err := dumpRecords(os.Stdout, recs); err != nil {
			fmt.Fprintln(os.Stderr, "evreplay:", err)
			return 2
		}
		return 0
	case "load", "diff":
	default:
		fmt.Fprintf(os.Stderr, "evreplay: unknown -mode %q\n", *mode)
		return 2
	}

	ctx := context.Background()
	tgt, err := buildTarget(ctx, *url, *bifFile, *workers, recs, *mode == "diff")
	if err != nil {
		fmt.Fprintln(os.Stderr, "evreplay:", err)
		return 2
	}

	if *mode == "load" {
		rep := loadReplay(ctx, tgt, recs, *speed, *conc)
		fmt.Printf("replayed: %d records in %.3fs (%.1f qps), %d failed\n",
			rep.total, rep.elapsed.Seconds(), rep.qps(), rep.failed)
		fmt.Printf("latency: avg %.1fµs, max %.1fµs\n", rep.avgUsec(), rep.maxUsec)
		return 0
	}

	mismatches := diffReplay(ctx, tgt, recs, *conc)
	if len(mismatches) == 0 {
		fmt.Printf("diff: %d records, 0 mismatches\n", len(recs))
		return 0
	}
	for _, m := range mismatches {
		fmt.Fprintf(os.Stderr, "mismatch: record %d (%s %s): %s\n", m.rec.Seq, kindName(m.rec.Kind), m.rec.ID, m.reason)
		if *url != "" {
			// The replay ran under a trace ID derived from the record, flagged
			// sampled in diff mode — the server kept its span tree.
			fmt.Fprintf(os.Stderr, "  trace: evtrace -url %s -id %s\n", *url, recTraceparent(m.rec, false)[3:35])
		}
	}
	fmt.Fprintf(os.Stderr, "diff: %d records, %d mismatches\n", len(recs), len(mismatches))
	return 1
}

// buildTarget constructs the replay target: a live server when -url is
// set, otherwise in-process engines compiled from -bif, one per recorded
// Workers. diff marks replayed traces always-keep (mismatches deserve a
// waterfall) and refuses a server whose fingerprint differs from a
// record's.
func buildTarget(ctx context.Context, url, bifFile string, workers int, recs []*audit.Record, diff bool) (target, error) {
	switch {
	case url != "" && bifFile != "":
		return nil, fmt.Errorf("-url and -bif are mutually exclusive")
	case url != "":
		c := evclient.New(url)
		if diff {
			if err := checkServerFingerprints(ctx, c, recs); err != nil {
				return nil, err
			}
		}
		return &httpTarget{c: c, sampled: diff}, nil
	case bifFile == "":
		return nil, fmt.Errorf("replay needs a target: -url or -bif")
	}
	net, err := registry.FileSource(bifFile).Instantiate()
	if err != nil {
		return nil, err
	}
	tgt := &engineTarget{engines: map[string]*evprop.Engine{}}
	for _, rec := range recs {
		if _, ok := tgt.engines[rec.Fingerprint]; ok {
			continue
		}
		w := workers
		if rec.Fingerprint != "" {
			fp, err := evprop.ParseFingerprint(rec.Fingerprint)
			if err != nil {
				return nil, err
			}
			if fp.Scheme != evprop.CompileScheme {
				this := evprop.Fingerprint{Scheme: evprop.CompileScheme, Workers: fp.Workers}
				return nil, &fingerprintMismatch{model: rec.Model, recorded: rec.Fingerprint, target: this.String()}
			}
			w = fp.Workers
		}
		eng, err := net.Compile(evprop.Options{Workers: w})
		if err != nil {
			return nil, err
		}
		tgt.engines[rec.Fingerprint] = eng
	}
	return tgt, nil
}

// checkServerFingerprints asks the server for the fingerprint of every model
// the records name, and refuses the first record that was answered at
// another. A model the server does not answer for is left to the replay,
// whose requests then fail as mismatches.
func checkServerFingerprints(ctx context.Context, c *evclient.Client, recs []*audit.Record) error {
	served := map[string]string{}
	for _, rec := range recs {
		fp, ok := served[rec.Model]
		if !ok {
			if info, err := c.Model(ctx, rec.Model); err == nil {
				fp = info.Fingerprint
			}
			served[rec.Model] = fp
		}
		if rec.Fingerprint != "" && fp != "" && rec.Fingerprint != fp {
			return &fingerprintMismatch{model: rec.Model, recorded: rec.Fingerprint, target: fp}
		}
	}
	return nil
}

// fingerprintMismatch refuses a replay whose target computes a record's
// answer another way than the engine that recorded it: bits would differ
// without anything being wrong.
type fingerprintMismatch struct {
	model, recorded, target string
}

func (e *fingerprintMismatch) Error() string {
	return fmt.Sprintf("model %q was recorded at fingerprint %q, the replay target answers at %q: its bits would differ; replay against a target at the recorded fingerprint",
		e.model, e.recorded, e.target)
}

func kindName(k uint8) string {
	switch k {
	case audit.KindQuery:
		return "query"
	case audit.KindMPE:
		return "mpe"
	}
	return fmt.Sprintf("kind-%d", k)
}
