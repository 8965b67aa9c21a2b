package evclient

import (
	"context"
	"fmt"
	"net/url"
	"time"
)

// Typed access to evserve's observability surface: the per-model flight
// recorder (GET /v1/debug/flightrecorder) and the durable audit pipeline's
// status (GET /v1/audit). The structs mirror the server's JSON shapes
// field-for-field, so the client stays stdlib-only without importing the
// engine.

// FlightRecord is one propagation's summary from the server's flight
// recorder.
type FlightRecord struct {
	Seq               uint64         `json:"seq"`
	ID                string         `json:"id"`
	Time              time.Time      `json:"time"`
	Mode              string         `json:"mode"`
	EvidenceVars      int            `json:"evidence_vars"`
	ElapsedUsec       float64        `json:"elapsed_usec"`
	Executor          string         `json:"executor,omitempty"` // "inline" or "pool"; empty on cached and failed records
	Workers           int            `json:"workers"`
	Tasks             int            `json:"tasks"`
	Entries           int64          `json:"entries,omitempty"`           // table entries the run ranged over, sliced on its evidence
	GraphEntries      int64          `json:"graph_entries,omitempty"`     // the same task graph with nothing observed
	EffectiveWorkers  int            `json:"effective_workers,omitempty"` // workers ÷ runs in flight when the run started: the P the inline-or-pool rule priced it at
	LoadBalance       float64        `json:"load_balance"`
	SchedOverheadFrac float64        `json:"sched_overhead_fraction"`
	Error             string         `json:"error,omitempty"`
	Slow              bool           `json:"slow"`
	Cached            bool           `json:"cached"`
	Lazy              bool           `json:"lazy,omitempty"`
	LazyMsgSent       int64          `json:"lazy_msg_sent,omitempty"`
	LazyMsgBlocked    int64          `json:"lazy_msg_blocked,omitempty"`
	LazyMsgSkipped    int64          `json:"lazy_msg_skipped,omitempty"`
	LazyFlops         int64          `json:"lazy_flops,omitempty"`
	LazyFlopsFull     int64          `json:"lazy_flops_full,omitempty"`
	LazyMaterialized  int64          `json:"lazy_materialized,omitempty"`
	EvidenceSig       string         `json:"evidence_sig,omitempty"`
	Evidence          map[string]int `json:"evidence,omitempty"`
}

// TraceEvent is one executed scheduler item in a slow-query capture.
type TraceEvent struct {
	Worker    int     `json:"worker"`
	Task      int     `json:"task"`
	Kind      string  `json:"kind"`
	Lo        int     `json:"lo"`
	Hi        int     `json:"hi"`
	Combine   bool    `json:"combine,omitempty"`
	StartUsec float64 `json:"start_usec"`
	EndUsec   float64 `json:"end_usec"`
}

// SlowQueryCapture is the full detail retained for one slow propagation.
type SlowQueryCapture struct {
	Record                FlightRecord `json:"record"`
	ThresholdUsec         float64      `json:"threshold_usec"`
	BusyPerWorkerUsec     []float64    `json:"busy_per_worker_usec,omitempty"`
	OverheadPerWorkerUsec []float64    `json:"overhead_per_worker_usec,omitempty"`
	Trace                 []TraceEvent `json:"trace,omitempty"`
}

// FlightRecorderStats summarizes the recorder itself.
type FlightRecorderStats struct {
	Enabled           bool    `json:"enabled"`
	Size              int     `json:"size"`
	Recorded          int64   `json:"recorded"`
	SlowCaptured      int64   `json:"slow_captured"`
	SlowThresholdUsec float64 `json:"slow_threshold_usec"`
}

// FlightRecorderQuery selects and pages one model's flight recorder.
type FlightRecorderQuery struct {
	// Model selects the recorder ("" = the default model).
	Model string
	// ID filters records and slow captures to one query ID.
	ID string
	// Since, when non-nil, returns only records with Seq strictly greater
	// — pass the previous page's NextSince to tail the ring. nil returns
	// from the oldest retained record (including Seq 0).
	Since *uint64
	// Limit caps the page, oldest first (0 = no cap).
	Limit int
}

// FlightRecorderPage is one page of the recorder: records oldest to
// newest, the retained slow captures, and the cursor for the next page.
type FlightRecorderPage struct {
	Model     string              `json:"model"`
	Recorder  FlightRecorderStats `json:"recorder"`
	Records   []FlightRecord      `json:"records"`
	Slow      []SlowQueryCapture  `json:"slow"`
	NextSince uint64              `json:"next_since"`
}

// FlightRecorder fetches one page of a model's flight recorder.
func (c *Client) FlightRecorder(ctx context.Context, q FlightRecorderQuery) (*FlightRecorderPage, error) {
	v := url.Values{}
	if q.Model != "" {
		v.Set("model", q.Model)
	}
	if q.ID != "" {
		v.Set("id", q.ID)
	}
	if q.Since != nil {
		v.Set("since", fmt.Sprintf("%d", *q.Since))
	}
	if q.Limit > 0 {
		v.Set("limit", fmt.Sprintf("%d", q.Limit))
	}
	path := "/v1/debug/flightrecorder"
	if len(v) > 0 {
		path += "?" + v.Encode()
	}
	var out FlightRecorderPage
	if err := c.get(ctx, path, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AuditStatus is GET /v1/audit: the durable audit pipeline's
// configuration, counters and chain head. Every field but Enabled is zero
// when the server runs without -audit-dir.
type AuditStatus struct {
	Enabled bool   `json:"enabled"`
	Dir     string `json:"dir,omitempty"`
	// Enqueued counts records offered to the pipeline, Dropped the subset
	// lost to backpressure or failed appends, Spilled the records flushed
	// durably, Batches the Merkle-chained batches appended.
	Enqueued    uint64 `json:"enqueued"`
	Dropped     uint64 `json:"dropped"`
	Spilled     uint64 `json:"spilled"`
	Batches     uint64 `json:"batches"`
	StoreErrors uint64 `json:"store_errors"`
	LastError   string `json:"last_error,omitempty"`
	// FlushTotalUsec and FlushMaxUsec aggregate store-append latency.
	FlushTotalUsec float64 `json:"flush_total_usec"`
	FlushMaxUsec   float64 `json:"flush_max_usec"`
	// LastRoot is the chain head: the newest batch's Merkle root, hex.
	LastRoot string `json:"last_root,omitempty"`
	// Segments and Bytes describe the on-disk segment store.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
}

// AuditStatus fetches the audit pipeline's status.
func (c *Client) AuditStatus(ctx context.Context) (*AuditStatus, error) {
	var out AuditStatus
	if err := c.get(ctx, "/v1/audit", &out); err != nil {
		return nil, err
	}
	return &out, nil
}
