package evclient

import (
	"context"
	"fmt"
	"net/url"

	"evprop"
)

// Typed access to evserve's observability surface: the per-model flight
// recorder (GET /v1/debug/flightrecorder) and the durable audit pipeline's
// status (GET /v1/audit). What the server encodes straight from the engine's
// own types is aliased to them, so a record field is declared once.

// FlightRecord is one propagation's summary from the server's flight
// recorder.
type FlightRecord = evprop.FlightRecord

// FlightRecorderStats summarizes the recorder itself.
type FlightRecorderStats = evprop.FlightRecorderStats

// CacheCounters is one model's result-cache block in its stats row.
type CacheCounters = evprop.CacheStats

// FlightRecorderQuery selects and pages one model's flight recorder.
type FlightRecorderQuery struct {
	// Model selects the recorder; evserve refuses a query without one.
	Model string
	// ID filters records to one query ID.
	ID string
	// Since, when non-nil, returns only records with Seq strictly greater
	// — pass the previous page's NextSince to tail the ring. nil returns
	// from the oldest retained record (including Seq 0).
	Since *uint64
	// Limit caps the page, oldest first (0 = no cap).
	Limit int
}

// FlightRecorderPage is one page of the recorder: records oldest to
// newest and the cursor for the next page.
type FlightRecorderPage struct {
	Model     string              `json:"model"`
	Recorder  FlightRecorderStats `json:"recorder"`
	Records   []FlightRecord      `json:"records"`
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
