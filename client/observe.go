package evclient

import (
	"context"
	"fmt"
	"net/url"
)

// Typed access to evserve's observability surface: the per-model flight
// recorder (GET /v1/debug/flightrecorder) and the durable audit pipeline's
// status (GET /v1/audit).

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

// AuditStatus fetches the audit pipeline's status.
func (c *Client) AuditStatus(ctx context.Context) (*AuditStatus, error) {
	var out AuditStatus
	if err := c.get(ctx, "/v1/audit", &out); err != nil {
		return nil, err
	}
	return &out, nil
}
