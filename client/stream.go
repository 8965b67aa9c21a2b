package evclient

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
)

// Snapshot is one /v1/stream event: what GET /v1/stats answered at that
// instant.
type Snapshot = Stats

// Stream subscribes to GET /v1/stream and feeds each decoded snapshot to
// fn until the stream ends, fn returns false (clean stop, nil error), or
// ctx is canceled. The connection uses the client's underlying transport;
// callers wanting reconnect-forever semantics loop around it.
func (c *Client) Stream(ctx context.Context, fn func(Snapshot) bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/stream", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return scanEvents(resp.Body, func(ev sseEvent) bool {
		var s Snapshot
		if json.Unmarshal([]byte(ev.data), &s) != nil {
			return true // tolerate malformed events; the next one will do
		}
		return fn(s)
	})
}

// sseEvent is one Server-Sent-Events frame: the last id: field and the
// data: payload (multiple data lines joined with newlines, per the spec).
type sseEvent struct {
	id   string
	data string
}

// scanEvents parses an SSE byte stream, calling fn once per complete event.
// fn returning false stops the scan early (clean stop, nil error); otherwise
// scanning continues until the stream ends. A trailing event without a
// terminating blank line is discarded, mirroring browser EventSource.
func scanEvents(r io.Reader, fn func(sseEvent) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var ev sseEvent
	dispatch := false
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			if dispatch {
				if !fn(ev) {
					return nil
				}
			}
			ev = sseEvent{}
			dispatch = false
			continue
		}
		if strings.HasPrefix(line, ":") {
			continue // comment / keep-alive
		}
		field, value, _ := strings.Cut(line, ":")
		value = strings.TrimPrefix(value, " ")
		switch field {
		case "id":
			ev.id = value
		case "data":
			if ev.data != "" {
				ev.data += "\n"
			}
			ev.data += value
			dispatch = true
		}
	}
	return sc.Err()
}
