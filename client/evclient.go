// Package evclient is the Go client for evserve's model-scoped /v1 API.
//
// A Client wraps one evserve base URL. Every model-scoped call takes the
// model's name: the server answers only /v1/models/{name}/….
//
//	c := evclient.New("http://localhost:8080")
//	resp, err := c.Query(ctx, "alarm", evclient.Evidence{"Burglary": 1}, "Alarm")
//
// Failures decode the server's uniform error envelope into *APIError, and
// the exported sentinel values match by envelope code, so callers branch
// with errors.Is rather than string or status comparisons:
//
//	if errors.Is(err, evclient.ErrModelNotFound) { … }
package evclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"evprop"
)

// Client talks to one evserve instance. The zero value is not usable; use
// New. Clients are safe for concurrent use.
type Client struct {
	base string
	http *http.Client
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// New builds a client for the evserve at baseURL (scheme://host[:port],
// with or without a trailing slash).
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), http: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Evidence maps variable names to observed state indices.
type Evidence map[string]int

// APIError is a decoded error envelope plus its HTTP status. Match on the
// stable Code via the sentinel values and errors.Is; Message and QueryID
// are diagnostics.
type APIError struct {
	// Status is the HTTP status code of the response.
	Status int
	// Code is the stable machine-readable identifier from the server's
	// error table ("model_not_found", "unknown_variable", …).
	Code string
	// Message is the human-readable error text.
	Message string
	// QueryID correlates the failure with the server's access log and
	// flight recorder.
	QueryID string
	// TraceID is the failed request's distributed-trace ID (32 hex chars),
	// fetchable via Client.Trace while tail sampling retains it. Empty when
	// the server runs with tracing off.
	TraceID string
}

func (e *APIError) Error() string {
	if e.QueryID != "" {
		return fmt.Sprintf("evserve: %s: %s (HTTP %d, query %s)", e.Code, e.Message, e.Status, e.QueryID)
	}
	return fmt.Sprintf("evserve: %s: %s (HTTP %d)", e.Code, e.Message, e.Status)
}

// Is matches an APIError against the code sentinels, so
// errors.Is(err, ErrModelNotFound) works on wrapped errors too.
func (e *APIError) Is(target error) bool {
	c, ok := target.(errCode)
	return ok && e.Code == string(c)
}

// errCode is the sentinel type behind the Err… values: an envelope code
// that APIError.Is matches against.
type errCode string

func (c errCode) Error() string { return "evserve: " + string(c) }

// Sentinels for the server's error table, one per envelope code that
// callers plausibly branch on.
var (
	ErrModelNotFound           error = errCode("model_not_found")
	ErrModelNotReady           error = errCode("model_not_ready")
	ErrBadModelName            error = errCode("bad_model_name")
	ErrUnknownVariable         error = errCode("unknown_variable")
	ErrZeroProbabilityEvidence error = errCode("zero_probability_evidence")
	ErrOverloaded              error = errCode("overloaded")
	ErrDeadlineExceeded        error = errCode("deadline_exceeded")
	ErrBadRequest              error = errCode("bad_request")
	ErrTraceNotFound           error = errCode("trace_not_found")
	ErrTracingDisabled         error = errCode("tracing_disabled")
)

// envelope mirrors the server's uniform error body.
type envelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
		QueryID string `json:"query_id"`
		TraceID string `json:"trace_id"`
	} `json:"error"`
}

// decodeError turns a non-2xx response into an *APIError. Bodies that are
// not envelopes (proxies, panics) degrade to code "http_<status>".
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var env envelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		return &APIError{
			Status:  resp.StatusCode,
			Code:    env.Error.Code,
			Message: env.Error.Message,
			QueryID: env.Error.QueryID,
			TraceID: env.Error.TraceID,
		}
	}
	return &APIError{
		Status:  resp.StatusCode,
		Code:    fmt.Sprintf("http_%d", resp.StatusCode),
		Message: strings.TrimSpace(string(body)),
	}
}

// do runs one request and decodes a 2xx JSON body into out (skipped when
// out is nil); non-2xx responses return *APIError.
func (c *Client) do(req *http.Request, out any) error {
	injectTraceparent(req.Context(), req)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

// modelPath builds /v1/models/{name}{suffix} with the name escaped.
func modelPath(name, suffix string) string {
	return "/v1/models/" + url.PathEscape(name) + suffix
}

// ModelInfo is one model's lifecycle row, as listed by GET /v1/models.
type ModelInfo struct {
	Name          string  `json:"name"`
	State         string  `json:"state"` // "compiling", "ready", "failed"
	Source        string  `json:"source"`
	Version       int64   `json:"version"`
	Variables     int     `json:"variables"`
	CompileUsec   float64 `json:"compile_usec"`
	PublishedUnix int64   `json:"published_unix"`
	Reloading     bool    `json:"reloading"`
	Error         string  `json:"error,omitempty"`
}

// ModelSchema is GET /v1/models/{name}: the info row plus the variable
// schema of the current version.
type ModelSchema struct {
	ModelInfo
	VariableList []Variable `json:"variables_detail"`
}

// Variable is one network variable: name and state count.
type Variable struct {
	Name   string `json:"name"`
	States int    `json:"states"`
}

// modelSchemaWire matches the server's response, whose "variables" field
// is the schema list (the info row's count is not repeated).
type modelSchemaWire struct {
	ModelInfo
	Variables []Variable `json:"variables"`
}

// Models lists every registered model.
func (c *Client) Models(ctx context.Context) ([]ModelInfo, error) {
	var out struct {
		Models []ModelInfo `json:"models"`
	}
	if err := c.get(ctx, "/v1/models", &out); err != nil {
		return nil, err
	}
	return out.Models, nil
}

// Model fetches one model's info and variable schema.
func (c *Client) Model(ctx context.Context, name string) (*ModelSchema, error) {
	var wire modelSchemaWire
	if err := c.get(ctx, modelPath(name, ""), &wire); err != nil {
		return nil, err
	}
	s := &ModelSchema{ModelInfo: wire.ModelInfo, VariableList: wire.Variables}
	s.Variables = len(wire.Variables)
	return s, nil
}

// Upload creates or replaces a model from a BIF or XMLBIF document (the
// server sniffs the format). wait blocks until the compile publishes; the
// returned info is the model's state at response time.
func (c *Client) Upload(ctx context.Context, name string, doc []byte, wait bool) (*ModelInfo, error) {
	path := modelPath(name, "")
	if wait {
		path += "?wait=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.base+path, bytes.NewReader(doc))
	if err != nil {
		return nil, err
	}
	var info ModelInfo
	if err := c.do(req, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Delete removes a model; its in-flight queries drain before the engine
// is released.
func (c *Client) Delete(ctx context.Context, name string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+modelPath(name, ""), nil)
	if err != nil {
		return err
	}
	return c.do(req, nil)
}

// Reload recompiles a model from its retained source (re-reading file
// sources). wait blocks until the new version publishes.
func (c *Client) Reload(ctx context.Context, name string, wait bool) (*ModelInfo, error) {
	path := modelPath(name, "/reload")
	if wait {
		path += "?wait=1"
	}
	var info ModelInfo
	if err := c.post(ctx, path, struct{}{}, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// QueryResponse is one query's answer. Model and Version identify the
// engine build that answered (versions increment on hot reload).
type QueryResponse struct {
	PEvidence  float64              `json:"p_evidence"`
	Posteriors map[string][]float64 `json:"posteriors"`
	Model      string               `json:"model"`
	Version    int64                `json:"version"`
}

// Query computes P(evidence) and the posteriors of the named variables
// (all non-evidence variables when none are named) on one model.
func (c *Client) Query(ctx context.Context, model string, ev Evidence, variables ...string) (*QueryResponse, error) {
	var out QueryResponse
	in := struct {
		Evidence Evidence `json:"evidence"`
		Query    []string `json:"query,omitempty"`
	}{ev, variables}
	if err := c.post(ctx, modelPath(model, "/query"), in, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// BatchQuery is one sub-query of a Batch call.
type BatchQuery struct {
	Evidence Evidence `json:"evidence"`
	Query    []string `json:"query,omitempty"`
}

// BatchResult is one sub-query's outcome; Error is set when that
// sub-query failed (its siblings still answer).
type BatchResult struct {
	PEvidence  float64              `json:"p_evidence"`
	Posteriors map[string][]float64 `json:"posteriors"`
	Error      string               `json:"error,omitempty"`
}

// BatchResponse carries every sub-query's result in request order, all
// answered by one engine build.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
	Model   string        `json:"model"`
	Version int64         `json:"version"`
}

// Batch answers many queries in one round trip on one model.
func (c *Client) Batch(ctx context.Context, model string, queries []BatchQuery) (*BatchResponse, error) {
	var out BatchResponse
	in := struct {
		Queries []BatchQuery `json:"queries"`
	}{queries}
	if err := c.post(ctx, modelPath(model, "/batch"), in, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// MPEResponse is the most probable explanation under the evidence.
type MPEResponse struct {
	Assignment  map[string]int `json:"assignment"`
	Probability float64        `json:"probability"`
	Model       string         `json:"model"`
	Version     int64          `json:"version"`
}

// MPE computes the most probable joint assignment consistent with the
// evidence on one model.
func (c *Client) MPE(ctx context.Context, model string, ev Evidence) (*MPEResponse, error) {
	var out MPEResponse
	in := struct {
		Evidence Evidence `json:"evidence"`
	}{ev}
	if err := c.post(ctx, modelPath(model, "/mpe"), in, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DSep reports whether X ⫫ Y | Z in one model's graph.
func (c *Client) DSep(ctx context.Context, model string, x, y, z []string) (bool, error) {
	var out struct {
		Separated bool `json:"separated"`
	}
	in := struct {
		X []string `json:"x"`
		Y []string `json:"y"`
		Z []string `json:"z"`
	}{x, y, z}
	if err := c.post(ctx, modelPath(model, "/dsep"), in, &out); err != nil {
		return false, err
	}
	return out.Separated, nil
}

// Stats is GET /v1/stats, and one /v1/stream event (see Snapshot): the
// server-wide totals, the process's scheduler, one row per model, the
// catch-all row, the audit pipeline. Everything is counted on a model; Totals
// is the sum over Models and Unresolved at the instant the rows were read.
type Stats struct {
	Time      time.Time `json:"time"`
	UptimeSec float64   `json:"uptime_sec"`
	Totals    Counters  `json:"totals"`
	// Scheduler is the server process's worker pool, shared by every model:
	// its size, the runs in flight over all models, the GL depth and one
	// entry per worker (none until a run has been dispatched).
	Scheduler evprop.SchedulerGauges `json:"scheduler"`
	// Models has one row per registered model, sorted by name.
	Models []ModelStats `json:"models"`
	// Unresolved counts what was asked of no model — an unknown name, a wrong
	// method on a route that names none; only its Errors move.
	Unresolved ModelStats  `json:"unresolved"`
	Audit      AuditStatus `json:"audit"`
}

// Counters are what a stats row counts — requests by kind, HTTP error
// responses, the current engine's propagations — and, summed over the rows,
// the server-wide totals.
type Counters struct {
	Queries      int64 `json:"queries"`
	Batches      int64 `json:"batches"`
	MPEs         int64 `json:"mpes"`
	Errors       int64 `json:"errors"`
	Propagations int64 `json:"propagations"`
}

// ModelStats is one model's stats row: a row of Stats.Models and the body of
// GET /v1/models/{name}/stats. Counters and latencies cover the process
// lifetime, Window the last 60 seconds; Cache and the run counters are the
// model's current engine's.
type ModelStats struct {
	ModelInfo
	Counters
	Workers    int    `json:"workers"`
	Scheduler  string `json:"scheduler"`
	InlineRuns int64  `json:"inline_runs"`
	PoolRuns   int64  `json:"pool_runs"`
	// SlicedShare is the share of the model's task-graph table entries its
	// runs had to range over once the tables were sliced on each query's hard
	// evidence; 1 before anything has run.
	SlicedShare float64 `json:"sliced_share"`
	// LoadBalance and SchedOverheadFrac are the most recent run's Fig. 8
	// gauges.
	LoadBalance       float64       `json:"load_balance"`
	SchedOverheadFrac float64       `json:"sched_overhead_fraction"`
	Observed          int64         `json:"observed"`
	AvgLatencyUsec    float64       `json:"avg_latency_usec"`
	P50LatencyUsec    float64       `json:"p50_latency_usec"`
	P99LatencyUsec    float64       `json:"p99_latency_usec"`
	Window            WindowStats   `json:"window"`
	Cache             CacheCounters `json:"cache"`
}

// WindowStats summarizes the last 60 seconds of one model's traffic.
type WindowStats struct {
	Requests     int64   `json:"requests"`
	QPS          float64 `json:"qps"`
	ErrorRate    float64 `json:"error_rate"`
	P50Usec      float64 `json:"p50_latency_usec"`
	P99Usec      float64 `json:"p99_latency_usec"`
	LoadBalance  float64 `json:"load_balance"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// QPSSeries is per-second request counts, oldest first.
	QPSSeries []int64 `json:"qps_series"`
}

// Stats fetches the server-wide totals and per-model rows.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var out Stats
	if err := c.get(ctx, "/v1/stats", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Raw performs a GET against an arbitrary server path ("/v1/stats",
// "/v1/models/alarm/stats", …) and returns the undecoded JSON body — the
// escape hatch for fields the typed structs do not carry.
func (c *Client) Raw(ctx context.Context, path string) (json.RawMessage, error) {
	var out json.RawMessage
	if err := c.get(ctx, path, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Ready reports the server's /v1/readyz verdict: true once serving, false
// while booting or draining. Transport errors return err.
func (c *Client) Ready(ctx context.Context) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/readyz", nil)
	if err != nil {
		return false, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
	return resp.StatusCode == http.StatusOK, nil
}

// WaitReady polls /v1/readyz until the server answers ready, ctx expires,
// or the deadline elapses.
func (c *Client) WaitReady(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if ok, err := c.Ready(ctx); err == nil && ok {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("evclient: %s not ready after %s", c.base, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
