// Package evclient is the Go client for evserve's model-scoped /v1 API.
//
// A Client wraps one evserve base URL. Every model-scoped call takes the
// model's name: the server answers only /v1/models/{name}/….
//
//	c := evclient.New("http://localhost:8080")
//	resp, err := c.Query(ctx, "alarm", evclient.Evidence{"Burglary": 1}, "Alarm")
//
// Every request and response body is a type of this package (wire.go), and
// evserve answers with the same types, so each body is declared once.
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

// APIError is a decoded error envelope plus its HTTP status; less the status,
// it is the envelope's body on the wire (ErrorEnvelope). Match on the stable
// Code via the sentinel values and errors.Is; Message and QueryID are
// diagnostics.
type APIError struct {
	// Status is the HTTP status code of the response.
	Status int `json:"-"`
	// Code is the stable machine-readable identifier from the server's
	// error table ("model_not_found", "unknown_variable", …).
	Code string `json:"code"`
	// Message is the human-readable error text.
	Message string `json:"message"`
	// QueryID correlates the failure with the server's access log and
	// flight recorder.
	QueryID string `json:"query_id,omitempty"`
	// TraceID is the failed request's distributed-trace ID (32 hex chars),
	// fetchable via Client.Trace while tail sampling retains it. Empty when
	// the server runs with tracing off.
	TraceID string `json:"trace_id,omitempty"`
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

// decodeError turns a non-2xx response into an *APIError. Bodies that are
// not envelopes (proxies, panics) degrade to code "http_<status>".
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		env.Error.Status = resp.StatusCode
		return &env.Error
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

// Models lists every registered model.
func (c *Client) Models(ctx context.Context) ([]ModelInfo, error) {
	var out ModelList
	if err := c.get(ctx, "/v1/models", &out); err != nil {
		return nil, err
	}
	return out.Models, nil
}

// Model fetches one model's info and variable schema.
func (c *Client) Model(ctx context.Context, name string) (*ModelSchema, error) {
	var s ModelSchema
	if err := c.get(ctx, modelPath(name, ""), &s); err != nil {
		return nil, err
	}
	s.ModelInfo.Variables = len(s.Variables)
	return &s, nil
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

// Query computes P(evidence) and the posteriors of the named variables
// (all non-evidence variables when none are named) on one model.
func (c *Client) Query(ctx context.Context, model string, ev Evidence, variables ...string) (*QueryResponse, error) {
	var out QueryResponse
	in := QueryRequest{Evidence: ev, Query: variables}
	if err := c.post(ctx, modelPath(model, "/query"), in, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Batch answers many queries in one round trip on one model.
func (c *Client) Batch(ctx context.Context, model string, queries []QueryRequest) (*BatchResponse, error) {
	var out BatchResponse
	in := BatchRequest{Queries: queries}
	if err := c.post(ctx, modelPath(model, "/batch"), in, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// MPE computes the most probable joint assignment consistent with the
// evidence on one model.
func (c *Client) MPE(ctx context.Context, model string, ev Evidence) (*MPEResponse, error) {
	var out MPEResponse
	in := MPERequest{Evidence: ev}
	if err := c.post(ctx, modelPath(model, "/mpe"), in, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DSep reports whether X ⫫ Y | Z in one model's graph.
func (c *Client) DSep(ctx context.Context, model string, x, y, z []string) (bool, error) {
	var out DSepResponse
	in := DSepRequest{X: x, Y: y, Z: z}
	if err := c.post(ctx, modelPath(model, "/dsep"), in, &out); err != nil {
		return false, err
	}
	return out.Separated, nil
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
