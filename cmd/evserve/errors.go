package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"evprop"
	"evprop/internal/registry"
)

// Uniform error surface: every /v1 handler answers failures with the same
// JSON envelope,
//
//	{"error": {"code": "unknown_variable", "message": "…", "query_id": "q-…"}}
//
// and the typed-error → (HTTP status, code) mapping lives in exactly one
// table below. Handlers never call http.Error and never invent status
// codes; they pass the typed error to writeError (or, for protocol-level
// rejections with no underlying error, writeErrorCode).

// errOverloaded is returned when -max-inflight admission control rejects
// a request; mapped to 429.
var errOverloaded = errors.New("evserve: too many in-flight requests")

// statusClientClosedRequest is nginx's non-standard 499: the client went
// away before the answer was ready.
const statusClientClosedRequest = 499

// errorMapping is one row of the typed-error → HTTP mapping table.
type errorMapping struct {
	is     error
	status int
	code   string
}

// errorTable is THE mapping. Order matters only where errors could wrap
// each other (they do not today); the first errors.Is match wins.
var errorTable = []errorMapping{
	{context.Canceled, statusClientClosedRequest, "canceled"},
	{context.DeadlineExceeded, http.StatusGatewayTimeout, "deadline_exceeded"},
	{errOverloaded, http.StatusTooManyRequests, "overloaded"},
	{registry.ErrNotFound, http.StatusNotFound, "model_not_found"},
	{registry.ErrNotReady, http.StatusServiceUnavailable, "model_not_ready"},
	{registry.ErrBadName, http.StatusUnprocessableEntity, "bad_model_name"},
	{evprop.ErrUncompiled, http.StatusNotFound, "model_not_found"},
	{evprop.ErrUnknownVariable, http.StatusUnprocessableEntity, "unknown_variable"},
	{evprop.ErrZeroProbabilityEvidence, http.StatusUnprocessableEntity, "zero_probability_evidence"},
	{evprop.ErrBadState, http.StatusBadRequest, "bad_state"},
	{evprop.ErrResultClosed, http.StatusInternalServerError, "internal"},
}

// classify maps a typed error onto its HTTP status and machine-readable
// code. Unmatched errors are client-input problems (JSON decoding, BIF
// parse failures) and map to 400 bad_request.
func classify(err error) (int, string) {
	for _, m := range errorTable {
		if errors.Is(err, m.is) {
			return m.status, m.code
		}
	}
	return http.StatusBadRequest, "bad_request"
}

// errorEnvelope is the uniform error body.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	// Code is a stable machine-readable identifier from the mapping table.
	Code string `json:"code"`
	// Message is the human-readable error text.
	Message string `json:"message"`
	// QueryID correlates the failure with the access log and the flight
	// recorder; empty on routes outside the instrumented set.
	QueryID string `json:"query_id,omitempty"`
	// TraceID correlates the failure with its distributed trace
	// (GET /v1/debug/trace?id=); empty when tracing is off.
	TraceID string `json:"trace_id,omitempty"`
}

// writeError answers a failed request from the typed error via the
// mapping table. It is the single choke point that counts HTTP errors, so
// each failed request counts exactly once: against its model, or against
// noModel when it resolved none.
func (s *server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	status, code := classify(err)
	s.writeErrorCode(w, r, status, code, err.Error())
}

// writeErrorCode is writeError for protocol-level rejections that carry
// no typed error (wrong method, missing route).
func (s *server) writeErrorCode(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	// The stream and the health probes bypass instrument and carry no
	// reqInfo; they name no model either.
	ms := s.noModel
	var id, traceID string
	if ri := reqInfoFrom(r.Context()); ri != nil {
		id, traceID, ms = ri.queryID, ri.traceID, ri.ms
	}
	ms.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorEnvelope{Error: errorBody{Code: code, Message: msg, QueryID: id, TraceID: traceID}})
}
