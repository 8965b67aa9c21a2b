package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	evclient "evprop/client"
	"evprop/internal/registry"
)

// Model management: the /v1/models resource tree.
//
//	GET    /v1/models               list models and their lifecycle state
//	GET    /v1/models/{name}        one model: info + variable schema
//	PUT    /v1/models/{name}        upload (create or replace) from a BIF
//	                                or XMLBIF document; ?wait=1 blocks for
//	                                the compile
//	DELETE /v1/models/{name}        remove; drains in-flight queries
//	POST   /v1/models/{name}/reload recompile from the retained source
//
// Uploads and reloads compile in the background and publish by atomic
// swap, so serving never pauses: queries keep answering on the old
// version until the new one is ready.

// maxUploadBytes bounds a PUT /v1/models/{name} document.
const maxUploadBytes = 32 << 20

func (s *server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErrorCode(w, r, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	s.writeJSON(w, evclient.ModelList{Models: s.reg.List()})
}

// handleModelByName dispatches the /v1/models/{name} resource.
func (s *server) handleModelByName(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.handleModelGet(w, r)
	case http.MethodPut:
		s.handleModelPut(w, r)
	case http.MethodDelete:
		s.handleModelDelete(w, r)
	default:
		s.writeErrorCode(w, r, http.StatusMethodNotAllowed, "method_not_allowed", "GET, PUT or DELETE")
	}
}

// handleModelGet answers GET /v1/models/{name}: registry info plus the
// variable schema of the current version.
func (s *server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	v, release, _, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	info, _ := s.modelInfo(r.PathValue("name"))
	s.writeJSON(w, modelSchema(info, v.Net))
}

// handleModelPut uploads a model document. The format is sniffed from the
// payload (leading '<' → XMLBIF, otherwise textual BIF). The compile runs
// in the background; `?wait=1` blocks until it publishes (or fails), which
// is what the smoke test and synchronous clients use.
func (s *server) handleModelPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	if err != nil {
		s.writeErrorCode(w, r, http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("model document exceeds %d bytes", maxUploadBytes))
		return
	}
	if len(bytes.TrimSpace(body)) == 0 {
		s.writeErrorCode(w, r, http.StatusBadRequest, "bad_request", "empty model document")
		return
	}
	isXML := bytes.TrimSpace(body)[0] == '<'
	src := registry.InlineSource(body, isXML)
	done, err := s.reg.Load(name, src)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.answerCompile(w, r, name, done)
}

// handleModelDelete removes a model. In-flight queries drain on the
// version they pinned; the engine is released after the last one.
func (s *server) handleModelDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.reg.Delete(name); err != nil {
		s.writeError(w, r, err)
		return
	}
	s.perModel.Delete(name)
	s.writeJSON(w, map[string]string{"deleted": name})
}

// handleModelReload recompiles a model from its retained source — for
// file-backed models this re-reads the file, so an edited BIF goes live
// without restarting the server. `?wait=1` blocks for the publish.
func (s *server) handleModelReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErrorCode(w, r, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return
	}
	name := r.PathValue("name")
	done, err := s.reg.Reload(name)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.answerCompile(w, r, name, done)
}

// answerCompile answers an accepted upload or reload, which from here on is
// the model's own request: 202 with the model's info while the compile runs in
// the background, or — with ?wait=1 — 200 once it has published, the compile
// error if it failed.
func (s *server) answerCompile(w http.ResponseWriter, r *http.Request, name string, done <-chan error) {
	reqInfoFrom(r.Context()).ms = s.modelStatsFor(name)
	if r.URL.Query().Get("wait") != "" {
		if err := <-done; err != nil {
			s.writeError(w, r, err)
			return
		}
		info, _ := s.modelInfo(name)
		s.writeJSON(w, info)
		return
	}
	info, _ := s.modelInfo(name)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(info)
}
