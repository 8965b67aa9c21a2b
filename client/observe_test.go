package evclient

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestFlightRecorderQueryEncoding(t *testing.T) {
	var gotPath string
	var gotQuery map[string][]string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotPath = r.URL.Path
		gotQuery = r.URL.Query()
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{
			"model": "alarm",
			"recorder": {"enabled": true, "size": 256, "recorded": 7},
			"records": [
				{"seq": 5, "id": "q-1", "mode": "sum-product", "cached": true, "slow": true,
				 "evidence_sig": "0a0b"},
				{"seq": 6, "id": "q-2", "mode": "sum-product"}
			],
			"next_since": 6
		}`))
	}))
	defer ts.Close()

	since := uint64(4)
	page, err := New(ts.URL).FlightRecorder(context.Background(), FlightRecorderQuery{
		Model: "alarm", ID: "q-1", Since: &since, Limit: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotPath != "/v1/debug/flightrecorder" {
		t.Errorf("path %q", gotPath)
	}
	for param, want := range map[string]string{
		"model": "alarm", "id": "q-1", "since": "4", "limit": "2",
	} {
		if len(gotQuery[param]) != 1 || gotQuery[param][0] != want {
			t.Errorf("param %s = %v, want %q", param, gotQuery[param], want)
		}
	}
	if page.Model != "alarm" || !page.Recorder.Enabled || page.NextSince != 6 {
		t.Errorf("page header: %+v", page)
	}
	if len(page.Records) != 2 || page.Records[0].Seq != 5 || !page.Records[0].Cached {
		t.Fatalf("records: %+v", page.Records)
	}
	if page.Records[0].EvidenceSig != "0a0b" || !page.Records[0].Slow {
		t.Errorf("record 0: %+v", page.Records[0])
	}
}

func TestFlightRecorderOmitsAbsentParams(t *testing.T) {
	var gotRaw string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotRaw = r.URL.RawQuery
		w.Write([]byte(`{"model": "default", "next_since": 0}`))
	}))
	defer ts.Close()
	if _, err := New(ts.URL).FlightRecorder(context.Background(), FlightRecorderQuery{}); err != nil {
		t.Fatal(err)
	}
	// A nil Since must not become since=0: the server treats an absent
	// parameter as "from the beginning" and 0 as "strictly after seq 0".
	if gotRaw != "" {
		t.Errorf("query string %q, want empty", gotRaw)
	}
}

func TestAuditStatus(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/audit" {
			t.Errorf("path %q", r.URL.Path)
		}
		w.Write([]byte(`{"enabled": true, "dir": "/var/audit", "enqueued": 10,
			"spilled": 9, "dropped": 1, "batches": 3, "last_root": "ff00",
			"segments": 2, "bytes": 4096}`))
	}))
	defer ts.Close()
	st, err := New(ts.URL).AuditStatus(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Enabled || st.Dir != "/var/audit" || st.Enqueued != 10 || st.Dropped != 1 {
		t.Errorf("status: %+v", st)
	}
	if st.Batches != 3 || st.LastRoot != "ff00" || st.Segments != 2 || st.Bytes != 4096 {
		t.Errorf("store fields: %+v", st)
	}
}

func TestObserveEnvelopeErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error": {"code": "bad_request", "message": "since must be a non-negative integer", "query_id": "q-9"}}`))
	}))
	defer ts.Close()
	c := New(ts.URL)
	zero := uint64(0)
	_, err := c.FlightRecorder(context.Background(), FlightRecorderQuery{Since: &zero})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v, want ErrBadRequest", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.QueryID != "q-9" {
		t.Errorf("envelope: %+v", apiErr)
	}
	if _, err := c.AuditStatus(context.Background()); !errors.Is(err, ErrBadRequest) {
		t.Errorf("audit err = %v, want ErrBadRequest", err)
	}
}
