package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The reference server is a fixed program of the same kind as evserve — a Go
// net/http server in a process of its own, answering a JSON request with a
// JSON response after streaming over a table on two goroutines — that shares
// no code with this repository. The end-to-end run times it in the slices
// between evserve's, and reports every evserve timing relative to it: a
// host that runs a third slower for a few minutes slows both by about the
// same share, a change to the repository slows only evserve.

// refTableEntries is the reference server's table: 1 MiB of float64, the
// size of the largest wide60 clique table.
const refTableEntries = 1 << 17

// refRequest and refAnswer are the reference exchange: the evidence map and
// target list of a query, and `values` numbers back.
type refRequest struct {
	Evidence map[string]int `json:"evidence"`
	Query    []string       `json:"query"`
	// Work is the number of table entries to stream over, Values the number
	// of results to return.
	Work   int `json:"work"`
	Values int `json:"values"`
}

type refAnswer struct {
	Values []float64 `json:"values"`
}

// refServe is the benchmark binary's --refserver mode: listen on an
// ephemeral loopback port, announce it on stderr the way evserve does, serve
// until told to stop.
func refServe(stderr io.Writer) int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(stderr, "refserver:", err)
		return 1
	}
	table := make([]float64, refTableEntries)
	for i := range table {
		table[i] = 1 + float64(i%97)/1024
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/readyz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "{\"status\":\"ready\"}\n") //nolint:errcheck // the poller retries
	})
	mux.HandleFunc("/work", func(w http.ResponseWriter, r *http.Request) {
		var req refRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(refAnswer{Values: refWork(table, req.Work, req.Values)}) //nolint:errcheck // the client sees a short body
	})
	srv := &http.Server{Handler: mux}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		srv.Close()
	}()
	fmt.Fprintf(stderr, "msg=\"refserver: listening\" addr=%s\n", ln.Addr())
	if err := srv.Serve(ln); err != http.ErrServerClosed {
		fmt.Fprintln(stderr, "refserver:", err)
		return 1
	}
	return 0
}

// refChunk is the piece of table two goroutines take at a time.
const refChunk = 1 << 13

// refWork streams over `work` table entries and returns n numbers that
// depend on every entry read. Two goroutines take the entries a chunk at a
// time, so the faster core does more of them, as evserve's workers share a
// propagation's table pieces.
func refWork(table []float64, work, n int) []float64 {
	var acc [2]float64
	var next atomic.Int64
	var wg sync.WaitGroup
	for h := range acc {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				at := int(next.Add(refChunk)) - refChunk
				if at >= work {
					return
				}
				part := table[at%len(table):][:min(refChunk, work-at)]
				sum := 0.0 // a local: acc's two elements share a cache line
				for i, v := range part {
					sum += v * float64(i&7)
				}
				acc[h] += sum
			}
		}()
	}
	wg.Wait()
	out := make([]float64, n)
	for i := range out {
		out[i] = (acc[0] + acc[1] + float64(i)) / float64(work+n)
	}
	return out
}

// refLoad is one workload's reference traffic: a fixed request.
type refLoad struct {
	srv    *server
	clk    clock
	body   []byte
	values int
}

func newRefLoad(srv *server, clk clock, w workload) (*refLoad, error) {
	req := refRequest{Evidence: map[string]int{}, Work: w.refWork, Values: w.refValues}
	for i := 0; i < w.evidenceVars; i++ {
		req.Evidence[fmt.Sprintf("v%02d", i)] = i % 2
	}
	for i := 0; i < w.targets; i++ {
		req.Query = append(req.Query, fmt.Sprintf("v%02d", w.evidenceVars+i))
	}
	body, err := json.Marshal(req)
	return &refLoad{srv: srv, clk: clk, body: body, values: w.refValues}, err
}

// do is the reference's doFunc: one exchange, timed to the decoded response.
func (l *refLoad) do() (time.Time, bool) {
	resp, err := l.srv.httpc.Post(l.srv.base+"/work", "application/json", bytes.NewReader(l.body))
	if err != nil {
		return l.clk.Now(), false
	}
	var a refAnswer
	err = json.NewDecoder(resp.Body).Decode(&a)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
	resp.Body.Close()
	return l.clk.Now(), err == nil && resp.StatusCode == http.StatusOK && len(a.Values) == l.values
}
