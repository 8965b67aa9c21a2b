package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	evclient "evprop/client"
)

// plan is how long and how often a run measures.
type plan struct {
	warm, slice time.Duration
	// cycles is the number of reference/solo/reference/duo/paced slice runs.
	cycles int
	// boots is the number of server starts whose median is setup_s.
	boots int
	// traceQueries overrides the workload's traced query count when > 0.
	traceQueries int
}

// planFor splits --seconds into sixteen equal parts: a warm-up, then
// fifteen cycles of five slices each (reference, solo, reference, duo,
// paced; see runLoad). Interleaving the phases lets a slow spell of the host
// fall on a few slices of every phase, where the median over cycles drops
// it, not on one whole phase. quick is the smoke test's plan: one cycle of
// 0.3 s slices.
func planFor(seconds float64, quick bool) plan {
	if quick {
		return plan{warm: 250 * time.Millisecond, slice: 300 * time.Millisecond, cycles: 1, boots: 1, traceQueries: 20}
	}
	part := time.Duration(seconds / 16 * float64(time.Second))
	return plan{warm: part, slice: part / 5, cycles: 15, boots: 15}
}

// env is what one workload's runs share: the built server, the generated
// model on disk, and the reference engine.
type env struct {
	ctx       context.Context
	w         workload
	seed      int64
	plan      plan
	bin       string
	workDir   string
	modelsDir string
	bif       []byte
	oracle    *oracle
	clk       clock
	lanes     int
	// started is every server this env launched, for stopServers.
	started []*server
}

// start launches an evserve on the workload's model and remembers it.
func (e *env) start(extra ...string) (*server, error) {
	return e.launch("evserve", e.bin, evserveFlags(e.modelsDir, extra...))
}

// startRef launches this binary as the reference server.
func (e *env) startRef() (*server, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return e.launch("refserver", self, []string{"--refserver"})
}

func (e *env) launch(name, bin string, flags []string) (*server, error) {
	logPath := filepath.Join(e.workDir, fmt.Sprintf("%s-%d.log", name, len(e.started)))
	srv, err := startServer(e.ctx, bin, flags, logPath)
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	e.started = append(e.started, srv)
	return srv, nil
}

// stopServers stops whatever is still running; deferred by runWorkload, so it
// also runs on an error return or a panic.
func (e *env) stopServers() {
	for _, srv := range e.started {
		srv.stop()
	}
}

// sender is one load-generating goroutine's state: its own request stream
// and its own sample of answers kept for the reference comparison.
type sender struct {
	e      *env
	srv    *server
	stream *stream
	verifier
	sent, failed int
}

func (e *env) newSender(srv *server) *sender {
	e.lanes++
	s := &sender{e: e, srv: srv, stream: newStream(e.w, e.oracle.s, e.seed, e.lanes), verifier: verifier{o: e.oracle}}
	if e.lanes == 1 {
		s.first = checkFirst // the run's first sender checks its first answers too
	}
	return s
}

func issue(ctx context.Context, c *evclient.Client, model string, r request) (answer, error) {
	if r.mpe {
		m, err := c.MPE(ctx, model, r.evidence)
		return answer{mpe: m}, err
	}
	q, err := c.Query(ctx, model, r.evidence, r.targets...)
	return answer{query: q}, err
}

// do sends the stream's next request. The returned time is taken as soon as
// the response is decoded; the shape check and the sampling for the
// reference comparison run after it, off the clock.
func (s *sender) do() (time.Time, bool) {
	r := s.stream.next()
	a, err := issue(s.e.ctx, s.srv.client, s.e.w.model, r)
	done := s.e.clk.Now()
	ok := err == nil && s.e.oracle.shapeOK(r, a)
	if ok {
		s.keep(s.sent, r, a)
	} else {
		s.failed++
	}
	s.sent++
	return done, ok
}

// phaseCounts is the request accounting of one phase.
type phaseCounts struct {
	Sent      int `json:"sent"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// tally is a workload's request accounting: per-phase counts, and the
// outcome of comparing the kept answers with the reference.
type tally struct {
	Phases  map[string]*phaseCounts `json:"phases"`
	Checked int                     `json:"answers_checked"`
	Wrong   []wrongAnswer           `json:"wrong,omitempty"`

	unverified []bookedSender
}

type bookedSender struct {
	s  *sender
	pc *phaseCounts
}

// add books finished senders under a phase. Their kept answers wait for
// verify, so that slices follow each other without reference propagations
// in between.
func (t *tally) add(phase string, senders ...*sender) {
	pc := t.Phases[phase]
	if pc == nil {
		pc = &phaseCounts{}
		t.Phases[phase] = pc
	}
	for _, s := range senders {
		pc.Sent += s.sent
		pc.Failed += s.failed
		pc.Succeeded += s.sent - s.failed
		t.unverified = append(t.unverified, bookedSender{s, pc})
	}
}

// verify compares every booked sender's kept answers with the reference; a
// wrong answer becomes a failed request of its phase.
func (t *tally) verify() {
	for _, b := range t.unverified {
		checked, wrong := b.s.verify()
		t.Checked += checked
		t.Wrong = append(t.Wrong, wrong...)
		b.pc.Failed += len(wrong)
		b.pc.Succeeded -= len(wrong)
	}
	t.unverified = nil
}

// metricValue is one reported number. For an end-to-end timing, Rounds holds
// the per-cycle values the median was taken from, relative to the reference
// server and in the reference's nominal units, and Raw the same values as
// the clock gave them.
type metricValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds,omitempty"`
	Raw    []float64 `json:"raw,omitempty"`
}

// series collects one timing's per-cycle values, as timed and as scaled by
// the reference measured right before them.
type series struct{ raw, scaled []float64 }

func (s *series) add(v, factor float64) {
	s.raw = append(s.raw, v)
	s.scaled = append(s.scaled, v*factor)
}

func (s *series) metric(unit string) metricValue {
	return metricValue{Value: median(s.scaled), Unit: unit, Rounds: s.scaled, Raw: s.raw}
}

// closedSlice runs n clients in a closed loop for d.
func (e *env) closedSlice(srv *server, n int, d time.Duration) ([]sample, []*sender, time.Duration) {
	ss := make([]*sender, n)
	for i := range ss {
		ss[i] = e.newSender(srv)
	}
	start := e.clk.Now()
	samples := fanOut(n, func(i int) []sample { return closedLoop(e.clk, start.Add(d), ss[i].do) })
	return samples, ss, e.clk.Now().Sub(start)
}

// pacedSlice runs the open loop at the workload's rate from two senders for
// d's worth of requests.
func (e *env) pacedSlice(srv *server, d time.Duration) ([]sample, []*sender) {
	interval := time.Duration(float64(time.Second) / e.w.pacedRate)
	n := max(int(d.Seconds()*e.w.pacedRate), 2)
	ss := []*sender{e.newSender(srv), e.newSender(srv)}
	start := e.clk.Now().Add(time.Millisecond)
	samples := fanOut(2, func(i int) []sample { return pacedLoop(e.clk, start, interval, i, 2, n, ss[i].do) })
	return samples, ss
}

// lateUs is each open-loop sample's generator delay in microseconds.
func lateUs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.late) / 1e3
	}
	return out
}

// lateShare is the share of delays beyond lateLimit.
func lateShare(lateUs []float64) float64 {
	late := 0
	for _, us := range lateUs {
		if us > float64(lateLimit/time.Microsecond) {
			late++
		}
	}
	return float64(late) / float64(max(len(lateUs), 1))
}

// refSlice runs n clients in a closed loop against the reference server for
// d and returns the median round trip in milliseconds and the answers per
// second.
func (e *env) refSlice(l *refLoad, n int, d time.Duration) (p50Ms, qps float64) {
	start := e.clk.Now()
	samples := fanOut(n, func(int) []sample { return closedLoop(e.clk, start.Add(d), l.do) })
	return percentile(latenciesMs(samples), 50), float64(countOK(samples)) / e.clk.Now().Sub(start).Seconds()
}

// bootMedian starts the reference server and evserve plan.boots times in
// turn and keeps the last evserve. Set-up time is the median over the pairs
// of evserve's start relative to the reference server's start right before
// it, in the reference's nominal seconds.
func (e *env) bootMedian() (*server, metricValue, error) {
	var setup series
	for {
		ref, err := e.startRef()
		if err != nil {
			return nil, metricValue{}, err
		}
		ref.stop()
		srv, err := e.start()
		if err != nil {
			return nil, metricValue{}, err
		}
		setup.add(srv.setup.Seconds(), refBootS/ref.setup.Seconds())
		if len(setup.raw) >= e.plan.boots {
			return srv, setup.metric("s"), nil
		}
		srv.stop()
	}
}

// runLoad drives the warm-up and the cycles of slices against a running
// evserve and a running reference server, and returns the end-to-end
// metrics and the share of late open-loop sends. A cycle is the reference
// with one client, evserve with one client (solo), the reference with two,
// evserve with two (duo), and evserve's open loop (paced): every evserve
// slice is scaled by the reference slice of its own shape just before it
// (paced by the two-client one). Server counters and /proc are read only
// between slices.
func (e *env) runLoad(srv *server, t *tally) (map[string]metricValue, float64, error) {
	refSrv, err := e.startRef()
	if err != nil {
		return nil, 0, err
	}
	defer refSrv.stop()
	ref, err := newRefLoad(refSrv, e.clk, e.w)
	if err != nil {
		return nil, 0, err
	}
	e.refSlice(ref, 2, e.plan.warm/4)
	_, ss, _ := e.closedSlice(srv, 2, e.plan.warm*3/4)
	t.add("warmup", ss...)

	var p50, p95, qps, cpuMs, paced series
	var late []float64
	for c := 0; c < e.plan.cycles; c++ {
		if err := e.ctx.Err(); err != nil {
			return nil, 0, err
		}
		refMs, _ := e.refSlice(ref, 1, e.plan.slice)
		samples, ss, _ := e.closedSlice(srv, 1, e.plan.slice)
		t.add("solo", ss...)
		f := e.w.refSoloMs / refMs
		ms := latenciesMs(samples)
		p50.add(percentile(ms, 50), f)
		p95.add(percentile(ms, 95), f)

		_, refQps := e.refSlice(ref, 2, e.plan.slice)
		cpu0, err := srv.cpuSeconds()
		if err != nil {
			return nil, 0, err
		}
		samples, ss, elapsed := e.closedSlice(srv, 2, e.plan.slice)
		cpu1, err := srv.cpuSeconds()
		if err != nil {
			return nil, 0, err
		}
		t.add("duo", ss...)
		f = refQps / e.w.refDuoQps
		ok := countOK(samples)
		qps.add(float64(ok)/elapsed.Seconds(), 1/f)
		cpuMs.add((cpu1-cpu0)*1e3/float64(max(ok, 1)), f)

		samples, ss = e.pacedSlice(srv, e.plan.slice)
		t.add("paced", ss...)
		paced.add(percentile(latenciesMs(samples), 50), f)
		late = append(late, lateUs(samples)...)
	}
	rss, err := srv.memMB("VmHWM")
	if err != nil {
		return nil, 0, err
	}
	return map[string]metricValue{
		"latency_p50_ms":          p50.metric("ms"),
		"latency_p95_ms":          p95.metric("ms"),
		"throughput_qps":          qps.metric("1/s"),
		"server_cpu_ms_per_query": cpuMs.metric("ms"),
		"paced_p50_ms":            paced.metric("ms"),
		"server_peak_rss_mb":      {Value: rss, Unit: "MB"},
	}, lateShare(late), nil
}
