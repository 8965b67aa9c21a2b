package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func testTracer() *Tracer {
	return &Tracer{Store: NewStore(16)}
}

// keepAll returns a tracer that keeps every trace (rate 1 head sampling).
func keepAll() *Tracer {
	return &Tracer{SampleRate: 1, Store: NewStore(16)}
}

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{Flags: FlagSampled, State: "vendor=1"}
	copy(sc.TraceID[:], []byte("0123456789abcdef"))
	copy(sc.SpanID[:], []byte("ABCDEFGH"))
	tp := sc.Traceparent()
	if len(tp) != 55 || !strings.HasPrefix(tp, "00-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("bad traceparent %q", tp)
	}
	got, ok := ParseTraceparent(tp)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) failed", tp)
	}
	if got.TraceID != sc.TraceID || got.SpanID != sc.SpanID || got.Flags != sc.Flags {
		t.Errorf("round trip mismatch: %+v vs %+v", got, sc)
	}
	if !got.Sampled() {
		t.Error("sampled flag lost")
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-abc",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0x", // bad flags
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // version ff
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"0g-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted", s)
		}
	}
	// A future version with a longer tail parses (forward compatibility).
	future := "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-what-ever"
	if _, ok := ParseTraceparent(future); !ok {
		t.Errorf("ParseTraceparent(%q) rejected future version", future)
	}
}

func TestSpanTreeRecording(t *testing.T) {
	tr := keepAll()
	arena, root := tr.StartRequest("request", SpanContext{})
	child := root.StartChild("cache.lookup", Bool("cache.hit", false))
	grand := child.StartChild("propagate", String("scheduler", "collaborative"))
	grand.SetAttr(Int("tasks", 42))
	grand.End()
	child.End()
	root.ChildInterval("kind.marginalize", time.Now().Add(-time.Millisecond), time.Millisecond)
	root.End()
	id := root.TraceID()
	tr.Finish(arena, root)

	td := tr.Store.Get(id)
	if td == nil {
		t.Fatal("trace not kept")
	}
	if td.Reason != "head" {
		t.Errorf("reason = %q, want head", td.Reason)
	}
	if len(td.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(td.Spans))
	}
	byName := map[string]SpanData{}
	for _, s := range td.Spans {
		byName[s.Name] = s
	}
	if byName["cache.lookup"].Parent != byName["request"].SpanID {
		t.Error("cache.lookup not a child of request")
	}
	if byName["propagate"].Parent != byName["cache.lookup"].SpanID {
		t.Error("propagate not a child of cache.lookup")
	}
	if byName["kind.marginalize"].Parent != byName["request"].SpanID {
		t.Error("interval child mis-parented")
	}
	if byName["kind.marginalize"].Duration != time.Millisecond {
		t.Errorf("interval duration = %v", byName["kind.marginalize"].Duration)
	}
	attrs := byName["propagate"].Attrs
	if len(attrs) != 2 || attrs[0].Str != "collaborative" || attrs[1].Int != 42 {
		t.Errorf("propagate attrs = %+v", attrs)
	}
	// Span IDs must be unique and non-zero.
	seen := map[SpanID]bool{}
	for _, s := range td.Spans {
		if !s.SpanID.IsValid() || seen[s.SpanID] {
			t.Errorf("span id %v invalid or duplicated", s.SpanID)
		}
		seen[s.SpanID] = true
	}
}

func TestCallerParentPreserved(t *testing.T) {
	parent, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("parse")
	}
	parent.State = "congo=t61rcWkgMzE"
	tr := testTracer()
	arena, root := tr.StartRequest("request", parent)
	if root.TraceID() != parent.TraceID {
		t.Errorf("trace id not adopted: %v", root.TraceID())
	}
	root.End()
	tr.Finish(arena, root)
	td := tr.Store.Get(parent.TraceID)
	if td == nil {
		t.Fatal("flagged trace not kept")
	}
	if td.Reason != "flagged" {
		t.Errorf("reason = %q, want flagged", td.Reason)
	}
	if td.State != parent.State {
		t.Errorf("tracestate lost: %q", td.State)
	}
	if td.Spans[0].Parent != parent.SpanID {
		t.Errorf("root parent = %v, want caller's span id %v", td.Spans[0].Parent, parent.SpanID)
	}
}

func TestTailSamplingPolicy(t *testing.T) {
	t.Run("unsampled_dropped", func(t *testing.T) {
		tr := testTracer()
		arena, root := tr.StartRequest("request", SpanContext{})
		root.End()
		tr.Finish(arena, root)
		if n := tr.Store.Len(); n != 0 {
			t.Errorf("store has %d traces, want 0", n)
		}
	})
	t.Run("error_kept", func(t *testing.T) {
		tr := testTracer()
		arena, root := tr.StartRequest("request", SpanContext{})
		root.Fail("boom")
		root.End()
		id := arena.ID()
		tr.Finish(arena, root)
		td := tr.Store.Get(id)
		if td == nil || td.Reason != "error" {
			t.Fatalf("errored trace not kept as error: %+v", td)
		}
		if td.Spans[0].Status != "boom" {
			t.Errorf("status = %q", td.Spans[0].Status)
		}
	})
	t.Run("slow_kept", func(t *testing.T) {
		tr := testTracer()
		arena, root := tr.StartRequest("request", SpanContext{})
		arena.SetSlowThreshold(time.Nanosecond)
		time.Sleep(time.Millisecond)
		root.End()
		id := arena.ID()
		tr.Finish(arena, root)
		td := tr.Store.Get(id)
		if td == nil || td.Reason != "slow" {
			t.Fatalf("slow trace not kept as slow: %+v", td)
		}
	})
	t.Run("head_deterministic", func(t *testing.T) {
		tr := &Tracer{SampleRate: 0.5}
		id := NewTraceID()
		first := tr.headSampled(id)
		for i := 0; i < 10; i++ {
			if tr.headSampled(id) != first {
				t.Fatal("head sampling not deterministic per trace id")
			}
		}
	})
}

// TestArenaRecycledWhenQuiescent: a cleanly finished request's arena goes
// back to the pool (observable via gen bump making the old handle inert).
func TestArenaRecycledWhenQuiescent(t *testing.T) {
	tr := testTracer()
	arena, root := tr.StartRequest("request", SpanContext{})
	gen := arena.gen.Load()
	root.End()
	tr.Finish(arena, root)
	if arena.gen.Load() != gen+1 {
		t.Fatal("quiescent arena was not recycled")
	}
	// A stale span handle must be inert after recycle.
	root.End()
	root.SetAttr(String("late", "write"))
	root.Fail("late")
	if arena.n.Load() != 0 {
		t.Error("stale handle disturbed recycled arena")
	}
}

// TestDetachedSpanAbandonsArena is the PR 3 corruption class applied to
// spans: a span still open when the request finishes (a detached
// singleflight leader, a cancelled run's straggler) must keep the arena out
// of the pool, and its late End must not corrupt anything.
func TestDetachedSpanAbandonsArena(t *testing.T) {
	tr := keepAll()
	arena, root := tr.StartRequest("request", SpanContext{})
	detached := root.StartChild("singleflight.leader")
	root.End()
	gen := arena.gen.Load()
	tr.Finish(arena, root)
	if arena.gen.Load() != gen {
		t.Fatal("arena with an open span was recycled")
	}
	// The kept snapshot excludes the half-open span.
	td := tr.Store.Get(arena.ID())
	if td == nil {
		t.Fatal("trace not kept")
	}
	for _, s := range td.Spans {
		if s.Name == "singleflight.leader" {
			t.Error("unended span leaked into the snapshot")
		}
	}
	// The straggler ends late: harmless, and new children are refused.
	detached.End()
	if sp := detached.StartChild("late"); sp != nil {
		t.Error("StartChild on a sealed trace returned a live span")
	}
}

// TestStaleHandleRefusedWhileRecycling stops the last release between its two
// steps — elected recycler, generation not yet bumped — which is where a
// handle of the finished request used to pass both of StartChild's checks
// (the election itself had cleared "sealed", the generation was still its
// own) and write a slot the recycler was about to zero, in an arena about to
// be handed to another request. No -race luck needed: the window is held open
// by calling the two halves of release by hand.
func TestStaleHandleRefusedWhileRecycling(t *testing.T) {
	tr := testTracer()
	arena, root := tr.StartRequest("request", SpanContext{})
	worker := root.StartChild("worker")
	worker.End()
	root.End()
	// Finish, taken apart: seal, then drop the base reference.
	arena.phase.Store(arenaSealed)
	if !arena.lastOut() {
		t.Fatal("the base reference was not the last one out of the sealed arena")
	}
	gen, reserved := arena.gen.Load(), arena.n.Load()
	for _, stale := range []*Span{root, worker} {
		if sp := stale.StartChild("late"); sp != nil {
			t.Fatal("a handle of the finished request opened a span in the arena being recycled")
		}
		stale.ChildInterval("late", time.Now(), time.Millisecond)
	}
	if arena.n.Load() != reserved {
		t.Errorf("%d slots reserved during the recycle window, want %d", arena.n.Load(), reserved)
	}
	if arena.refs.Load() != 0 || arena.phase.Load() != arenaRecycling || arena.gen.Load() != gen {
		t.Errorf("refused starts left refs %d phase %d gen %d, want 0, recycling, %d",
			arena.refs.Load(), arena.phase.Load(), arena.gen.Load(), gen)
	}
	arena.recycle()
	if arena.gen.Load() != gen+1 || arena.phase.Load() != arenaOpen || arena.n.Load() != 0 {
		t.Fatalf("after recycle: gen %d phase %d slots %d", arena.gen.Load(), arena.phase.Load(), arena.n.Load())
	}
	// Reopened for the next request — and still closed to the last one's
	// handles, by generation now.
	if sp := worker.StartChild("later"); sp != nil || arena.n.Load() != 0 {
		t.Error("a stale handle opened a span in the recycled arena")
	}
	if arena.refs.Load() != 0 {
		t.Errorf("recycled arena holds %d references", arena.refs.Load())
	}
}

// TestEndedHandleInertWhileRecycling is the same window seen from SetAttr and
// Fail, which take no reference. A handle whose End had run used to ask the
// arena whether it was stale: it read the generation (still its own), the
// arena was recycled — generation bumped, slots zeroed, so "committed" read
// false again — and the write that followed landed in a slot of an arena on
// its way to another request. The window is held open by winding the
// generation back to what such a reader loaded before the bump.
func TestEndedHandleInertWhileRecycling(t *testing.T) {
	tr := testTracer()
	arena, root := tr.StartRequest("request", SpanContext{})
	worker := root.StartChild("worker")
	worker.End()
	root.End()
	gen := arena.gen.Load()
	tr.Finish(arena, root)
	if arena.gen.Load() != gen+1 || arena.n.Load() != 0 {
		t.Fatal("the finished request's arena was not recycled")
	}
	arena.gen.Store(gen)
	defer arena.gen.Store(gen + 1)
	for _, stale := range []*Span{root, worker} {
		stale.SetAttr(String("late", "write"))
		stale.Fail("late")
		stale.End()
		if sl := &arena.spans[stale.slot]; sl.nattrs != 0 || sl.status != "" || sl.committed.Load() {
			t.Errorf("an ended handle wrote slot %d of the recycled arena: %d attrs, status %q, committed %v",
				stale.slot, sl.nattrs, sl.status, sl.committed.Load())
		}
	}
	if arena.refs.Load() != 0 {
		t.Errorf("ended handles left the recycled arena with %d references", arena.refs.Load())
	}
}

// TestConcurrentSpansUnderRace hammers one arena from many goroutines
// while the request finishes concurrently — the recycling race the sealed
// flag + refs count must win. Run with -race.
func TestConcurrentSpansUnderRace(t *testing.T) {
	tr := keepAll()
	for iter := 0; iter < 200; iter++ {
		arena, root := tr.StartRequest("request", SpanContext{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				sp := root.StartChild("worker", Int("g", int64(g)))
				sp.SetAttr(Bool("done", true))
				sp.End()
			}(g)
		}
		// Finish races the workers: some spans land before the seal, some
		// after (inert). Either way no corruption and no deadlock.
		root.End()
		tr.Finish(arena, root)
		wg.Wait()
	}
}

// TestArenaOverflowDrops: spans beyond capacity are counted, not stored.
func TestArenaOverflowDrops(t *testing.T) {
	tr := keepAll()
	arena, root := tr.StartRequest("request", SpanContext{})
	for i := 0; i < maxSpans+10; i++ {
		sp := root.StartChild("s")
		sp.End()
	}
	root.End()
	id := arena.ID()
	tr.Finish(arena, root)
	td := tr.Store.Get(id)
	if td == nil {
		t.Fatal("not kept")
	}
	if td.Dropped != 11 { // 10 over capacity + root took a slot
		t.Errorf("dropped = %d, want 11", td.Dropped)
	}
	if len(td.Spans) != maxSpans {
		t.Errorf("spans = %d, want %d", len(td.Spans), maxSpans)
	}
}

func TestStoreEviction(t *testing.T) {
	s := NewStore(3)
	ids := make([]TraceID, 5)
	for i := range ids {
		ids[i] = NewTraceID()
		s.Put(&TraceData{TraceID: ids[i]})
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3", s.Len())
	}
	for _, id := range ids[:2] {
		if s.Get(id) != nil {
			t.Error("oldest not evicted")
		}
	}
	for _, id := range ids[2:] {
		if s.Get(id) == nil {
			t.Error("recent trace evicted")
		}
	}
	recent := s.Recent(2)
	if len(recent) != 2 || recent[0] != ids[4] || recent[1] != ids[3] {
		t.Errorf("Recent = %v, want newest first", recent)
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	seen := map[TraceID]bool{}
	for i := 0; i < 10000; i++ {
		id := NewTraceID()
		if !id.IsValid() || seen[id] {
			t.Fatalf("trace id %v invalid or duplicated", id)
		}
		seen[id] = true
	}
}
