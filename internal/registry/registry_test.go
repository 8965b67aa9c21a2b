package registry

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"evprop"
)

// rainNet builds a two-variable network whose posterior P(Rain | Wet=1)
// is controlled by pRain, so different "versions" of the same model give
// distinguishable answers.
func rainNet(pRain float64) *evprop.Network {
	n := evprop.NewNetwork()
	n.MustAddVariable("Rain", 2, nil, []float64{1 - pRain, pRain})
	n.MustAddVariable("Wet", 2, []string{"Rain"}, []float64{
		0.9, 0.1,
		0.2, 0.8,
	})
	return n
}

// netSource adapts a literal network into a Source via WriteBIF, so the
// registry exercises its real parse path.
func netSource(t *testing.T, n *evprop.Network) Source {
	t.Helper()
	var buf bifBuffer
	if err := n.WriteBIF(&buf, "test", nil); err != nil {
		t.Fatal(err)
	}
	return InlineSource(buf.b, false)
}

type bifBuffer struct{ b []byte }

func (w *bifBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

func TestLoadAcquireRelease(t *testing.T) {
	r := New(evprop.Options{Workers: 2})
	defer r.Close()
	if err := r.LoadSync("asia", LiteralSource(evprop.Asia(), "asia")); err != nil {
		t.Fatal(err)
	}
	v, release, err := r.Acquire("asia")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if v.ID != 1 {
		t.Errorf("first version ID = %d, want 1", v.ID)
	}
	post, err := v.Engine.Query(evprop.Evidence{"XRay": 1}, "Lung")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := evprop.Asia().ExactMarginal("Lung", evprop.Evidence{"XRay": 1})
	if math.Abs(post["Lung"][1]-want[1]) > 1e-9 {
		t.Errorf("posterior %v, oracle %v", post["Lung"], want)
	}
	if _, _, err := r.Acquire("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown model error = %v, want ErrNotFound", err)
	}
	info := r.List()
	if len(info) != 1 || info[0].State != StateReady || info[0].Version != 1 {
		t.Errorf("List = %+v", info)
	}
	if want := fmt.Sprintf("scheme=%d workers=2", evprop.CompileScheme); info[0].Fingerprint != want || v.Fingerprint != want {
		t.Errorf("fingerprint %q in the info, %q on the version, want %q", info[0].Fingerprint, v.Fingerprint, want)
	}
}

func TestBadNameAndFailedCompile(t *testing.T) {
	r := New(evprop.Options{Workers: 1})
	defer r.Close()
	if _, err := r.Load("no/slash", LiteralSource(evprop.Asia(), "asia")); !errors.Is(err, ErrBadName) {
		t.Errorf("bad name error = %v", err)
	}
	if err := r.LoadSync("broken", InlineSource([]byte("not a bif"), false)); err == nil {
		t.Fatal("parse failure did not surface")
	}
	if _, _, err := r.Acquire("broken"); !errors.Is(err, ErrNotReady) {
		t.Errorf("failed model acquire error = %v, want ErrNotReady", err)
	}
	if got := r.List()[0].State; got != StateFailed {
		t.Errorf("state %q, want failed", got)
	}
	// A later good load heals the model.
	if err := r.LoadSync("broken", LiteralSource(evprop.Sprinkler(), "sprinkler")); err != nil {
		t.Fatal(err)
	}
	if _, release, err := r.Acquire("broken"); err != nil {
		t.Fatal(err)
	} else {
		release()
	}
}

// TestSwapDrainRelease verifies the publish → drain → release lifecycle:
// an in-flight query pins the old version across a swap, the old cache is
// fenced out only after the last release, and new acquires see the new
// version immediately.
func TestSwapDrainRelease(t *testing.T) {
	r := New(evprop.Options{Workers: 2, CacheSize: 64})
	defer r.Close()
	if err := r.LoadSync("m", netSource(t, rainNet(0.2))); err != nil {
		t.Fatal(err)
	}
	old, releaseOld, err := r.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	// Warm the old version's cache so retirement is observable: a result is
	// admitted on the second sight of its evidence.
	for sight := 0; sight < 2; sight++ {
		res, err := old.Engine.Propagate(evprop.Evidence{"Wet": 1})
		if err != nil {
			t.Fatal(err)
		}
		res.Close()
	}
	if old.Engine.CacheStats().Entries == 0 {
		t.Fatal("cache did not warm")
	}
	if err := r.LoadSync("m", netSource(t, rainNet(0.7))); err != nil {
		t.Fatal(err)
	}
	cur, releaseCur, err := r.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	defer releaseCur()
	if cur.ID != old.ID+1 {
		t.Errorf("version after swap %d, want %d", cur.ID, old.ID+1)
	}
	// The drained-out version still answers while pinned, and its cache
	// is intact: in-flight queries finish against the engine they started
	// on.
	post, err := old.Engine.Query(evprop.Evidence{"Wet": 1}, "Rain")
	if err != nil {
		t.Fatalf("pinned old version failed: %v", err)
	}
	oracleOld, _ := rainNet(0.2).ExactMarginal("Rain", evprop.Evidence{"Wet": 1})
	if math.Abs(post["Rain"][1]-oracleOld[1]) > 1e-9 {
		t.Errorf("old-version posterior %v, oracle %v", post["Rain"], oracleOld)
	}
	// Last reference gone → the old version retires: cache fenced out.
	releaseOld()
	deadline := time.Now().Add(2 * time.Second)
	for old.Engine.CacheStats().Entries != 0 {
		if time.Now().After(deadline) {
			t.Fatal("old version's cache never fenced out after drain")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHotSwapRace hammers one model with concurrent queries while its
// versions swap between two distinguishable networks. Loss-free means:
// every query a client attempts completes, and every answer is bit-identical
// to exactly one of the two versions' oracles — never a cross-version mix,
// never a stale cache hit (each version's cache belongs to its own engine).
// The clients query until the swapper has signalled two completed swaps, so
// the swaps happen under load however fast the host answers.
func TestHotSwapRace(t *testing.T) {
	r := New(evprop.Options{Workers: 2, CacheSize: 64})
	defer r.Close()
	srcA, srcB := netSource(t, rainNet(0.2)), netSource(t, rainNet(0.7))
	if err := r.LoadSync("m", srcA); err != nil {
		t.Fatal(err)
	}
	oracleA, _ := rainNet(0.2).ExactMarginal("Rain", evprop.Evidence{"Wet": 1})
	oracleB, _ := rainNet(0.7).ExactMarginal("Rain", evprop.Evidence{"Wet": 1})

	const (
		clients   = 8
		perClient = 150 // at least, and on until two swaps have completed
		wantSwaps = 2
	)
	stop := make(chan struct{})
	// swapped is closed once wantSwaps swaps have completed, or when the
	// swapper fails, so no client waits on a swap that will not come.
	swapped := make(chan struct{})
	var endSwapped sync.Once
	var wg sync.WaitGroup
	var matchedA, matchedB, swaps atomic.Int64
	var attempted, completed [clients]int64
	errc := make(chan error, clients+1)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				if i >= perClient {
					select {
					case <-swapped:
						return
					default:
					}
				}
				attempted[g]++
				v, release, err := r.Acquire("m")
				if err != nil {
					errc <- err
					return
				}
				post, err := v.Engine.Query(evprop.Evidence{"Wet": 1}, "Rain")
				release()
				if err != nil {
					errc <- err
					return
				}
				completed[g]++
				switch p := post["Rain"][1]; {
				case p == oracleA[1]:
					matchedA.Add(1)
				case p == oracleB[1]:
					matchedB.Add(1)
				default:
					errc <- errors.New("posterior matches neither version's oracle")
					return
				}
			}
		}()
	}
	// Swap back and forth for as long as the clients run: every compile
	// publishes a fresh engine (and fresh cache) under live load.
	var swapWg sync.WaitGroup
	swapWg.Add(1)
	go func() {
		defer swapWg.Done()
		defer endSwapped.Do(func() { close(swapped) })
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			src := srcA
			if i%2 == 0 {
				src = srcB
			}
			if err := r.LoadSync("m", src); err != nil {
				errc <- err
				return
			}
			if swaps.Add(1) == wantSwaps {
				endSwapped.Do(func() { close(swapped) })
			}
		}
	}()
	wg.Wait()
	close(stop)
	swapWg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	queries := int64(0)
	for g := range clients {
		if completed[g] != attempted[g] {
			t.Errorf("client %d: %d of %d queries completed (lossy swap)", g, completed[g], attempted[g])
		}
		queries += completed[g]
	}
	if swaps.Load() < wantSwaps {
		t.Fatalf("%d version swaps happened under load, want at least %d", swaps.Load(), wantSwaps)
	}
	if matchedA.Load()+matchedB.Load() != queries {
		t.Fatal("answer accounting does not add up")
	}
	t.Logf("queries=%d swaps=%d matchedA=%d matchedB=%d",
		queries, swaps.Load(), matchedA.Load(), matchedB.Load())
}

// TestPerModelCacheIsolation is the differential check that per-model
// caches never serve another model's posterior: two models share variable
// names and evidence (identical evidence signatures), yet warm cached
// answers always match their own model's oracle.
func TestPerModelCacheIsolation(t *testing.T) {
	r := New(evprop.Options{Workers: 2, CacheSize: 64})
	defer r.Close()
	if err := r.LoadSync("a", netSource(t, rainNet(0.2))); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadSync("b", netSource(t, rainNet(0.7))); err != nil {
		t.Fatal(err)
	}
	oracle := map[string][]float64{}
	for name, p := range map[string]float64{"a": 0.2, "b": 0.7} {
		m, _ := rainNet(p).ExactMarginal("Rain", evprop.Evidence{"Wet": 1})
		oracle[name] = m
	}
	// Interleave repeatedly so both caches are warm and consulted.
	for i := 0; i < 10; i++ {
		for _, name := range []string{"a", "b"} {
			v, release, err := r.Acquire(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := v.Engine.Propagate(evprop.Evidence{"Wet": 1})
			if err != nil {
				t.Fatal(err)
			}
			post, err := res.Posterior("Rain")
			if err != nil {
				t.Fatal(err)
			}
			res.Close()
			release()
			if post[1] != oracle[name][1] {
				t.Fatalf("round %d: model %q posterior %v, own oracle %v (cross-model cache hit?)",
					i, name, post, oracle[name])
			}
		}
	}
	for _, name := range []string{"a", "b"} {
		v, _ := r.Current(name)
		if cs := v.Engine.CacheStats(); cs.Hits == 0 {
			t.Errorf("model %q: cache never hit (hits=%d misses=%d)", name, cs.Hits, cs.Misses)
		}
	}
}

func TestDeleteDrains(t *testing.T) {
	r := New(evprop.Options{Workers: 1})
	defer r.Close()
	if err := r.LoadSync("m", LiteralSource(evprop.Sprinkler(), "sprinkler")); err != nil {
		t.Fatal(err)
	}
	v, release, err := r.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("m"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Acquire("m"); !errors.Is(err, ErrNotFound) {
		t.Errorf("post-delete acquire error = %v, want ErrNotFound", err)
	}
	// The pinned version still answers, then drains on release.
	if _, err := v.Engine.Query(evprop.Evidence{}, "Rain"); err != nil {
		t.Errorf("pinned version after delete: %v", err)
	}
	release()
	if err := r.Delete("m"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete error = %v, want ErrNotFound", err)
	}
}

// TestDeleteRacesCompile: a compile finishing after Delete must not
// resurrect the model.
func TestDeleteRacesCompile(t *testing.T) {
	r := New(evprop.Options{Workers: 1})
	defer r.Close()
	for i := 0; i < 10; i++ {
		done, err := r.Load("m", LiteralSource(evprop.Asia(), "asia"))
		if err != nil {
			t.Fatal(err)
		}
		_ = r.Delete("m") // may beat or lose to the compile
		<-done
		if _, _, err := r.Acquire("m"); err == nil {
			// Compile won the publish race against a Delete that already
			// removed the entry from the map — the Acquire must still fail
			// because the map entry is gone.
			t.Fatal("deleted model still acquirable")
		}
	}
}

// TestOutcomeNotVisibleWhileCompiling: whoever receives a compile's outcome
// must find the model settled — ready or failed, never still "compiling" or
// "reloading". The outcome is sent once compileCounted has returned, so the
// property is that a counted compile leaves nothing counted, which needs no
// scheduling luck to check; the loop through the public API rides along.
func TestOutcomeNotVisibleWhileCompiling(t *testing.T) {
	r := New(evprop.Options{Workers: 1})
	defer r.Close()
	if err := r.LoadSync("m", LiteralSource(evprop.Sprinkler(), "sprinkler")); err != nil {
		t.Fatal(err)
	}
	m, err := r.model("m")
	if err != nil {
		t.Fatal(err)
	}
	m.compiling.Add(1)
	if err := r.compileCounted(m, LiteralSource(evprop.Sprinkler(), "sprinkler")); err != nil {
		t.Fatal(err)
	}
	if info := m.Info(); info.State != StateReady || info.Reloading || info.Version != 2 {
		t.Errorf("recompiled: %+v, want version 2 ready and not reloading", info)
	}
	m.compiling.Add(1)
	if err := r.compileCounted(m, InlineSource([]byte("not a bif"), false)); err == nil {
		t.Fatal("parse failure did not surface")
	}
	if info := m.Info(); info.State != StateReady || info.Reloading || info.Error == "" {
		t.Errorf("failed reload: %+v, want the old version ready, not reloading, with the error", info)
	}

	for i := 0; i < 50; i++ {
		done, err := r.Reload("m")
		if err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if info := m.Info(); info.State != StateReady || info.Reloading {
			t.Fatalf("reload %d: outcome received, model still %+v", i, info)
		}
		if err := r.LoadSync("broken", InlineSource([]byte("not a bif"), false)); err == nil {
			t.Fatal("parse failure did not surface")
		}
		if b, err := r.model("broken"); err != nil || b.Info().State != StateFailed {
			t.Fatalf("failed load %d: state %q (%v), want failed", i, b.Info().State, err)
		}
	}
}
