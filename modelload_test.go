package evprop

import (
	"bytes"
	"runtime"
	"testing"
)

// TestModelLoadAllocsPinned pins what loading a model allocates: ParseBIF of
// the BIF text WriteBIF writes for the load benchmark's three models, then
// Compile at the benchmark server's options. It is the noise-free companion
// of the benchmark's setup_s. When the lexer tokenized the whole file first,
// each table was filled with ones and then multiplied, and the engine and the
// reroot each deep-copied the tree, a load allocated small40 0.70 MB in 6 851
// allocations, mid60 2.05 MB in 12 042 and wide60 7.43 MB in 15 895. Now
// they read 0.26 MB / 3 159, 0.60 MB / 4 543 and 3.03 MB / 4 903, of which
// wide60's tables are 314 770 entries, 2.52 MB.
func TestModelLoadAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		name           string
		nodes, parents int
		bytes          uint64 // per load
		allocs         float64
	}{
		{"small40", 40, 3, 300_000, 3_500},
		{"mid60", 60, 4, 700_000, 5_000},
		{"wide60", 60, 5, 3_200_000, 5_400},
	} {
		var src bytes.Buffer
		if err := RandomNetwork(tc.nodes, 2, tc.parents, 7).WriteBIF(&src, tc.name, nil); err != nil {
			t.Fatal(err)
		}
		load := func() {
			net, _, err := ParseBIF(bytes.NewReader(src.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			eng, err := net.Compile(Options{Workers: 2, CacheSize: 32})
			if err != nil {
				t.Fatal(err)
			}
			eng.Close()
		}
		load() // start the process's worker pool
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			load()
		}
		runtime.ReadMemStats(&after)
		b := (after.TotalAlloc - before.TotalAlloc) / runs
		allocs := testing.AllocsPerRun(runs, load)
		t.Logf("%s: %d B and %.0f allocations per load", tc.name, b, allocs)
		if b > tc.bytes || allocs > tc.allocs {
			t.Errorf("%s: %d B and %.0f allocations per load, pinned at %d B and %.0f", tc.name, b, allocs, tc.bytes, tc.allocs)
		}
	}
}
