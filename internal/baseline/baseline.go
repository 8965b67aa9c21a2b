// Package baseline implements the comparison evidence-propagation methods
// of the paper's Section 7, all driving the same task graph and state as
// the collaborative scheduler so results are directly comparable:
//
//   - LevelSync: the "OpenMP based" baseline — a fork-join parallel-for
//     over each dependency level with a barrier between levels;
//   - DataParallel: the paper's second baseline — tasks run in serial
//     order, but every node-level primitive is split across P goroutines
//     spawned per primitive (high fork-join overhead);
//   - Centralized: the Cell-BE-style design — one dedicated coordinator
//     goroutine owns all dependency bookkeeping and feeds P workers;
//   - DistributedEmu: a PNL-like distributed-memory emulation — cliques are
//     statically partitioned into P blocks and every cross-block message
//     pays a separator serialization round-trip, reproducing the
//     communication overhead that makes Fig. 6 collapse beyond 4
//     processors.
package baseline

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"evprop/internal/potential"
	"evprop/internal/taskgraph"
)

// Result reports one baseline run.
type Result struct {
	Elapsed time.Duration
	// Messages counts emulated cross-block transfers (DistributedEmu only).
	Messages int
	// BytesMoved counts emulated serialized bytes (DistributedEmu only).
	BytesMoved int
}

// LevelSync executes the graph level by level: the tasks of each level are
// statically chunked over p goroutines and a barrier separates levels,
// mirroring an OpenMP parallel-for around each wavefront of ready cliques.
// Tasks within one level are mutually unordered and therefore hazard-free.
func LevelSync(st taskgraph.Executor, p int) (*Result, error) {
	if p < 1 {
		return nil, fmt.Errorf("baseline: levelsync needs p >= 1, got %d", p)
	}
	g := st.Graph()
	start := time.Now()
	for _, level := range g.Levels() {
		if err := parallelChunks(p, len(level), func(i int) error {
			return st.Execute(level[i])
		}); err != nil {
			return nil, err
		}
	}
	return &Result{Elapsed: time.Since(start)}, nil
}

// parallelChunks runs f(0..n-1) across p goroutines with static chunking
// and joins them (the OpenMP static schedule).
func parallelChunks(p, n int, f func(i int) error) error {
	if n == 0 {
		return nil
	}
	if p > n {
		p = n
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		lo := w * n / p
		hi := (w + 1) * n / p
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if err := f(i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// DataParallel executes tasks one at a time in topological order, but each
// primitive's index range is split across p goroutines spawned for that
// primitive — the paper's data-parallel baseline, whose per-primitive
// fork-join overhead limits its speedup.
func DataParallel(st taskgraph.Executor, p int) (*Result, error) {
	if p < 1 {
		return nil, fmt.Errorf("baseline: dataparallel needs p >= 1, got %d", p)
	}
	g := st.Graph()
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for _, id := range order {
		size := st.PartitionSize(id)
		chunks := p
		if chunks > size {
			chunks = size
		}
		if chunks <= 1 {
			if err := st.Execute(id); err != nil {
				return nil, err
			}
			continue
		}
		// Chunk 0 reduces straight into the task's destination; the others
		// get a private buffer each (nil for in-place kinds), combined in
		// chunk order.
		bufs := make([]*potential.Potential, chunks-1)
		if err := parallelChunks(chunks, chunks, func(k int) error {
			var buf *potential.Potential
			if k > 0 {
				buf = st.NewPartialBuffer(id)
				bufs[k-1] = buf
			}
			return st.ExecutePiece(id, k*size/chunks, (k+1)*size/chunks, buf)
		}); err != nil {
			return nil, err
		}
		if bufs[0] == nil {
			bufs = nil
		}
		if err := st.Combine(id, bufs); err != nil {
			return nil, err
		}
	}
	return &Result{Elapsed: time.Since(start)}, nil
}

// Centralized executes the graph with one dedicated coordinator goroutine
// that owns all dependency bookkeeping and p-1 workers that only execute —
// the design the paper attributes to the Cell BE port and argues is wasteful
// on small homogeneous multicores (one of p cores does no propagation work).
func Centralized(st taskgraph.Executor, p int) (*Result, error) {
	if p < 2 {
		return nil, fmt.Errorf("baseline: centralized needs p >= 2 (one coordinator + workers), got %d", p)
	}
	g := st.Graph()
	start := time.Now()
	if g.N() == 0 {
		return &Result{Elapsed: time.Since(start)}, nil
	}
	workers := p - 1
	ready := make(chan int, g.N())
	done := make(chan int, g.N())
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range ready {
				if err := st.Execute(id); err != nil {
					errc <- err
					return
				}
				done <- id
			}
		}()
	}
	deps := g.DepCounts()
	outstanding := 0
	for _, id := range g.Sources() {
		ready <- id
		outstanding++
	}
	completed := 0
	var firstErr error
	for completed < g.N() && firstErr == nil {
		select {
		case id := <-done:
			completed++
			outstanding--
			for _, s := range g.Tasks[id].Succs {
				deps[s]--
				if deps[s] == 0 {
					ready <- s
					outstanding++
				}
			}
		case err := <-errc:
			firstErr = err
		}
	}
	close(ready)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return &Result{Elapsed: time.Since(start)}, nil
}

// DistributedEmu executes the graph level-synchronously over a static
// partition of the cliques into p blocks (contiguous by clique id, an
// approximation of the junction-tree decomposition used by distributed
// libraries like PNL). Every task whose edge crosses a block boundary pays
// a serialization round-trip of the separator table, emulating a
// message-passing transfer. The returned Result counts the emulated
// messages and bytes.
func DistributedEmu(st *taskgraph.State, p int) (*Result, error) {
	if p < 1 {
		return nil, fmt.Errorf("baseline: distributed needs p >= 1, got %d", p)
	}
	g := st.Graph()
	n := g.Tree.N()
	block := func(clique int) int { return clique * p / n }
	start := time.Now()
	res := &Result{}
	for _, level := range g.Levels() {
		// Emulate the per-level communication phase: cross-block messages
		// are serialized and deserialized.
		for _, id := range level {
			t := &g.Tasks[id]
			if t.Kind == taskgraph.Divide && block(t.Source) != block(t.Target) {
				nbytes, err := transferRoundTrip(st.Sep[t.Edge])
				if err != nil {
					return nil, err
				}
				res.Messages++
				res.BytesMoved += nbytes
			}
		}
		// Per-level computation phase: every block processes its own tasks.
		byBlock := make([][]int, p)
		for _, id := range level {
			b := block(g.Tasks[id].Target)
			byBlock[b] = append(byBlock[b], id)
		}
		errs := make([]error, p)
		var wg sync.WaitGroup
		for b := 0; b < p; b++ {
			if len(byBlock[b]) == 0 {
				continue
			}
			wg.Add(1)
			go func(b int) {
				defer wg.Done()
				for _, id := range byBlock[b] {
					if err := st.Execute(id); err != nil {
						errs[b] = err
						return
					}
				}
			}(b)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// transferRoundTrip serializes the potential's entries to a buffer and
// decodes them back, charging realistic marshaling cost for an emulated
// message transfer. It returns the number of bytes moved.
func transferRoundTrip(p *potential.Potential) (int, error) {
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, p.Data); err != nil {
		return 0, err
	}
	out := make([]float64, len(p.Data))
	if err := binary.Read(&buf, binary.LittleEndian, out); err != nil {
		return 0, err
	}
	copy(p.Data, out)
	return len(p.Data) * 8, nil
}
