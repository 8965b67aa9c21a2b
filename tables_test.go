package evprop

import (
	"hash/fnv"
	"math"
	"sync"
	"testing"
)

// treeTablesHash hashes the bits of every table of the engine's tree.
func treeTablesHash(e *Engine) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range e.inner.Tree().Cliques {
		for _, x := range c.Pot.Data {
			bits := math.Float64bits(x)
			for k := range b {
				b[k] = byte(bits >> (8 * k))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestTreeTablesNeverWritten: an engine reads the very tables the compiler
// built, which a reroot shares rather than copies, so no query may write
// them. On Asia and the load benchmark's three models, at one and two workers,
// eager and lazy, it hashes every tree table's bits, runs eager, targeted,
// likelihood and MPE queries and a batch of concurrent ones through the
// cache (each evidence several times, so the cache admits it and serves
// hits), and hashes again.
func TestTreeTablesNeverWritten(t *testing.T) {
	type model struct {
		name string
		net  *Network
	}
	models := []model{{"asia", Asia()}}
	if !testing.Short() {
		models = append(models, model{"small40", servedModel(t, 40, 3)},
			model{"mid60", servedModel(t, 60, 4)}, model{"wide60", servedModel(t, 60, 5)})
	}
	for _, m := range models {
		evs, targets := benchmarkQueries(m.net, 1, 3, 2, 4)
		for _, workers := range []int{1, 2} {
			for _, lazy := range []bool{false, true} {
				eng, err := m.net.Compile(Options{Workers: workers, CacheSize: 8, Lazy: lazy})
				if err != nil {
					t.Fatal(err)
				}
				before := treeTablesHash(eng)
				for i, ev := range evs {
					if _, err := eng.QueryAll(ev); err != nil {
						t.Fatal(err)
					}
					if _, err := eng.Query(ev, targets[i]...); err != nil {
						t.Fatal(err)
					}
					soft := SoftEvidence{targets[i][0]: make([]float64, m.net.States(targets[i][0]))}
					for s := range soft[targets[i][0]] {
						soft[targets[i][0]][s] = 0.25 + float64(s)
					}
					if _, err := eng.QuerySoft(ev, soft, targets[i][1]); err != nil {
						t.Fatal(err)
					}
					if _, _, err := eng.MostProbableExplanation(ev); err != nil {
						t.Fatal(err)
					}
				}
				var wg sync.WaitGroup
				errs := make(chan error, workers)
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for k := 0; k < 3*len(evs); k++ {
							res, err := eng.Propagate(evs[(k+w)%len(evs)])
							if err != nil {
								errs <- err
								return
							}
							_, err = res.Posteriors()
							res.Close()
							if err != nil {
								errs <- err
								return
							}
						}
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
				if after := treeTablesHash(eng); after != before {
					t.Errorf("%s, %d workers, lazy %v: the tree's tables changed (hash %x, then %x)", m.name, workers, lazy, before, after)
				}
				eng.Close()
			}
		}
	}
}
