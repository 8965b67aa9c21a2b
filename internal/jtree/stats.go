package jtree

// Stats summarizes a junction tree's structure — the quantities the
// paper's Section 7 reports for its workloads (N, w_C, r, k) plus the
// critical-path diagnostics of Section 4.
type Stats struct {
	Cliques        int
	Variables      int
	MinWidth       int
	MaxWidth       int
	MeanWidth      float64
	MaxTableSize   int
	TotalEntries   int // sum of clique table sizes
	MaxSepSize     int
	Depth          int // edges on the longest root-to-leaf path
	Leaves         int
	MaxChildren    int
	MeanChildren   float64 // over internal cliques
	TotalWeight    float64
	CriticalWeight float64
	// CriticalRatio = TotalWeight / CriticalWeight: an upper bound on the
	// parallel speedup of evidence propagation on this rooting.
	CriticalRatio float64
}

// ComputeStats gathers the statistics.
func (t *Tree) ComputeStats() Stats {
	s := Stats{Cliques: t.N(), MinWidth: 1 << 30}
	vars := map[int]bool{}
	internal := 0
	childSum := 0
	for i := range t.Cliques {
		c := &t.Cliques[i]
		w := c.Width()
		if w < s.MinWidth {
			s.MinWidth = w
		}
		if w > s.MaxWidth {
			s.MaxWidth = w
		}
		s.MeanWidth += float64(w)
		if ts := c.TableSize(); ts > s.MaxTableSize {
			s.MaxTableSize = ts
		}
		s.TotalEntries += c.TableSize()
		if ss := c.SepSize(); c.Parent >= 0 && ss > s.MaxSepSize {
			s.MaxSepSize = ss
		}
		for _, v := range c.Vars {
			vars[v] = true
		}
		if d := t.Depth(i); d > s.Depth {
			s.Depth = d
		}
		if len(c.Children) == 0 {
			s.Leaves++
		} else {
			internal++
			childSum += len(c.Children)
			if len(c.Children) > s.MaxChildren {
				s.MaxChildren = len(c.Children)
			}
		}
	}
	s.Variables = len(vars)
	s.MeanWidth /= float64(t.N())
	if internal > 0 {
		s.MeanChildren = float64(childSum) / float64(internal)
	}
	s.TotalWeight = t.TotalWeight()
	s.CriticalWeight, _ = t.CriticalPath()
	if s.CriticalWeight > 0 {
		s.CriticalRatio = s.TotalWeight / s.CriticalWeight
	}
	return s
}
