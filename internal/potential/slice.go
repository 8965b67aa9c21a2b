package potential

// Evidence slicing. Hard evidence on a variable leaves one of its states
// possible, so a table that mentions the variable keeps only the entries of
// that state: the observed variable stays in the domain, at its place, with
// cardinality 1 — which NewPlan already treats as no dimension at all — and the
// table shrinks by the variable's cardinality. Reduce does the same thing by
// zeroing the other entries in place; every later pass then streams over the
// zeros. A sliced table holds the entries Reduce would have left non-zero, in
// the same ascending order, so any sum or maximum taken over it in index order
// meets the same terms in the same order as over the reduced table, minus
// additions of +0.0 — which change no bit of a non-negative sum.

// Free marks a variable no hard evidence was given for in an Observed vector.
const Free = -1

// Observed is hard evidence in dense form (Evidence.Dense): Observed[v] is the
// state variable v was observed in, or Free. Variables beyond the vector are
// free. It is what the slicing kernels read — one indexed load per table
// dimension where an Evidence map costs a hash.
type Observed []int32

// State returns the observed state of variable v, or Free.
func (o Observed) State(v int) int {
	if v < 0 || v >= len(o) {
		return Free
	}
	return int(o[v])
}

// SliceCard writes the sliced cardinalities of the domain (vars, card) into
// dst, which must be as long — 1 for an observed variable, its cardinality
// otherwise — and returns the number of entries of a table over them.
func (o Observed) SliceCard(dst, vars, card []int) int {
	size := 1
	for i, v := range vars {
		c := card[i]
		if o.State(v) != Free {
			c = 1
		}
		dst[i] = c
		size *= c
	}
	return size
}

// Gather copies into dst, in ascending index order, the entries of src — a
// table over (vars, card) — whose states agree with the observed ones. dst is
// then the table over the sliced domain and must have exactly its size
// (SliceCard); every observed state must be within its variable's cardinality.
func (o Observed) Gather(dst, src []float64, vars, card []int) {
	var w sliceWalk
	w.compile(o, vars, card)
	w.move(dst, src, false)
}

// Scatter is the inverse of Gather: it writes the entries of src, a table over
// the sliced domain, to their places in dst, a table over (vars, card), and
// leaves the entries that contradict an observed state as they are.
func (o Observed) Scatter(dst, src []float64, vars, card []int) {
	var w sliceWalk
	w.compile(o, vars, card)
	w.move(src, dst, true)
}

// sliceWalk enumerates the entries of a full-domain table that agree with the
// observed states, in ascending order. The observed dimensions fix a base
// offset; the free ones are merged into groups — adjacent free dimensions
// advance the full index like one dimension of their product — and the walk is
// an odometer over all groups but the fastest, which is a flat loop: a copy
// when the trailing variables are free (stride 1), a strided gather when the
// last variable is observed. It lives on the caller's stack.
type sliceWalk struct {
	base   int
	n      int
	count  [maxGroups]int // states of each free group, slowest first
	stride [maxGroups]int // full-table stride of each group's fastest dimension
}

func (w *sliceWalk) compile(o Observed, vars, card []int) {
	// Fastest dimension first, into the tail of the arrays; open says the last
	// dimension that moves was free, so a free one before it joins its group.
	w.base, w.n = 0, 0
	g, stride, open := maxGroups, 1, false
	for i := len(vars) - 1; i >= 0; i-- {
		c := card[i]
		if c == 1 {
			continue
		}
		if s := o.State(vars[i]); s != Free {
			w.base += s * stride
			open = false
		} else if open {
			w.count[g] *= c
		} else {
			g--
			w.count[g], w.stride[g] = c, stride
			open = true
		}
		stride *= c
	}
	w.n = maxGroups - g
	copy(w.count[:w.n], w.count[g:])
	copy(w.stride[:w.n], w.stride[g:])
}

// move walks the consistent entries of full and copies them into sliced in
// order, or with scatter set the other way round.
func (w *sliceWalk) move(sliced, full []float64, scatter bool) {
	cnt, str, outer := 1, 1, 0
	if w.n > 0 {
		outer = w.n - 1
		cnt, str = w.count[outer], w.stride[outer]
	}
	var digit [maxGroups]int
	off := w.base
	for k := 0; ; k += cnt {
		s := sliced[k : k+cnt]
		switch {
		case str == 1 && !scatter:
			copy(s, full[off:off+cnt])
		case str == 1:
			copy(full[off:off+cnt], s)
		case !scatter:
			f := full[off:]
			for j := range s {
				s[j] = f[j*str]
			}
		default:
			f := full[off:]
			for j, v := range s {
				f[j*str] = v
			}
		}
		i := outer - 1
		for ; i >= 0; i-- {
			digit[i]++
			off += w.stride[i]
			if digit[i] < w.count[i] {
				break
			}
			digit[i] = 0
			off -= w.count[i] * w.stride[i]
		}
		if i < 0 {
			return
		}
	}
}
