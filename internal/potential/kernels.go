package potential

// The plan kernels: one body per primitive, each a single pass over the
// plan's blocks in [lo, hi) — one O(groups) seek, then per block a flat loop
// in the block's shape ("slice ⊗ scalar" for a constant run, slice ⊗ slice
// for a contiguous run, a gather through the offset tile for short runs) and
// one O(1)-amortized odometer step. The per-entry arithmetic, and the order
// in which a marginalization adds or maximizes into a destination cell, are
// exactly those of the scalar reference path (ops.go / maxops.go), so plan
// and scalar results are bit-identical — the differential harness and the
// kernel fuzzer rely on this.
//
// Range endpoints need not be block-aligned: a mid-block lo or hi yields a
// partial head or tail segment with the same inner-loop shapes. Aligned split
// points are still preferable — the scheduler snaps δ-partition boundaries to
// the task's grain (see PartitionGrain) so constant-run reductions stay
// private to one piece — but correctness never depends on it.

import "fmt"

// MulRange multiplies entries [lo, hi) of p in place by the aligned entries
// of q; p and q must have the sizes the plan was compiled for.
func (pl *Plan) MulRange(p, q *Potential, lo, hi int) error {
	return pl.MulRangeFrom(p, p, q, lo, hi)
}

// MulRangeFrom writes entries [lo, hi) of dst as those of src times the
// aligned entries of q: the same product per entry as copying src into dst and
// multiplying in place, in one pass. src is only read, so the pieces of a
// partitioned task may share it; dst and src must have the same size.
func (pl *Plan) MulRangeFrom(dst, src, q *Potential, lo, hi int) error {
	if err := pl.check("multiply", len(dst.Data), len(q.Data), lo, hi); err != nil {
		return err
	}
	if len(src.Data) != len(dst.Data) {
		return fmt.Errorf("multiply: source of %d entries for a table of %d", len(src.Data), len(dst.Data))
	}
	dd, sd, qd := dst.Data, src.Data, q.Data
	var c cursor
	base := pl.seek(&c, lo)
	for s := lo; s < hi; {
		e := min(base+pl.block, hi)
		seg, in := dd[s:e], sd[s:e]
		switch pl.shape {
		case tiled:
			offs, qs := pl.tile[s-base:e-base], qd[c.sub:]
			seg, in = seg[:len(offs)], in[:len(offs)]
			for k, o := range offs {
				seg[k] = in[k] * qs[o]
			}
		case contigRun:
			qs := qd[c.sub+(s-base):]
			qs, in = qs[:len(seg)], in[:len(seg)]
			for k := range seg {
				seg[k] = in[k] * qs[k]
			}
		default:
			f := qd[c.sub]
			in = in[:len(seg)]
			for k := range seg {
				seg[k] = in[k] * f
			}
		}
		s, base = e, e
		if s < hi {
			pl.next(&c)
		}
	}
	return nil
}

// DivRange divides entries [lo, hi) of p in place by the aligned entries of
// q, with the junction-tree convention 0/0 = 0 (any x/0 is defined as 0, as
// in the scalar path).
func (pl *Plan) DivRange(p, q *Potential, lo, hi int) error {
	if err := pl.check("divide", len(p.Data), len(q.Data), lo, hi); err != nil {
		return err
	}
	pd, qd := p.Data, q.Data
	var c cursor
	base := pl.seek(&c, lo)
	for s := lo; s < hi; {
		e := min(base+pl.block, hi)
		seg := pd[s:e]
		switch pl.shape {
		case tiled:
			offs, qs := pl.tile[s-base:e-base], qd[c.sub:]
			seg = seg[:len(offs)]
			for k, o := range offs {
				if d := qs[o]; d == 0 {
					seg[k] = 0
				} else {
					seg[k] /= d
				}
			}
		case contigRun:
			qs := qd[c.sub+(s-base):]
			qs = qs[:len(seg)]
			for k := range seg {
				if d := qs[k]; d == 0 {
					seg[k] = 0
				} else {
					seg[k] /= d
				}
			}
		default:
			if f := qd[c.sub]; f == 0 {
				clear(seg)
			} else {
				for k := range seg {
					seg[k] /= f
				}
			}
		}
		s, base = e, e
		if s < hi {
			pl.next(&c)
		}
	}
	return nil
}

// MarginalInto accumulates entries [lo, hi) of p into dst, which is not
// cleared first. A constant run reduces into a register seeded from the
// destination cell, preserving the scalar path's left-to-right addition order
// bit for bit; so does the tile, which adds entry by entry.
func (pl *Plan) MarginalInto(p, dst *Potential, lo, hi int) error {
	if err := pl.check("marginal", len(p.Data), len(dst.Data), lo, hi); err != nil {
		return err
	}
	pd, dd := p.Data, dst.Data
	var c cursor
	base := pl.seek(&c, lo)
	for s := lo; s < hi; {
		e := min(base+pl.block, hi)
		seg := pd[s:e]
		switch pl.shape {
		case tiled:
			offs, ds := pl.tile[s-base:e-base], dd[c.sub:]
			seg = seg[:len(offs)]
			for k, o := range offs {
				ds[o] += seg[k]
			}
		case contigRun:
			ds := dd[c.sub+(s-base):]
			ds = ds[:len(seg)]
			for k := range seg {
				ds[k] += seg[k]
			}
		default:
			acc := dd[c.sub]
			for k := range seg {
				acc += seg[k]
			}
			dd[c.sub] = acc
		}
		s, base = e, e
		if s < hi {
			pl.next(&c)
		}
	}
	return nil
}

// MaxMarginalInto maximizes entries [lo, hi) of p into dst, the (max, ×)
// counterpart of MarginalInto.
func (pl *Plan) MaxMarginalInto(p, dst *Potential, lo, hi int) error {
	if err := pl.check("max-marginal", len(p.Data), len(dst.Data), lo, hi); err != nil {
		return err
	}
	pd, dd := p.Data, dst.Data
	var c cursor
	base := pl.seek(&c, lo)
	for s := lo; s < hi; {
		e := min(base+pl.block, hi)
		seg := pd[s:e]
		switch pl.shape {
		case tiled:
			offs, ds := pl.tile[s-base:e-base], dd[c.sub:]
			seg = seg[:len(offs)]
			for k, o := range offs {
				if v := seg[k]; v > ds[o] {
					ds[o] = v
				}
			}
		case contigRun:
			ds := dd[c.sub+(s-base):]
			ds = ds[:len(seg)]
			for k := range seg {
				if v := seg[k]; v > ds[k] {
					ds[k] = v
				}
			}
		default:
			m := dd[c.sub]
			for k := range seg {
				if v := seg[k]; v > m {
					m = v
				}
			}
			dd[c.sub] = m
		}
		s, base = e, e
		if s < hi {
			pl.next(&c)
		}
	}
	return nil
}

// ExtendInto fills entries [lo, hi) of dst, the superset table, with the
// aligned entries of q: a constant run becomes a scalar fill, a contiguous
// run a straight copy.
func (pl *Plan) ExtendInto(q, dst *Potential, lo, hi int) error {
	if err := pl.check("extend", len(dst.Data), len(q.Data), lo, hi); err != nil {
		return err
	}
	qd, dd := q.Data, dst.Data
	var c cursor
	base := pl.seek(&c, lo)
	for s := lo; s < hi; {
		e := min(base+pl.block, hi)
		seg := dd[s:e]
		switch pl.shape {
		case tiled:
			offs, qs := pl.tile[s-base:e-base], qd[c.sub:]
			seg = seg[:len(offs)]
			for k, o := range offs {
				seg[k] = qs[o]
			}
		case contigRun:
			copy(seg, qd[c.sub+(s-base):])
		default:
			f := qd[c.sub]
			for k := range seg {
				seg[k] = f
			}
		}
		s, base = e, e
		if s < hi {
			pl.next(&c)
		}
	}
	return nil
}

// PartitionGrain returns the preferred split alignment, in entries, for
// range-partitioned kernels pairing a superset table over (supVars, supCard)
// with a subset table over subVars: the constant-run length when the
// trailing superset variables are absent from the subset (a split inside
// such a run makes two pieces reduce into the same destination cell), and 1
// when the trailing variable is shared (contiguous runs split anywhere at
// equal cost). It needs only domains, not tables, so taskgraph.Build can
// stamp a grain on every task of a skeleton tree; subset variables not in
// the superset are ignored.
func PartitionGrain(supVars, supCard, subVars []int) int {
	g := 1
	j := len(subVars) - 1
	for i := len(supVars) - 1; i >= 0; i-- {
		for j >= 0 && subVars[j] > supVars[i] {
			j--
		}
		if j >= 0 && subVars[j] == supVars[i] {
			break // shared variable: the absent suffix ends here
		}
		g *= supCard[i]
	}
	return g
}
