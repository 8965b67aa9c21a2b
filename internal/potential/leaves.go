package potential

// The leaves: the innermost loop of each block shape the plan kernels pack,
// as a function of its own. Each has a Go loop — the *Go functions below, and
// for the tile forms the kernels' gather loops: the references the tests hold
// the packed forms to — and a packed form. On amd64 outside the race detector
// the packed form is SSE2 assembly that runs two entries per instruction
// (leaves_amd64.s); elsewhere it is the Go loop again (leaves_other.go), so
// the detector sees every kernel access. A lane of a packed instruction is
// the scalar loop's own IEEE-754 operation on the same operands in the same
// order — MULPD, ADDPD and DIVPD round exactly as MULSD, ADDSD and DIVSD do,
// and no form fuses a multiply into an add — so packing moves no bit of any
// table.

// packMin is the shortest slice a leaf hands to its packed form: below it the
// call costs more than the lanes save (BenchmarkKernel*'s short blocks).
const packMin = 8

// mul writes dst[k] = a[k] * b[k] for every k < len(dst).
func mul(dst, a, b []float64) {
	if packed && len(dst) >= packMin {
		n := len(dst) &^ 1
		mulPacked(dst[:n], a[:n], b[:n])
		dst, a, b = dst[n:], a[n:], b[n:]
	}
	mulGo(dst, a, b)
}

// scale writes dst[k] = a[k] * f for every k < len(dst).
func scale(dst, a []float64, f float64) {
	if packed && len(dst) >= packMin {
		n := len(dst) &^ 1
		scalePacked(dst[:n], a[:n], f)
		dst, a = dst[n:], a[n:]
	}
	scaleGo(dst, a, f)
}

// add writes dst[k] += src[k] for every k < len(dst).
func add(dst, src []float64) {
	if packed && len(dst) >= packMin {
		n := len(dst) &^ 1
		addPacked(dst[:n], src[:n])
		dst, src = dst[n:], src[n:]
	}
	addGo(dst, src)
}

// fill writes f into every entry of dst.
func fill(dst []float64, f float64) {
	if packed && len(dst) >= packMin {
		n := len(dst) &^ 1
		fillPacked(dst[:n], f)
		dst = dst[n:]
	}
	fillGo(dst, f)
}

// DivRatio is the distribute Divide of Eq. 1 over one stretch of a separator:
// num holds the fresh message ψ*S and den the stored ψS; afterwards num holds
// the ratio ψ*S / ψS, with x/0 = 0 for any x, and den holds ψ*S. den must be
// at least as long as num.
func DivRatio(num, den []float64) {
	if packed && len(num) >= packMin {
		n := len(num) &^ 1
		divRatioPacked(num[:n], den[:n])
		num, den = num[n:], den[n:]
	}
	divRatioGo(num, den)
}

func mulGo(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for k := range dst {
		dst[k] = a[k] * b[k]
	}
}

func scaleGo(dst, a []float64, f float64) {
	a = a[:len(dst)]
	for k := range dst {
		dst[k] = a[k] * f
	}
}

func addGo(dst, src []float64) {
	src = src[:len(dst)]
	for k := range dst {
		dst[k] += src[k]
	}
}

func fillGo(dst []float64, f float64) {
	for k := range dst {
		dst[k] = f
	}
}

func divRatioGo(num, den []float64) {
	den = den[:len(num)]
	for k, fresh := range num {
		if den[k] == 0 {
			num[k] = 0
		} else {
			num[k] = fresh / den[k]
		}
		den[k] = fresh
	}
}

// A tile whose offsets come in pairs can be walked two entries at a time,
// reading the tile at stride 2 (or 4): the plan classifies its tile when it
// is compiled, and the kernels take a packed tile form for every whole block.
type tileForm uint8

const (
	gather   tileForm = iota // no pattern: one offset per entry
	adjacent                 // offsets (t, t+1) at every even entry
	twin                     // offsets (t, t) at every even entry
	quad                     // offsets (t, t, t+1, t+1) at every fourth entry
)

// classifyTile sets pl.form and pl.span from the tile's dimensions, fastest
// last as buildTile takes them: the form its offsets follow, and one past its
// largest offset, the stretch of the subset table a packed block reads. A
// fastest dimension of even cardinality pairs the entries: shared (subset
// stride 1) as (t, t+1), absent (stride 0) as (t, t); two absent states under
// a shared dimension of even cardinality and stride 1 make quads. Only a
// packed build classifies; elsewhere every tile gathers.
func (pl *Plan) classifyTile(card, stride []int) {
	pl.form, pl.span = gather, 1
	for i, c := range card {
		pl.span += (c - 1) * stride[i]
	}
	d := len(card) - 1
	if !packed || card[d]%2 != 0 {
		return
	}
	switch {
	case stride[d] == 1:
		pl.form = adjacent
	case stride[d] == 0 && card[d] == 2 && d > 0 && card[d-1]%2 == 0 && stride[d-1] == 1:
		pl.form = quad
	case stride[d] == 0:
		pl.form = twin
	}
}

// mulTile writes dst[k] = src[k] * q[tile[k]] for every k < len(dst) on a
// tile of form adjacent, twin or quad, reading the tile at stride 2.
func mulTile(form tileForm, dst, src, q []float64, tile []int32) {
	src, tile = src[:len(dst)], tile[:len(dst)]
	if form == adjacent {
		mulAdjacentPacked(dst, src, q, tile)
	} else {
		mulTwinPacked(dst, src, q, tile)
	}
}

// addTile adds src[k] into dst[tile[k]] for every k < len(src), in k order,
// on a tile of form adjacent (read at stride 2) or quad (at stride 4).
func addTile(form tileForm, dst, src []float64, tile []int32) {
	tile = tile[:len(src)]
	if form == adjacent {
		addAdjacentPacked(dst, src, tile)
	} else {
		addQuadPacked(dst, src, tile)
	}
}
