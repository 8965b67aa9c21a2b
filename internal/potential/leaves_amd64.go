//go:build amd64 && !race

package potential

// The SSE2 forms (leaves_amd64.s): amd64's baseline, so no CPU detection.
// Every slice length is even and at least len(dst) (len(src) for the adds);
// a tile's offsets index q (dst for the adds) in bounds, as the plan that
// classified it guarantees.
const packed = true

//go:noescape
func mulPacked(dst, a, b []float64)

//go:noescape
func scalePacked(dst, a []float64, f float64)

//go:noescape
func addPacked(dst, src []float64)

//go:noescape
func fillPacked(dst []float64, f float64)

//go:noescape
func divRatioPacked(num, den []float64)

//go:noescape
func mulAdjacentPacked(dst, src, q []float64, tile []int32)

//go:noescape
func mulTwinPacked(dst, src, q []float64, tile []int32)

//go:noescape
func addAdjacentPacked(dst, src []float64, tile []int32)

//go:noescape
func addQuadPacked(dst, src []float64, tile []int32)
