//go:build !amd64 || race

package potential

// Without SSE2 assembly — another arch, or a race-detector build, which must
// see every access a kernel makes — each packed form is its Go loop, and no
// tile is classified, so the tile forms are never called.
const packed = false

func mulPacked(dst, a, b []float64)           { mulGo(dst, a, b) }
func scalePacked(dst, a []float64, f float64) { scaleGo(dst, a, f) }
func addPacked(dst, src []float64)            { addGo(dst, src) }
func fillPacked(dst []float64, f float64)     { fillGo(dst, f) }
func divRatioPacked(num, den []float64)       { divRatioGo(num, den) }

func mulAdjacentPacked(dst, src, q []float64, tile []int32) {
	for k, o := range tile {
		dst[k] = src[k] * q[o]
	}
}

func mulTwinPacked(dst, src, q []float64, tile []int32) { mulAdjacentPacked(dst, src, q, tile) }

func addAdjacentPacked(dst, src []float64, tile []int32) {
	for k, o := range tile {
		dst[o] += src[k]
	}
}

func addQuadPacked(dst, src []float64, tile []int32) { addAdjacentPacked(dst, src, tile) }
