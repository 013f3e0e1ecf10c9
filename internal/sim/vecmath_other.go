//go:build !amd64

package sim

// The vector kernels exist only on amd64; elsewhere the scalar loops run.
const haveAVX2, haveFMA = false, false

func polarScaleAVX2(u, s []float64) { panic("sim: no polar kernel on this architecture") }

func plumeSumsAVX2(v, x, y, slack []float64, plumes []Plume) int {
	panic("sim: no plume kernel on this architecture")
}

func sweepAVX2(mask []uint8, bit uint8, base, cum, spanLo, spanHi float64,
	noise, bias, snapP, snapC, lo, hi []float64, cell []int32, cellCum []float64) int64 {
	panic("sim: no sweep kernel on this architecture")
}
