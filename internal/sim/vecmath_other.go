//go:build !amd64

package sim

// The vector kernels exist only on amd64; elsewhere the scalar loops run.
const haveAVX2, haveFMA = false, false

func expAVX2(x []float64) int { panic("sim: no exp kernel on this architecture") }

func polarScaleAVX2(u, s []float64) { panic("sim: no polar kernel on this architecture") }
