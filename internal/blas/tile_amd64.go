//go:build !purego

package blas

// The kernels in tile_amd64.s. Each reads len(y) (axpy) or len(x) (dot8)
// elements of every operand; the callers' slicing checks the bounds.

//go:noescape
func axpy4(y, x0, x1, x2, x3 []float64, m0, m1, m2, m3 float64)

//go:noescape
func axpy1(y, x []float64, m float64)

//go:noescape
func dot8(s *[8]float64, a []float64, lda int, x []float64)
