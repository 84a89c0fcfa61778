package blas

// Daxpy computes y += alpha*x over n elements with strides incX, incY. No
// kernel calls it; the oracle's reference solves do.
func Daxpy(n int, alpha float64, x []float64, incX int, y []float64, incY int) {
	if n <= 0 || alpha == 0 {
		return
	}
	if incX == 1 && incY == 1 {
		for i := 0; i < n; i++ {
			y[i] += alpha * x[i]
		}
		return
	}
	ix, iy := 0, 0
	for i := 0; i < n; i++ {
		y[iy] += alpha * x[ix]
		ix += incX
		iy += incY
	}
}
