//go:build !amd64 || purego

package blas

// axpy4 sets y[i] = y[i] + m0·x0[i] + m1·x1[i] + m2·x2[i] + m3·x3[i],
// evaluated left to right.
func axpy4(y, x0, x1, x2, x3 []float64, m0, m1, m2, m3 float64) {
	n := len(y)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	for i := range y {
		y[i] = y[i] + m0*x0[i] + m1*x1[i] + m2*x2[i] + m3*x3[i]
	}
}

// axpy1 adds m·x[i] to y[i].
func axpy1(y, x []float64, m float64) {
	x = x[:len(y)]
	for i := range y {
		y[i] += m * x[i]
	}
}

// dot8 sets s[c] to the dot product of a[c*lda:][:len(x)] and x for c < 8.
func dot8(s *[8]float64, a []float64, lda int, x []float64) {
	dot4((*[4]float64)(s[:4]), a, lda, x)
	dot4((*[4]float64)(s[4:]), a[4*lda:], lda, x)
}
