package lapack

// Helpers only the tests call: Dorgqr forms Q to check a QR factor.

// Dlacpy copies the m×n matrix a into b.
func Dlacpy(m, n int, a []float64, lda int, b []float64, ldb int) {
	for j := 0; j < n; j++ {
		copy(b[j*ldb:j*ldb+m], a[j*lda:j*lda+m])
	}
}

// Dlaset sets the off-diagonal elements of the m×n matrix a to alpha and
// the diagonal to beta.
func Dlaset(m, n int, alpha, beta float64, a []float64, lda int) {
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			if i == j {
				a[i+j*lda] = beta
			} else {
				a[i+j*lda] = alpha
			}
		}
	}
}

// Dorgqr overwrites the m×n matrix a (as produced by Dgeqrf, n <= m) with
// the first n columns of the orthogonal factor Q defined by the first k
// reflectors.
func Dorgqr(m, n, k int, a []float64, lda int, tau []float64) {
	if n == 0 {
		return
	}
	// Start from the identity in the trailing columns and apply
	// H(k-1)...H(0) to it.
	q := make([]float64, m*n)
	ldq := m
	Dlaset(m, n, 0, 1, q, ldq)
	work := make([]float64, n)
	v := make([]float64, m)
	for j := k - 1; j >= 0; j-- {
		// Build v from column j of a.
		for i := 0; i < m; i++ {
			switch {
			case i < j:
				v[i] = 0
			case i == j:
				v[i] = 1
			default:
				v[i] = a[i+j*lda]
			}
		}
		Dlarf(m, n, v, 1, tau[j], q, ldq, work)
	}
	Dlacpy(m, n, q, ldq, a, lda)
}
