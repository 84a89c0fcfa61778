package lapack

import (
	"fmt"

	"dynacc/internal/blas"
)

// Dpotrs solves A*X = B for X using the lower Cholesky factor produced by
// Dpotrf (A = L*Lᵀ): two triangular solves over the n×nrhs right-hand
// sides in b.
func Dpotrs(n, nrhs int, a []float64, lda int, b []float64, ldb int) {
	// L y = b, then Lᵀ x = y.
	blas.Dtrsm(blas.Left, blas.Lower, blas.NoTrans, blas.NonUnit, n, nrhs, 1, a, lda, b, ldb)
	blas.Dtrsm(blas.Left, blas.Lower, blas.Trans, blas.NonUnit, n, nrhs, 1, a, lda, b, ldb)
}

// Dormqr applies Q or Qᵀ (from the left) to the m×n matrix c, where Q is
// defined by the k elementary reflectors stored in a (m×k, as produced by
// Dgeqrf) and tau. The block size nb <= DefaultBlock is used for the
// larft/larfb sweep; nb <= 0 selects the default.
func Dormqr(trans blas.Transpose, m, n, k int, a []float64, lda int, tau []float64, c []float64, ldc int, nb int) {
	if k == 0 || m == 0 || n == 0 {
		return
	}
	if nb <= 0 {
		nb = DefaultBlock
	}
	t, work := make([]float64, nb*nb), make([]float64, n*nb)
	// Q = H(0) H(1) ... H(k-1). Applying Qᵀ sweeps blocks forward,
	// applying Q sweeps them backward.
	if trans == blas.Trans {
		for i := 0; i < k; i += nb {
			ib := min(nb, k-i)
			Dlarft(m-i, ib, a[i+i*lda:], lda, tau[i:], t, ib)
			Dlarfb(blas.Trans, m-i, n, ib, a[i+i*lda:], lda, t, ib, c[i:], ldc, work)
		}
		return
	}
	start := ((k - 1) / nb) * nb
	for i := start; i >= 0; i -= nb {
		ib := min(nb, k-i)
		Dlarft(m-i, ib, a[i+i*lda:], lda, tau[i:], t, ib)
		Dlarfb(blas.NoTrans, m-i, n, ib, a[i+i*lda:], lda, t, ib, c[i:], ldc, work)
	}
}

// Dgels solves the overdetermined least-squares problem min ||A*x - b||₂
// for an m×n matrix A with m >= n, destroying a and b: QR-factorize A,
// apply Qᵀ to the right-hand sides, and back-substitute with R. The
// solutions overwrite the leading n rows of b (m×nrhs, leading dimension
// ldb).
func Dgels(m, n, nrhs int, a []float64, lda int, b []float64, ldb int) error {
	if m < n {
		return fmt.Errorf("lapack: Dgels requires m >= n, got %dx%d", m, n)
	}
	if n == 0 {
		return nil
	}
	tau := make([]float64, n)
	Dgeqrf(m, n, a, lda, tau, 0)
	// b := Qᵀ b
	Dormqr(blas.Trans, m, nrhs, n, a, lda, tau, b, ldb, 0)
	// Check R for exact singularity before the solve.
	for j := 0; j < n; j++ {
		if a[j+j*lda] == 0 {
			return fmt.Errorf("lapack: Dgels: R is singular at column %d", j)
		}
	}
	// x := R⁻¹ b (leading n rows)
	blas.Dtrsm(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, n, nrhs, 1, a, lda, b, ldb)
	return nil
}
