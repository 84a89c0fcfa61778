// Package lapack implements the LAPACK routines the repository's
// factorizations are built from: Householder reflector machinery (dlarfg,
// dlarf, dlarft, dlarfb), unblocked and blocked QR (dgeqr2, dgeqrf),
// explicit-Q generation (dorgqr), unblocked and blocked Cholesky (dpotf2,
// dpotrf), and utility routines (dlange, dlacpy, dlaset).
//
// Matrices are column-major with explicit leading dimensions, matching
// the blas package. Blocked routines follow the LAPACK right-looking
// algorithms that the paper's MAGMA 1.1 routines are derived from, so the
// hybrid CPU/GPU versions in internal/magma share their structure (and
// are tested against these as the reference).
package lapack

import (
	"fmt"
	"math"

	"dynacc/internal/blas"
)

// Norm selects the matrix norm computed by Dlange.
type Norm byte

// Norm kinds.
const (
	MaxAbs    Norm = 'M'
	OneNorm   Norm = 'O'
	InfNorm   Norm = 'I'
	Frobenius Norm = 'F'
)

// Dlange returns the selected norm of the m×n matrix a.
func Dlange(norm Norm, m, n int, a []float64, lda int) float64 {
	if m == 0 || n == 0 {
		return 0
	}
	switch norm {
	case MaxAbs:
		v := 0.0
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				if x := math.Abs(a[i+j*lda]); x > v {
					v = x
				}
			}
		}
		return v
	case OneNorm:
		v := 0.0
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < m; i++ {
				s += math.Abs(a[i+j*lda])
			}
			if s > v {
				v = s
			}
		}
		return v
	case InfNorm:
		rows := make([]float64, m)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				rows[i] += math.Abs(a[i+j*lda])
			}
		}
		v := 0.0
		for _, s := range rows {
			if s > v {
				v = s
			}
		}
		return v
	case Frobenius:
		var s float64
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				x := a[i+j*lda]
				s += x * x
			}
		}
		return math.Sqrt(s)
	default:
		panic(fmt.Sprintf("lapack: unknown norm %q", norm))
	}
}

// Dlarfg generates an elementary Householder reflector H = I - tau*v*vᵀ
// with v = [1; x'] such that H*[alpha; x] = [beta; 0]. On return x holds
// the reflector tail v[1:], and the function returns (beta, tau).
func Dlarfg(n int, alpha float64, x []float64, incX int) (beta, tau float64) {
	if n <= 1 {
		return alpha, 0
	}
	xnorm := blas.Dnrm2(n-1, x, incX)
	if xnorm == 0 {
		return alpha, 0
	}
	beta = -math.Copysign(math.Hypot(alpha, xnorm), alpha)
	tau = (beta - alpha) / beta
	blas.Dscal(n-1, 1/(alpha-beta), x, incX)
	return beta, tau
}

// Dlarf applies the reflector H = I - tau*v*vᵀ from the left to the m×n
// matrix c: C = H*C. v has m elements (v[0] is typically 1).
func Dlarf(m, n int, v []float64, incV int, tau float64, c []float64, ldc int, work []float64) {
	if tau == 0 {
		return
	}
	// work = Cᵀ v  (n)
	blas.Dgemv(blas.Trans, m, n, 1, c, ldc, v, incV, 0, work, 1)
	// C -= tau * v workᵀ
	blas.Dger(m, n, -tau, v, incV, work, 1, c, ldc)
}

// Dgeqr2 computes an unblocked QR factorization of the m×n matrix a. On
// return the upper triangle holds R, the lower trapezoid the reflector
// tails, and tau the reflector scales (len >= min(m,n)). work holds at
// least n entries.
func Dgeqr2(m, n int, a []float64, lda int, tau []float64, work []float64) {
	k := min(m, n)
	for j := 0; j < k; j++ {
		var beta float64
		beta, tau[j] = Dlarfg(m-j, a[j+j*lda], a[j+1+j*lda:], 1)
		a[j+j*lda] = beta
		if j < n-1 && tau[j] != 0 {
			ajj := a[j+j*lda]
			a[j+j*lda] = 1
			Dlarf(m-j, n-j-1, a[j+j*lda:], 1, tau[j], a[j+(j+1)*lda:], lda, work)
			a[j+j*lda] = ajj
		}
	}
}

// Dlarft forms the upper-triangular factor T of the block reflector
// H = I - V*T*Vᵀ from k forward, columnwise-stored reflectors in the n×k
// matrix v (unit lower trapezoidal) and their tau values.
func Dlarft(n, k int, v []float64, ldv int, tau []float64, t []float64, ldt int) {
	for i := 0; i < k; i++ {
		if tau[i] == 0 {
			for j := 0; j < i; j++ {
				t[j+i*ldt] = 0
			}
			t[i+i*ldt] = 0
			continue
		}
		vii := v[i+i*ldv]
		v[i+i*ldv] = 1
		// T[0:i, i] = -tau[i] * V[i:n, 0:i]ᵀ * V[i:n, i]
		blas.Dgemv(blas.Trans, n-i, i, -tau[i], v[i:], ldv, v[i+i*ldv:], 1, 0, t[i*ldt:], 1)
		v[i+i*ldv] = vii
		// T[0:i, i] = T[0:i, 0:i] * T[0:i, i]
		blas.Dtrmv(blas.Upper, blas.NoTrans, blas.NonUnit, i, t, ldt, t[i*ldt:], 1)
		t[i+i*ldt] = tau[i]
	}
}

// Dlarfb applies the block reflector H (or Hᵀ when trans) from the left
// to the m×n matrix c. V is m×k forward/columnwise as produced by Dgeqrf;
// t is the k×k triangular factor from Dlarft. work holds at least n*k
// entries.
func Dlarfb(trans blas.Transpose, m, n, k int, v []float64, ldv int, t []float64, ldt int, c []float64, ldc int, work []float64) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	// W = C1ᵀ V1 + C2ᵀ V2  (n×k)
	w, ldw := work[:n*k], n
	// W = C1ᵀ (n×k)
	for j := 0; j < k; j++ {
		blas.Dcopy(n, c[j:], ldc, w[j*ldw:], 1)
	}
	// W = W * V1 (V1 unit lower triangular k×k)
	blas.Dtrmm(blas.Right, blas.Lower, blas.NoTrans, blas.Unit, n, k, 1, v, ldv, w, ldw)
	if m > k {
		// W += C2ᵀ V2
		blas.Dgemm(blas.Trans, blas.NoTrans, n, k, m-k, 1, c[k:], ldc, v[k:], ldv, 1, w, ldw)
	}
	// W = W * Tᵀ (H*C) or W * T (Hᵀ*C)
	tt := blas.Trans
	if trans == blas.Trans {
		tt = blas.NoTrans
	}
	blas.Dtrmm(blas.Right, blas.Upper, tt, blas.NonUnit, n, k, 1, t, ldt, w, ldw)
	// C2 -= V2 * Wᵀ
	if m > k {
		blas.Dgemm(blas.NoTrans, blas.Trans, m-k, n, k, -1, v[k:], ldv, w, ldw, 1, c[k:], ldc)
	}
	// W = W * V1ᵀ
	blas.Dtrmm(blas.Right, blas.Lower, blas.Trans, blas.Unit, n, k, 1, v, ldv, w, ldw)
	// C1 -= Wᵀ
	for j := 0; j < k; j++ {
		for i := 0; i < n; i++ {
			c[j+i*ldc] -= w[i+j*ldw]
		}
	}
}

// DefaultBlock is the blocking factor used by the blocked routines when
// the caller passes nb <= 0 (LAPACK's typical DGEQRF block).
const DefaultBlock = 32

// Dgeqrf computes a blocked QR factorization of the m×n matrix a with
// block size nb, storing R in the upper triangle, the reflectors below
// the diagonal, and the scales in tau (len >= min(m,n)). It allocates its
// workspace once; DgeqrfWork runs in the caller's.
func Dgeqrf(m, n int, a []float64, lda int, tau []float64, nb int) {
	if nb <= 0 {
		nb = DefaultBlock
	}
	DgeqrfWork(m, n, a, lda, tau, nb, make([]float64, nb*(n+nb)))
}

// DgeqrfWork is Dgeqrf with block size nb > 0 in a caller-provided
// workspace of at least nb*(n+nb) entries, as LAPACK's WORK argument: T,
// then the panel's and the trailing update's scratch.
func DgeqrfWork(m, n int, a []float64, lda int, tau []float64, nb int, work []float64) {
	k := min(m, n)
	t, w := work[:nb*nb], work[nb*nb:]
	for j := 0; j < k; j += nb {
		jb := min(nb, k-j)
		// Factor the panel A[j:m, j:j+jb].
		Dgeqr2(m-j, jb, a[j+j*lda:], lda, tau[j:], w)
		if j+jb < n {
			// Form T and apply Hᵀ to the trailing matrix.
			Dlarft(m-j, jb, a[j+j*lda:], lda, tau[j:], t, nb)
			Dlarfb(blas.Trans, m-j, n-j-jb, jb, a[j+j*lda:], lda, t, nb, a[j+(j+jb)*lda:], lda, w)
		}
	}
}

// PositiveDefiniteError reports a non-positive pivot during Cholesky, as
// LAPACK's info > 0 does.
type PositiveDefiniteError struct{ Pivot int }

func (e *PositiveDefiniteError) Error() string {
	return fmt.Sprintf("lapack: matrix is not positive definite (pivot %d)", e.Pivot)
}

// Dpotf2 computes an unblocked lower Cholesky factorization A = L*Lᵀ of
// the n×n symmetric positive definite matrix a (lower triangle
// referenced).
func Dpotf2(n int, a []float64, lda int) error {
	for j := 0; j < n; j++ {
		// A[j,j] -= dot(A[j, 0:j], A[j, 0:j])
		ajj := a[j+j*lda] - blas.Ddot(j, a[j:], lda, a[j:], lda)
		if ajj <= 0 || math.IsNaN(ajj) {
			return &PositiveDefiniteError{Pivot: j}
		}
		ajj = math.Sqrt(ajj)
		a[j+j*lda] = ajj
		if j < n-1 {
			// A[j+1:, j] = (A[j+1:, j] - A[j+1:, 0:j] * A[j, 0:j]ᵀ) / ajj
			blas.Dgemv(blas.NoTrans, n-j-1, j, -1, a[j+1:], lda, a[j:], lda, 1, a[j+1+j*lda:], 1)
			blas.Dscal(n-j-1, 1/ajj, a[j+1+j*lda:], 1)
		}
	}
	return nil
}

// Dpotrf computes a blocked lower Cholesky factorization with block size
// nb (right-looking, the structure MAGMA's dpotrf follows).
func Dpotrf(n int, a []float64, lda int, nb int) error {
	if nb <= 0 {
		nb = DefaultBlock
	}
	for j := 0; j < n; j += nb {
		jb := min(nb, n-j)
		if err := Dpotf2(jb, a[j+j*lda:], lda); err != nil {
			pe := err.(*PositiveDefiniteError)
			return &PositiveDefiniteError{Pivot: pe.Pivot + j}
		}
		if j+jb < n {
			// A21 = A21 * L11⁻ᵀ
			blas.Dtrsm(blas.Right, blas.Lower, blas.Trans, blas.NonUnit,
				n-j-jb, jb, 1, a[j+j*lda:], lda, a[j+jb+j*lda:], lda)
			// A22 -= A21 * A21ᵀ
			blas.Dsyrk(blas.Lower, blas.NoTrans, n-j-jb, jb, -1,
				a[j+jb+j*lda:], lda, 1, a[j+jb+(j+jb)*lda:], lda)
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
