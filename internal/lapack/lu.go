package lapack

import (
	"fmt"

	"dynacc/internal/blas"
)

// SingularError reports an exactly-zero pivot during LU factorization
// (LAPACK's info > 0).
type SingularError struct{ Pivot int }

func (e *SingularError) Error() string {
	return fmt.Sprintf("lapack: matrix is singular (zero pivot at column %d)", e.Pivot)
}

// Dlaswp applies the row interchanges recorded in ipiv[k1:k2] to the
// columns [0, n) of a (leading dimension lda): row i is swapped with row
// ipiv[i], in forward order — exactly LAPACK's dlaswp with incx = 1.
func Dlaswp(n int, a []float64, lda int, k1, k2 int, ipiv []int) {
	for i := k1; i < k2; i++ {
		p := ipiv[i]
		if p == i {
			continue
		}
		blas.Dswap(n, a[i:], lda, a[p:], lda)
	}
}

// Dgetf2 computes an unblocked LU factorization with partial pivoting of
// the m×n matrix a: A = P*L*U with unit lower L. ipiv (len >= min(m,n))
// records, LAPACK style, the row each position was swapped with.
func Dgetf2(m, n int, a []float64, lda int, ipiv []int) error {
	k := min(m, n)
	for j := 0; j < k; j++ {
		// Pivot: largest magnitude in column j at or below the diagonal.
		p := j + blas.Idamax(m-j, a[j+j*lda:], 1)
		ipiv[j] = p
		if a[p+j*lda] == 0 {
			return &SingularError{Pivot: j}
		}
		if p != j {
			blas.Dswap(n, a[j:], lda, a[p:], lda)
		}
		if j < m-1 {
			blas.Dscal(m-j-1, 1/a[j+j*lda], a[j+1+j*lda:], 1)
			if j < n-1 {
				blas.Dger(m-j-1, n-j-1, -1,
					a[j+1+j*lda:], 1,
					a[j+(j+1)*lda:], lda,
					a[j+1+(j+1)*lda:], lda)
			}
		}
	}
	return nil
}

// Dgetrf computes a blocked LU factorization with partial pivoting
// (right-looking, the structure MAGMA's dgetrf follows). On return a
// holds L (unit lower) and U, and ipiv the pivot rows.
func Dgetrf(m, n int, a []float64, lda int, ipiv []int, nb int) error {
	if nb <= 0 {
		nb = DefaultBlock
	}
	k := min(m, n)
	for j := 0; j < k; j += nb {
		jb := min(nb, k-j)
		// Factor the panel A[j:m, j:j+jb].
		if err := Dgetf2(m-j, jb, a[j+j*lda:], lda, ipiv[j:]); err != nil {
			se := err.(*SingularError)
			return &SingularError{Pivot: se.Pivot + j}
		}
		// Globalize the pivot indices.
		for i := j; i < j+jb; i++ {
			ipiv[i] += j
		}
		// Apply the panel's interchanges to the columns outside it.
		Dlaswp(j, a, lda, j, j+jb, ipiv)
		if j+jb < n {
			Dlaswp(n-j-jb, a[(j+jb)*lda:], lda, j, j+jb, ipiv)
			// U12 = L11⁻¹ * A12
			blas.Dtrsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit,
				jb, n-j-jb, 1, a[j+j*lda:], lda, a[j+(j+jb)*lda:], lda)
			if j+jb < m {
				// A22 -= L21 * U12
				blas.Dgemm(blas.NoTrans, blas.NoTrans, m-j-jb, n-j-jb, jb, -1,
					a[j+jb+j*lda:], lda,
					a[j+(j+jb)*lda:], lda,
					1, a[j+jb+(j+jb)*lda:], lda)
			}
		}
	}
	return nil
}
