package blas

// Dgemm computes C = alpha*op(A)*op(B) + beta*C, with op(A) m×k, op(B)
// k×n, and C m×n. C is scaled by beta first. With op(A) = A, column j of C
// is one axpy chain over the columns of A, multipliers alpha*op(B)[l,j] in
// l order, a zero one skipped. With op(A) = Aᵀ, C[i,j] += alpha·s with s
// the dot product of A[:,i] and op(B)[:,j] accumulated in l order, four
// rows of C at a time when B is not transposed. The result is bit for bit
// the textbook loops' (see the package doc).
func Dgemm(transA, transB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	if m == 0 || n == 0 {
		return
	}
	// Scale C first.
	for j := 0; j < n; j++ {
		col := c[j*ldc : j*ldc+m]
		if beta == 0 {
			for i := range col {
				col[i] = 0
			}
		} else if beta != 1 {
			for i := range col {
				col[i] *= beta
			}
		}
	}
	if alpha == 0 || k == 0 {
		return
	}
	// op(B)[l,j] is b[l*bl+j*bj].
	bl, bj := 1, ldb
	if transB == Trans {
		bl, bj = ldb, 1
	}
	if transA == Trans {
		for j := 0; j < n; j++ {
			dotCols(m, k, alpha, a, lda, b[j*bj:], bl, c[j*ldc:], 1)
		}
		return
	}
	var ch chain
	for j := 0; j < n; j++ {
		y := c[j*ldc : j*ldc+m]
		for l := 0; l < k; l++ {
			ch.add(alpha*b[l*bl+j*bj], l*lda, y, a)
		}
		ch.flush(y, a)
	}
}

// Dsyrk computes the symmetric rank-k update C = alpha*op(A)*op(A)ᵀ +
// beta*C, touching only the uplo triangle of the n×n matrix C. With
// trans == NoTrans, A is n×k; with Trans, A is k×n.
func Dsyrk(uplo UpLo, trans Transpose, n, k int, alpha float64, a []float64, lda int, beta float64, c []float64, ldc int) {
	if n == 0 {
		return
	}
	inTriangle := func(i, j int) bool {
		if uplo == Upper {
			return i <= j
		}
		return i >= j
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if !inTriangle(i, j) {
				continue
			}
			if beta == 0 {
				c[i+j*ldc] = 0
			} else if beta != 1 {
				c[i+j*ldc] *= beta
			}
		}
	}
	if alpha == 0 || k == 0 {
		return
	}
	if trans == NoTrans {
		// C[i,j] += alpha * dot(A[i,:], A[j,:])
		for j := 0; j < n; j++ {
			for l := 0; l < k; l++ {
				ajl := alpha * a[j+l*lda]
				if ajl == 0 {
					continue
				}
				acol := a[l*lda:]
				if uplo == Upper {
					ccol := c[j*ldc:]
					for i := 0; i <= j; i++ {
						ccol[i] += ajl * acol[i]
					}
				} else {
					ccol := c[j*ldc:]
					for i := j; i < n; i++ {
						ccol[i] += ajl * acol[i]
					}
				}
			}
		}
		return
	}
	// trans == Trans: C[i,j] += alpha * dot(A[:,i], A[:,j])
	for j := 0; j < n; j++ {
		lo, hi := 0, j+1
		if uplo == Lower {
			lo, hi = j, n
		}
		acolj := a[j*lda : j*lda+k]
		for i := lo; i < hi; i++ {
			acoli := a[i*lda : i*lda+k]
			var s float64
			for l := 0; l < k; l++ {
				s += acoli[l] * acolj[l]
			}
			c[i+j*ldc] += alpha * s
		}
	}
}

// Dtrsm solves op(A)*X = alpha*B (side == Left) or X*op(A) = alpha*B
// (side == Right) for X, overwriting the m×n matrix B. A is triangular of
// order m (Left) or n (Right). With alpha == 0, B is set to zero and
// neither A nor B is read.
func Dtrsm(side Side, uplo UpLo, transA Transpose, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	if m == 0 || n == 0 {
		return
	}
	if alpha == 0 {
		zero(m, n, b, ldb)
		return
	}
	if alpha != 1 {
		for j := 0; j < n; j++ {
			col := b[j*ldb : j*ldb+m]
			for i := range col {
				col[i] *= alpha
			}
		}
	}
	if side == Left {
		// Solve op(A) X = B column by column.
		for j := 0; j < n; j++ {
			Dtrsv(uplo, transA, diag, m, a, lda, b[j*ldb:j*ldb+m], 1)
		}
		return
	}
	// side == Right: X op(A) = B, column j of X at a time: once the
	// columns it depends on are final, column j is one axpy chain over
	// them, multipliers -op(A)[l,j], then scaled by 1/A[j,j]. The
	// transposed cases are the same chains the right-looking sweep
	// (scale column j, subtract it from every later column) applies to
	// each column, in the same order.
	unit := diag == Unit
	var ch chain
	solve := func(j, from, to, step int) {
		y := b[j*ldb : j*ldb+m]
		for l := from; l != to; l += step {
			if transA == NoTrans {
				ch.add(-a[l+j*lda], l*ldb, y, b)
			} else {
				ch.add(-a[j+l*lda], l*ldb, y, b)
			}
		}
		ch.flush(y, b)
		if !unit {
			Dscal(m, 1/a[j+j*lda], y, 1)
		}
	}
	switch {
	case transA == NoTrans && uplo == Upper:
		for j := 0; j < n; j++ {
			solve(j, 0, j, 1)
		}
	case transA == NoTrans:
		for j := n - 1; j >= 0; j-- {
			solve(j, j+1, n, 1)
		}
	case uplo == Upper: // X Aᵀ = B
		for j := n - 1; j >= 0; j-- {
			solve(j, n-1, j, -1)
		}
	default:
		for j := 0; j < n; j++ {
			solve(j, 0, j, 1)
		}
	}
}

// Dtrmm computes B = alpha*op(A)*B (side == Left) or B = alpha*B*op(A)
// (side == Right) for triangular A, overwriting the m×n matrix B. With
// alpha == 0, B is set to zero and neither A nor B is read.
func Dtrmm(side Side, uplo UpLo, transA Transpose, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	if m == 0 || n == 0 {
		return
	}
	if alpha == 0 {
		zero(m, n, b, ldb)
		return
	}
	if side == Left {
		for j := 0; j < n; j++ {
			Dtrmv(uplo, transA, diag, m, a, lda, b[j*ldb:j*ldb+m], 1)
		}
	} else {
		// B = B * op(A): column j becomes op(A)[j,j]·B[:,j] plus one axpy
		// chain over the columns l it depends on, multipliers op(A)[l,j],
		// taken in an order that reads each of them before it is
		// overwritten.
		unit := diag == Unit
		var ch chain
		mul := func(j, from, to int) {
			y := b[j*ldb : j*ldb+m]
			var djj float64 = 1
			if !unit {
				djj = a[j+j*lda]
			}
			Dscal(m, djj, y, 1)
			for l := from; l < to; l++ {
				if transA == NoTrans {
					ch.add(a[l+j*lda], l*ldb, y, b)
				} else {
					ch.add(a[j+l*lda], l*ldb, y, b)
				}
			}
			ch.flush(y, b)
		}
		if (uplo == Upper) == (transA == NoTrans) {
			// effective upper: column j depends on columns l < j.
			for j := n - 1; j >= 0; j-- {
				mul(j, 0, j)
			}
		} else {
			for j := 0; j < n; j++ {
				mul(j, j+1, n)
			}
		}
	}
	if alpha != 1 {
		for j := 0; j < n; j++ {
			Dscal(m, alpha, b[j*ldb:j*ldb+m], 1)
		}
	}
}

// zero sets the m×n matrix b to zero.
func zero(m, n int, b []float64, ldb int) {
	for j := 0; j < n; j++ {
		clear(b[j*ldb : j*ldb+m])
	}
}
