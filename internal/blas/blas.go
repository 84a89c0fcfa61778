// Package blas implements the double-precision BLAS subset the repository
// needs: level-1 vector kernels, level-2 matrix-vector kernels, and the
// level-3 kernels (GEMM, TRSM, TRMM, SYRK) that LAPACK-style factorization
// and the MAGMA-style hybrid routines are built from.
//
// Matrices are column-major with an explicit leading dimension, exactly
// like Fortran BLAS: element (i,j) of an m×n matrix stored in a with
// leading dimension lda >= m lives at a[i+j*lda]. All routines follow the
// reference-BLAS semantics, including alpha/beta scaling and the beta==0
// "C need not be initialized" rule.
//
// Dgemm, Dgemv and the right-side Dtrmm/Dtrsm sweeps run on the
// register-tiled kernels in tile.go, Dger on a contiguous path and Dtrmv
// on four-row tiles, under one rule: every output element receives
// exactly the IEEE operations of the textbook one-element-at-a-time loop,
// in the same order. The k (or l) order of the additions is kept, alpha·b
// is formed as that loop forms it, and a zero multiplier is skipped as
// reference BLAS skips it, so a zero in B stays zero opposite an Inf or
// NaN in A. Every factorization built on these kernels is therefore bit
// for bit the loops' on a given architecture.
//
// The code is pure Go plus SSE2 kernels on amd64: the tiles' inner loops
// (tile_amd64.s) multiply and add two lanes a register with separate
// MULPD and ADDPD, never fused, in the Go loops' order, so they give the
// Go loops' bits. SSE2 is part of every amd64 CPU, so nothing is detected
// at run time. The purego build tag selects the Go loops
// (tile_generic.go), which every other architecture runs.
package blas

import "math"

// Transpose selects op(X) = X or Xᵀ.
type Transpose bool

// Transpose values.
const (
	NoTrans Transpose = false
	Trans   Transpose = true
)

// Side selects whether the triangular matrix appears on the left or right.
type Side uint8

// Side values.
const (
	Left Side = iota
	Right
)

// UpLo selects the triangle of a symmetric/triangular matrix.
type UpLo uint8

// UpLo values.
const (
	Upper UpLo = iota
	Lower
)

// Diag declares whether a triangular matrix has a unit diagonal.
type Diag uint8

// Diag values.
const (
	NonUnit Diag = iota
	Unit
)

// ---------- Level 1 ----------

// Dscal computes x *= alpha over n elements with stride incX.
func Dscal(n int, alpha float64, x []float64, incX int) {
	if n <= 0 {
		return
	}
	for i, ix := 0, 0; i < n; i, ix = i+1, ix+incX {
		x[ix] *= alpha
	}
}

// Ddot returns xᵀy over n elements.
func Ddot(n int, x []float64, incX int, y []float64, incY int) float64 {
	var s float64
	for i, ix, iy := 0, 0, 0; i < n; i, ix, iy = i+1, ix+incX, iy+incY {
		s += x[ix] * y[iy]
	}
	return s
}

// Dnrm2 returns the Euclidean norm of x, guarding against overflow the
// way reference BLAS does (scaled sum of squares). As in LAPACK 3.10's
// dnrm2, an infinite element makes the norm +Inf and a NaN makes it NaN.
func Dnrm2(n int, x []float64, incX int) float64 {
	if n < 1 {
		return 0
	}
	if n == 1 {
		return math.Abs(x[0])
	}
	scale, ssq, inf := 0.0, 1.0, false
	for i, ix := 0, 0; i < n; i, ix = i+1, ix+incX {
		if x[ix] == 0 {
			continue
		}
		ax := math.Abs(x[ix])
		if math.IsInf(ax, 1) {
			inf = true // scaling by it would make Inf/Inf
			continue
		}
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	norm := scale * math.Sqrt(ssq)
	if inf && !math.IsNaN(norm) {
		return math.Inf(1)
	}
	return norm
}

// Idamax returns the index of the element of maximum absolute value, or
// -1 for n <= 0.
func Idamax(n int, x []float64, incX int) int {
	if n <= 0 {
		return -1
	}
	best, bestIdx := math.Abs(x[0]), 0
	for i, ix := 1, incX; i < n; i, ix = i+1, ix+incX {
		if a := math.Abs(x[ix]); a > best {
			best, bestIdx = a, i
		}
	}
	return bestIdx
}

// Dswap exchanges two vectors.
func Dswap(n int, x []float64, incX int, y []float64, incY int) {
	for i, ix, iy := 0, 0, 0; i < n; i, ix, iy = i+1, ix+incX, iy+incY {
		x[ix], y[iy] = y[iy], x[ix]
	}
}

// Dcopy copies x into y.
func Dcopy(n int, x []float64, incX int, y []float64, incY int) {
	for i, ix, iy := 0, 0, 0; i < n; i, ix, iy = i+1, ix+incX, iy+incY {
		y[iy] = x[ix]
	}
}

// ---------- Level 2 ----------

// Dgemv computes y = alpha*op(A)*x + beta*y for an m×n matrix A.
func Dgemv(trans Transpose, m, n int, alpha float64, a []float64, lda int, x []float64, incX int, beta float64, y []float64, incY int) {
	lenY := m
	if trans == Trans {
		lenY = n
	}
	if beta != 1 {
		for i, iy := 0, 0; i < lenY; i, iy = i+1, iy+incY {
			if beta == 0 {
				y[iy] = 0
			} else {
				y[iy] *= beta
			}
		}
	}
	if alpha == 0 || m == 0 || n == 0 {
		return
	}
	if trans == Trans {
		dotCols(n, m, alpha, a, lda, x, incX, y, incY)
		return
	}
	if incY != 1 {
		// y += alpha * A x, column sweep over a strided y.
		for j, jx := 0, 0; j < n; j, jx = j+1, jx+incX {
			ajx := alpha * x[jx]
			if ajx == 0 {
				continue
			}
			col := a[j*lda : j*lda+m]
			for i, iy := 0, 0; i < m; i, iy = i+1, iy+incY {
				y[iy] += ajx * col[i]
			}
		}
		return
	}
	var ch chain
	y = y[:m]
	for j, jx := 0, 0; j < n; j, jx = j+1, jx+incX {
		ch.add(alpha*x[jx], j*lda, y, a)
	}
	ch.flush(y, a)
}

// Dger computes A += alpha * x yᵀ for an m×n matrix A.
func Dger(m, n int, alpha float64, x []float64, incX int, y []float64, incY int, a []float64, lda int) {
	if alpha == 0 {
		return
	}
	if incX == 1 {
		// Contiguous x: each column is one axpy1.
		x = x[:m]
		for j, jy := 0, 0; j < n; j, jy = j+1, jy+incY {
			if ay := alpha * y[jy]; ay != 0 {
				axpy1(a[j*lda:][:m], x, ay)
			}
		}
		return
	}
	for j, jy := 0, 0; j < n; j, jy = j+1, jy+incY {
		ay := alpha * y[jy]
		if ay == 0 {
			continue
		}
		col := a[j*lda : j*lda+m]
		for i, ix := 0, 0; i < m; i, ix = i+1, ix+incX {
			col[i] += ay * x[ix]
		}
	}
}

// Dtrmv computes x = op(A)*x for an n×n triangular matrix A. Row i of
// the product is its diagonal term, then op(A)[i,j]·x[j] added in j
// order, rows taken in the order that reads each x[j] before it is
// overwritten. Four rows go at once: the columns all four rows share are
// one rows4 pass (op(A)[i:i+4, j] is contiguous in column j when A is not
// transposed), the triangle at the tile's corner one row at a time.
func Dtrmv(uplo UpLo, trans Transpose, diag Diag, n int, a []float64, lda int, x []float64, incX int) {
	// op(A)[i,j] is a[i*ri+j*rj].
	ri, rj := 1, lda
	if trans == Trans {
		ri, rj = lda, 1
	}
	first := func(i int) float64 {
		if diag == Unit {
			return x[i*incX]
		}
		return a[i+i*lda] * x[i*incX]
	}
	// row adds op(A)[i,j]·x[j] to s for j in [from, to).
	row := func(s float64, i, from, to int) float64 {
		for j := from; j < to; j++ {
			s += a[i*ri+j*rj] * x[j*incX]
		}
		return s
	}
	var s [4]float64
	if (uplo == Upper) == (trans == NoTrans) {
		// Row i sums j > i: rows in ascending order, the corner first.
		i := 0
		for ; i+4 <= n; i += 4 {
			for r := range s {
				s[r] = row(first(i+r), i+r, i+r+1, i+4)
			}
			rows4(&s, a[i*ri:], ri, rj, i+4, n, x, incX)
			for r, sr := range s {
				x[(i+r)*incX] = sr
			}
		}
		for ; i < n; i++ {
			x[i*incX] = row(first(i), i, i+1, n)
		}
		return
	}
	// Row i sums j < i: rows in descending order, the corner last.
	i := n - 4
	for ; i >= 0; i -= 4 {
		for r := range s {
			s[r] = first(i + r)
		}
		rows4(&s, a[i*ri:], ri, rj, 0, i, x, incX)
		for r := range s {
			s[r] = row(s[r], i+r, i, i+r)
		}
		for r, sr := range s {
			x[(i+r)*incX] = sr
		}
	}
	for i += 3; i >= 0; i-- {
		x[i*incX] = row(first(i), i, 0, i)
	}
}

// rows4 adds a[r*ri+j*rj]·x[j*incX] to s[r] for r < 4 and j in [from, to),
// each in j order.
func rows4(s *[4]float64, a []float64, ri, rj, from, to int, x []float64, incX int) {
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	for j := from; j < to; j++ {
		c, xj := a[j*rj:], x[j*incX]
		s0 += c[0] * xj
		s1 += c[ri] * xj
		s2 += c[2*ri] * xj
		s3 += c[3*ri] * xj
	}
	s[0], s[1], s[2], s[3] = s0, s1, s2, s3
}

// Dtrsv solves op(A) x = b in place for an n×n triangular A.
func Dtrsv(uplo UpLo, trans Transpose, diag Diag, n int, a []float64, lda int, x []float64, incX int) {
	if n == 0 {
		return
	}
	unit := diag == Unit
	if trans == NoTrans {
		if uplo == Lower {
			for i := 0; i < n; i++ {
				s := x[i*incX]
				for j := 0; j < i; j++ {
					s -= a[i+j*lda] * x[j*incX]
				}
				if !unit {
					s /= a[i+i*lda]
				}
				x[i*incX] = s
			}
		} else {
			for i := n - 1; i >= 0; i-- {
				s := x[i*incX]
				for j := i + 1; j < n; j++ {
					s -= a[i+j*lda] * x[j*incX]
				}
				if !unit {
					s /= a[i+i*lda]
				}
				x[i*incX] = s
			}
		}
		return
	}
	// opposite sweep for the transposed system
	if uplo == Lower {
		for i := n - 1; i >= 0; i-- {
			s := x[i*incX]
			for j := i + 1; j < n; j++ {
				s -= a[j+i*lda] * x[j*incX]
			}
			if !unit {
				s /= a[i+i*lda]
			}
			x[i*incX] = s
		}
	} else {
		for i := 0; i < n; i++ {
			s := x[i*incX]
			for j := 0; j < i; j++ {
				s -= a[j+i*lda] * x[j*incX]
			}
			if !unit {
				s /= a[i+i*lda]
			}
			x[i*incX] = s
		}
	}
}
