package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The ref* functions are the package's textbook one-element-at-a-time
// loops, kept as the oracle the tiled kernels must match bit for bit:
// every output element receives the same IEEE operations in the same
// order, so Inf, NaN and a zero multiplier opposite either come out the
// same too (up to the NaN payload; see sameBits).

func refDgemm(transA, transB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	if m == 0 || n == 0 {
		return
	}
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
	switch {
	case transA == NoTrans && transB == NoTrans:
		for j := 0; j < n; j++ {
			ccol := c[j*ldc : j*ldc+m]
			for l := 0; l < k; l++ {
				blj := alpha * b[l+j*ldb]
				if blj == 0 {
					continue
				}
				acol := a[l*lda : l*lda+m]
				for i := range ccol {
					ccol[i] += blj * acol[i]
				}
			}
		}
	case transA == Trans && transB == NoTrans:
		for j := 0; j < n; j++ {
			ccol := c[j*ldc : j*ldc+m]
			bcol := b[j*ldb : j*ldb+k]
			for i := 0; i < m; i++ {
				acol := a[i*lda : i*lda+k]
				var s float64
				for l := 0; l < k; l++ {
					s += acol[l] * bcol[l]
				}
				ccol[i] += alpha * s
			}
		}
	case transA == NoTrans && transB == Trans:
		for j := 0; j < n; j++ {
			ccol := c[j*ldc : j*ldc+m]
			for l := 0; l < k; l++ {
				bjl := alpha * b[j+l*ldb]
				if bjl == 0 {
					continue
				}
				acol := a[l*lda : l*lda+m]
				for i := range ccol {
					ccol[i] += bjl * acol[i]
				}
			}
		}
	default:
		for j := 0; j < n; j++ {
			ccol := c[j*ldc : j*ldc+m]
			for i := 0; i < m; i++ {
				acol := a[i*lda : i*lda+k]
				var s float64
				for l := 0; l < k; l++ {
					s += acol[l] * b[j+l*ldb]
				}
				ccol[i] += alpha * s
			}
		}
	}
}

func refDgemv(trans Transpose, m, n int, alpha float64, a []float64, lda int, x []float64, incX int, beta float64, y []float64, incY int) {
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
	if trans == NoTrans {
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
	for j, jy := 0, 0; j < n; j, jy = j+1, jy+incY {
		col := a[j*lda : j*lda+m]
		var s float64
		for i, ix := 0, 0; i < m; i, ix = i+1, ix+incX {
			s += col[i] * x[ix]
		}
		y[jy] += alpha * s
	}
}

func refDger(m, n int, alpha float64, x []float64, incX int, y []float64, incY int, a []float64, lda int) {
	if alpha == 0 {
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

// refDtrsmRight is Dtrsm's side == Right branch as column-at-a-time
// Daxpy and Dscal sweeps.
func refDtrsmRight(uplo UpLo, transA Transpose, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	if m == 0 || n == 0 {
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
	unit := diag == Unit
	if transA == NoTrans {
		if uplo == Upper {
			for j := 0; j < n; j++ {
				for l := 0; l < j; l++ {
					alj := a[l+j*lda]
					if alj != 0 {
						Daxpy(m, -alj, b[l*ldb:l*ldb+m], 1, b[j*ldb:j*ldb+m], 1)
					}
				}
				if !unit {
					Dscal(m, 1/a[j+j*lda], b[j*ldb:j*ldb+m], 1)
				}
			}
		} else {
			for j := n - 1; j >= 0; j-- {
				for l := j + 1; l < n; l++ {
					alj := a[l+j*lda]
					if alj != 0 {
						Daxpy(m, -alj, b[l*ldb:l*ldb+m], 1, b[j*ldb:j*ldb+m], 1)
					}
				}
				if !unit {
					Dscal(m, 1/a[j+j*lda], b[j*ldb:j*ldb+m], 1)
				}
			}
		}
		return
	}
	if uplo == Upper {
		for j := n - 1; j >= 0; j-- {
			if !unit {
				Dscal(m, 1/a[j+j*lda], b[j*ldb:j*ldb+m], 1)
			}
			for l := 0; l < j; l++ {
				ajl := a[l+j*lda]
				if ajl != 0 {
					Daxpy(m, -ajl, b[j*ldb:j*ldb+m], 1, b[l*ldb:l*ldb+m], 1)
				}
			}
		}
	} else {
		for j := 0; j < n; j++ {
			if !unit {
				Dscal(m, 1/a[j+j*lda], b[j*ldb:j*ldb+m], 1)
			}
			for l := j + 1; l < n; l++ {
				ajl := a[l+j*lda]
				if ajl != 0 {
					Daxpy(m, -ajl, b[j*ldb:j*ldb+m], 1, b[l*ldb:l*ldb+m], 1)
				}
			}
		}
	}
}

// refDtrmmRight is Dtrmm's side == Right branch as column-at-a-time
// Daxpy and Dscal sweeps.
func refDtrmmRight(uplo UpLo, transA Transpose, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	if m == 0 || n == 0 {
		return
	}
	unit := diag == Unit
	if (uplo == Upper) == (transA == NoTrans) {
		for j := n - 1; j >= 0; j-- {
			var djj float64 = 1
			if !unit {
				djj = a[j+j*lda]
			}
			Dscal(m, djj, b[j*ldb:j*ldb+m], 1)
			for l := 0; l < j; l++ {
				var alj float64
				if transA == NoTrans {
					alj = a[l+j*lda]
				} else {
					alj = a[j+l*lda]
				}
				if alj != 0 {
					Daxpy(m, alj, b[l*ldb:l*ldb+m], 1, b[j*ldb:j*ldb+m], 1)
				}
			}
		}
	} else {
		for j := 0; j < n; j++ {
			var djj float64 = 1
			if !unit {
				djj = a[j+j*lda]
			}
			Dscal(m, djj, b[j*ldb:j*ldb+m], 1)
			for l := j + 1; l < n; l++ {
				var alj float64
				if transA == NoTrans {
					alj = a[l+j*lda]
				} else {
					alj = a[j+l*lda]
				}
				if alj != 0 {
					Daxpy(m, alj, b[l*ldb:l*ldb+m], 1, b[j*ldb:j*ldb+m], 1)
				}
			}
		}
	}
	if alpha != 1 {
		for j := 0; j < n; j++ {
			Dscal(m, alpha, b[j*ldb:j*ldb+m], 1)
		}
	}
}

// oracleMat is a random buffer of size entries: one in five is zero and,
// with poison, about one in 23 is NaN and one in 29 ±Inf, so zero
// multipliers meet NaN and Inf opposite them.
func oracleMat(rng *rand.Rand, size int, poison bool) []float64 {
	x := make([]float64, size)
	for i := range x {
		switch r := rng.Intn(115); {
		case r < 23:
			x[i] = 0
		case poison && r < 28:
			x[i] = math.NaN()
		case poison && r < 32:
			x[i] = math.Inf(1 - 2*rng.Intn(2))
		default:
			x[i] = rng.NormFloat64()
		}
	}
	return x
}

// sameBits reports the first index where got and want differ in any bit,
// counting two NaNs as equal: which operand's NaN an add passes on depends
// on the operand order the compiler picks for the commutative SSE add, a
// payload IEEE 754 leaves unspecified, so only NaN-ness is compared.
func sameBits(got, want []float64) error {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return fmt.Errorf("element %d: %v (%#016x), want %v (%#016x)",
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return nil
}

var (
	oracleAlphas = []float64{1, -1, 0.37, 0}
	oracleBetas  = []float64{0, 1, -0.5}
	oracleTrans  = []Transpose{NoTrans, Trans}
)

// oracleDim draws a dimension of 0–40, most of them not multiples of the
// kernels' 4×2 tile.
func oracleDim(rng *rand.Rand) int { return rng.Intn(41) }

func TestDgemmBitIdenticalToLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		m, n, k := oracleDim(rng), oracleDim(rng), oracleDim(rng)
		tA, tB := oracleTrans[trial%2], oracleTrans[trial/2%2]
		alpha, beta := oracleAlphas[rng.Intn(4)], oracleBetas[rng.Intn(3)]
		ar, ac := m, k
		if tA == Trans {
			ar, ac = k, m
		}
		br, bc := k, n
		if tB == Trans {
			br, bc = n, k
		}
		lda, ldb, ldc := max(ar, 1)+rng.Intn(3), max(br, 1)+rng.Intn(3), max(m, 1)+rng.Intn(3)
		poison := trial%3 == 0
		a, b := oracleMat(rng, lda*ac, poison), oracleMat(rng, ldb*bc, poison)
		c := oracleMat(rng, ldc*n, false)
		want := append([]float64(nil), c...)
		refDgemm(tA, tB, m, n, k, alpha, a, lda, b, ldb, beta, want, ldc)
		Dgemm(tA, tB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
		if err := sameBits(c, want); err != nil {
			t.Fatalf("trial %d: Dgemm(%v,%v) m=%d n=%d k=%d alpha=%v beta=%v lda=%d ldb=%d ldc=%d: %v",
				trial, tA, tB, m, n, k, alpha, beta, lda, ldb, ldc, err)
		}
	}
}

// The workloads' own shapes reach past one multiplier chunk and stay
// bit-identical there too.
func TestDgemmBitIdenticalAtWorkloadShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, s := range []struct{ m, n, k int }{{256, 128, 256}, {257, 127, 129}, {80, 16, 80}} {
		for _, tA := range oracleTrans {
			for _, tB := range oracleTrans {
				a, b := oracleMat(rng, s.m*s.k, false), oracleMat(rng, s.k*s.n, false)
				lda, ldb := s.m, s.k
				if tA == Trans {
					lda = s.k
				}
				if tB == Trans {
					ldb = s.n
				}
				c := oracleMat(rng, s.m*s.n, false)
				want := append([]float64(nil), c...)
				refDgemm(tA, tB, s.m, s.n, s.k, -1, a, lda, b, ldb, 1, want, s.m)
				Dgemm(tA, tB, s.m, s.n, s.k, -1, a, lda, b, ldb, 1, c, s.m)
				if err := sameBits(c, want); err != nil {
					t.Fatalf("Dgemm(%v,%v) %+v: %v", tA, tB, s, err)
				}
			}
		}
	}
}

func TestDgemvBitIdenticalToLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 400; trial++ {
		m, n := oracleDim(rng), oracleDim(rng)
		tr := oracleTrans[trial%2]
		alpha, beta := oracleAlphas[rng.Intn(4)], oracleBetas[rng.Intn(3)]
		incX, incY := 1+rng.Intn(3), 1+rng.Intn(3)
		if trial%4 < 2 {
			incX, incY = 1, 1
		}
		lenX, lenY := n, m
		if tr == Trans {
			lenX, lenY = m, n
		}
		lda := max(m, 1) + rng.Intn(3)
		poison := trial%3 == 0
		a := oracleMat(rng, lda*n, poison)
		x := oracleMat(rng, max(1+(lenX-1)*incX, 0), poison)
		y := oracleMat(rng, max(1+(lenY-1)*incY, 0), false)
		want := append([]float64(nil), y...)
		refDgemv(tr, m, n, alpha, a, lda, x, incX, beta, want, incY)
		Dgemv(tr, m, n, alpha, a, lda, x, incX, beta, y, incY)
		if err := sameBits(y, want); err != nil {
			t.Fatalf("trial %d: Dgemv(%v) m=%d n=%d alpha=%v beta=%v lda=%d incX=%d incY=%d: %v",
				trial, tr, m, n, alpha, beta, lda, incX, incY, err)
		}
	}
}

func TestDgerBitIdenticalToLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 400; trial++ {
		m, n := oracleDim(rng), oracleDim(rng)
		alpha := oracleAlphas[rng.Intn(4)]
		incX, incY := 1+rng.Intn(3), 1+rng.Intn(3)
		if trial%4 < 2 {
			incX, incY = 1, 1
		}
		lda := max(m, 1) + rng.Intn(3)
		poison := trial%3 == 0
		x := oracleMat(rng, max(1+(m-1)*incX, 0), poison)
		y := oracleMat(rng, max(1+(n-1)*incY, 0), false)
		a := oracleMat(rng, lda*n, poison)
		want := append([]float64(nil), a...)
		refDger(m, n, alpha, x, incX, y, incY, want, lda)
		Dger(m, n, alpha, x, incX, y, incY, a, lda)
		if err := sameBits(a, want); err != nil {
			t.Fatalf("trial %d: Dger m=%d n=%d alpha=%v lda=%d incX=%d incY=%d: %v",
				trial, m, n, alpha, lda, incX, incY, err)
		}
	}
}

func TestDtrmmDtrsmRightBitIdenticalToLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 800; trial++ {
		m, n := oracleDim(rng), oracleDim(rng)
		uplo, diag := UpLo(rng.Intn(2)), Diag(rng.Intn(2))
		tr := oracleTrans[rng.Intn(2)]
		alpha := oracleAlphas[rng.Intn(3)] // alpha == 0 has its own test
		lda, ldb := max(n, 1)+rng.Intn(3), max(m, 1)+rng.Intn(3)
		a := oracleMat(rng, lda*n, false)
		for j := 0; j < n; j++ {
			a[j+j*lda] = 1 + rng.Float64() // a solvable diagonal
		}
		b := oracleMat(rng, ldb*n, trial%3 == 0)
		want := append([]float64(nil), b...)
		name := "Dtrmm"
		if trial%2 == 0 {
			refDtrmmRight(uplo, tr, diag, m, n, alpha, a, lda, want, ldb)
			Dtrmm(Right, uplo, tr, diag, m, n, alpha, a, lda, b, ldb)
		} else {
			name = "Dtrsm"
			refDtrsmRight(uplo, tr, diag, m, n, alpha, a, lda, want, ldb)
			Dtrsm(Right, uplo, tr, diag, m, n, alpha, a, lda, b, ldb)
		}
		if err := sameBits(b, want); err != nil {
			t.Fatalf("trial %d: %s(Right, uplo=%d, %v, diag=%d) m=%d n=%d alpha=%v lda=%d ldb=%d: %v",
				trial, name, uplo, tr, diag, m, n, alpha, lda, ldb, err)
		}
	}
}

// A zero multiplier is skipped, as reference BLAS skips it: a zero in B
// (or x, or y) opposite a NaN or Inf in A keeps it out of the result.
func TestZeroMultiplierKeepsNaNOutOfC(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	// A is 2×2 with a poisoned second column; op(B)'s second row is zero.
	a := []float64{1, 2, nan, inf}
	check := func(name string, got []float64) {
		t.Helper()
		for _, v := range got {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %v, want NaN and Inf kept out", name, got)
				return
			}
		}
	}
	c := []float64{1, 1, 1, 1}
	Dgemm(NoTrans, NoTrans, 2, 2, 2, 1, a, 2, []float64{1, 0, 1, 0}, 2, 1, c, 2)
	check("Dgemm(NoTrans, NoTrans)", c)
	c = []float64{1, 1, 1, 1}
	Dgemm(NoTrans, Trans, 2, 2, 2, 1, a, 2, []float64{1, 1, 0, 0}, 2, 1, c, 2)
	check("Dgemm(NoTrans, Trans)", c)
	y := []float64{1, 1}
	Dgemv(NoTrans, 2, 2, 1, a, 2, []float64{1, 0}, 1, 1, y, 1)
	check("Dgemv(NoTrans)", y)
	g := []float64{1, 2, 3, 4}
	Dger(2, 2, 1, []float64{1, 1}, 1, []float64{nan, 0}, 1, g, 2)
	if !math.IsNaN(g[0]) || g[2] != 3 || g[3] != 4 {
		t.Errorf("Dger: %v, want column 0 NaN and column 1 untouched", g)
	}
	// Right-side sweeps: B's poisoned first column meets a zero in A.
	for _, name := range []string{"Dtrmm", "Dtrsm"} {
		b := []float64{nan, inf, 1, 2}
		tri := []float64{1, 0, 0, 1} // lower: B[:,1] depends on B[:,0] by A[1,0] = 0
		if name == "Dtrmm" {
			Dtrmm(Right, Lower, Trans, Unit, 2, 2, 1, tri, 2, b, 2)
		} else {
			Dtrsm(Right, Upper, NoTrans, Unit, 2, 2, 1, tri, 2, b, 2)
		}
		check(name+" column 1", b[2:])
	}
}

// refDtrmv is Dtrmv as the textbook loops: row i of op(A)x is its
// diagonal term, then op(A)[i,j]·x[j] added in j order, rows taken in the
// order that reads each x[j] before it is overwritten.
func refDtrmv(uplo UpLo, trans Transpose, diag Diag, n int, a []float64, lda int, x []float64, incX int) {
	if n == 0 {
		return
	}
	unit := diag == Unit
	// op(A)[i,j] is a[i*ri+j*rj].
	ri, rj := 1, lda
	if trans == Trans {
		ri, rj = lda, 1
	}
	row := func(i, from, to int) {
		s := x[i*incX]
		if !unit {
			s = a[i+i*lda] * x[i*incX]
		}
		for j := from; j < to; j++ {
			s += a[i*ri+j*rj] * x[j*incX]
		}
		x[i*incX] = s
	}
	if (uplo == Upper) == (trans == NoTrans) {
		for i := 0; i < n; i++ {
			row(i, i+1, n)
		}
		return
	}
	for i := n - 1; i >= 0; i-- {
		row(i, 0, i)
	}
}

func TestDtrmvBitIdenticalToLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 800; trial++ {
		n := oracleDim(rng)
		uplo, diag, tr := UpLo(trial%2), Diag(trial/2%2), oracleTrans[trial/4%2]
		incX := 1 + rng.Intn(3)
		if trial%16 < 8 {
			incX = 1
		}
		lda, off := max(n, 1)+rng.Intn(3), rng.Intn(2)
		poison := trial%3 == 0
		a := oracleMat(rng, off+lda*n, poison)
		x := oracleMat(rng, off+max(1+(n-1)*incX, 0), poison)
		want := append([]float64(nil), x...)
		refDtrmv(uplo, tr, diag, n, a[off:], lda, want[off:], incX)
		Dtrmv(uplo, tr, diag, n, a[off:], lda, x[off:], incX)
		if err := sameBits(x, want); err != nil {
			t.Fatalf("trial %d: Dtrmv(uplo=%d, %v, diag=%d) n=%d lda=%d incX=%d offset=%d: %v",
				trial, uplo, tr, diag, n, lda, incX, off, err)
		}
	}
}

// offsetMat is oracleMat of size entries starting at element off of its
// buffer, so that off = 1 moves the operand's 16-byte alignment.
func offsetMat(rng *rand.Rand, off, size int, poison bool) []float64 {
	return oracleMat(rng, off+size, poison)[off:]
}

// The kernels' edges, swept rather than drawn: every m of 0–17 (each
// remainder of an eight-column dot tile and of the four- and two-row
// update tiles), k of 0–5, 8 and 9 (no term, one term, a four-column
// chain with and without a remainder), and each operand at element 0 or
// 1 of its buffer.
func TestTileEdgesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for m := 0; m <= 17; m++ {
		for _, k := range []int{0, 1, 2, 3, 4, 5, 8, 9} {
			for trial := 0; trial < 8; trial++ {
				tA, tB := oracleTrans[trial%2], oracleTrans[trial/2%2]
				poison := trial/4 == 1
				n := 1 + rng.Intn(3)
				ar, ac, br, bc := m, k, k, n
				if tA == Trans {
					ar, ac = k, m
				}
				if tB == Trans {
					br, bc = n, k
				}
				lda, ldb, ldc := max(ar, 1), max(br, 1), max(m, 1)
				a := offsetMat(rng, rng.Intn(2), lda*ac, poison)
				b := offsetMat(rng, rng.Intn(2), ldb*bc, poison)
				c := offsetMat(rng, rng.Intn(2), ldc*n, false)
				want := append([]float64(nil), c...)
				refDgemm(tA, tB, m, n, k, -0.37, a, lda, b, ldb, 1, want, ldc)
				Dgemm(tA, tB, m, n, k, -0.37, a, lda, b, ldb, 1, c, ldc)
				if err := sameBits(c, want); err != nil {
					t.Fatalf("Dgemm(%v,%v) m=%d n=%d k=%d: %v", tA, tB, m, n, k, err)
				}

				// Dgemv over the m×k matrix a (lda = m), Dger over the m×k c.
				x := offsetMat(rng, rng.Intn(2), max(m, k), poison)
				y := offsetMat(rng, rng.Intn(2), max(m, k), false)
				a = offsetMat(rng, rng.Intn(2), max(m, 1)*k, poison)
				want = append([]float64(nil), y...)
				refDgemv(tA, m, k, 0.37, a, max(m, 1), x, 1, 1, want, 1)
				Dgemv(tA, m, k, 0.37, a, max(m, 1), x, 1, 1, y, 1)
				if err := sameBits(y, want); err != nil {
					t.Fatalf("Dgemv(%v) m=%d n=%d: %v", tA, m, k, err)
				}
				want = append([]float64(nil), a...)
				refDger(m, k, -1, x, 1, y, 1, want, max(m, 1))
				Dger(m, k, -1, x, 1, y, 1, a, max(m, 1))
				if err := sameBits(a, want); err != nil {
					t.Fatalf("Dger m=%d n=%d: %v", m, k, err)
				}
			}
		}
	}
}

// laneSpecials go into every element of every operand in turn.
var laneSpecials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}

// everyLane sets each element of each of ops to each of laneSpecials in
// turn, restoring it afterwards, and returns the first error check gives.
func everyLane(ops [][]float64, check func() error) error {
	for o, op := range ops {
		for p, old := range op {
			for _, v := range laneSpecials {
				op[p] = v
				if err := check(); err != nil {
					return fmt.Errorf("operand %d element %d = %v: %w", o, p, v, err)
				}
			}
			op[p] = old
		}
	}
	return nil
}

// NaN, ±Inf and −0 in every lane of every tile, with zero multipliers
// (one element in five) opposite them: m = 15 is an eight-column dot tile,
// a four-column one and three single columns, or three four-row update
// tiles, a two-row one and a single row; k = 5 is one four-column chain
// and one single column.
func TestSpecialValuesInEveryLane(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const m, n, k = 15, 2, 5
	for _, tA := range oracleTrans {
		for _, tB := range oracleTrans {
			lda, ldb := m, k
			if tA == Trans {
				lda = k
			}
			if tB == Trans {
				ldb = n
			}
			a, b, c := oracleMat(rng, m*k, false), oracleMat(rng, k*n, false), oracleMat(rng, m*n, false)
			got, want := make([]float64, m*n), make([]float64, m*n)
			err := everyLane([][]float64{a, b, c}, func() error {
				copy(want, c)
				copy(got, c)
				refDgemm(tA, tB, m, n, k, 1, a, lda, b, ldb, 1, want, m)
				Dgemm(tA, tB, m, n, k, 1, a, lda, b, ldb, 1, got, m)
				return sameBits(got, want)
			})
			if err != nil {
				t.Fatalf("Dgemm(%v,%v): %v", tA, tB, err)
			}
		}
		a, x, y := oracleMat(rng, m*k, false), oracleMat(rng, m, false), oracleMat(rng, m, false)
		got, want := make([]float64, m), make([]float64, m)
		err := everyLane([][]float64{a, x, y}, func() error {
			copy(want, y)
			copy(got, y)
			if tA == Trans {
				refDgemv(Trans, k, m, 1, a, k, x, 1, 1, want, 1)
				Dgemv(Trans, k, m, 1, a, k, x, 1, 1, got, 1)
			} else {
				refDgemv(NoTrans, m, k, 1, a, m, x, 1, 1, want, 1)
				Dgemv(NoTrans, m, k, 1, a, m, x, 1, 1, got, 1)
			}
			return sameBits(got, want)
		})
		if err != nil {
			t.Fatalf("Dgemv(%v): %v", tA, err)
		}
	}
	a, x, y := oracleMat(rng, m*k, false), oracleMat(rng, m, false), oracleMat(rng, k, false)
	got, want := make([]float64, m*k), make([]float64, m*k)
	err := everyLane([][]float64{a, x, y}, func() error {
		copy(want, a)
		copy(got, a)
		refDger(m, k, 1, x, 1, y, 1, want, m)
		Dger(m, k, 1, x, 1, y, 1, got, m)
		return sameBits(got, want)
	})
	if err != nil {
		t.Fatalf("Dger: %v", err)
	}
	for _, tr := range oracleTrans {
		for _, uplo := range []UpLo{Upper, Lower} {
			a, x := oracleMat(rng, m*m, false), oracleMat(rng, m, false)
			got, want := make([]float64, m), make([]float64, m)
			err := everyLane([][]float64{a, x}, func() error {
				copy(want, x)
				copy(got, x)
				refDtrmv(uplo, tr, NonUnit, m, a, m, want, 1)
				Dtrmv(uplo, tr, NonUnit, m, a, m, got, 1)
				return sameBits(got, want)
			})
			if err != nil {
				t.Fatalf("Dtrmv(uplo=%d, %v): %v", uplo, tr, err)
			}
		}
	}
}
