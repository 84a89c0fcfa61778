package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-12

// refMat is a dense row-indexable reference matrix for checking the
// column-major kernels.
type refMat struct {
	m, n int
	v    []float64
}

func newRef(m, n int) *refMat { return &refMat{m: m, n: n, v: make([]float64, m*n)} }

func (r *refMat) at(i, j int) float64     { return r.v[i*r.n+j] }
func (r *refMat) set(i, j int, x float64) { r.v[i*r.n+j] = x }

// fromCol converts a column-major buffer to a reference matrix.
func fromCol(a []float64, lda, m, n int) *refMat {
	r := newRef(m, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			r.set(i, j, a[i+j*lda])
		}
	}
	return r
}

func randMat(rng *rand.Rand, m, n, lda int) []float64 {
	a := make([]float64, lda*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	return a
}

func maxDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if x := math.Abs(a[i] - b[i]); x > d {
			d = x
		}
	}
	return d
}

// refGemm computes C = alpha*op(A)op(B) + beta*C naively.
func refGemm(transA, transB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	opA := func(i, l int) float64 {
		if transA == NoTrans {
			return a[i+l*lda]
		}
		return a[l+i*lda]
	}
	opB := func(l, j int) float64 {
		if transB == NoTrans {
			return b[l+j*ldb]
		}
		return b[j+l*ldb]
	}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			var s float64
			for l := 0; l < k; l++ {
				s += opA(i, l) * opB(l, j)
			}
			c[i+j*ldc] = alpha*s + beta*c[i+j*ldc]
		}
	}
}

func TestDaxpyDscalDdot(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Daxpy(3, 2, x, 1, y, 1)
	if y[0] != 12 || y[1] != 24 || y[2] != 36 {
		t.Errorf("axpy: %v", y)
	}
	Dscal(3, 0.5, y, 1)
	if y[0] != 6 || y[2] != 18 {
		t.Errorf("scal: %v", y)
	}
	if d := Ddot(3, x, 1, x, 1); d != 14 {
		t.Errorf("dot = %v", d)
	}
	// strided
	xs := []float64{1, 0, 2, 0, 3}
	ys := []float64{1, 1, 1, 1, 1}
	Daxpy(3, 1, xs, 2, ys, 2)
	if ys[0] != 2 || ys[2] != 3 || ys[4] != 4 || ys[1] != 1 {
		t.Errorf("strided axpy: %v", ys)
	}
}

func TestDnrm2OverflowSafe(t *testing.T) {
	x := []float64{3e200, 4e200}
	if got := Dnrm2(2, x, 1); math.Abs(got-5e200)/5e200 > eps {
		t.Errorf("nrm2 = %g", got)
	}
	if got := Dnrm2(1, []float64{-7}, 1); got != 7 {
		t.Errorf("nrm2 single = %v", got)
	}
	if got := Dnrm2(0, nil, 1); got != 0 {
		t.Errorf("nrm2 empty = %v", got)
	}
}

// Two infinities used to meet as Inf/Inf in the scaled sum and make NaN.
// As in LAPACK 3.10, any infinite element makes the norm +Inf, and only a
// NaN element makes it NaN.
func TestDnrm2InfAndNaN(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		x    []float64
		want float64
	}{
		{[]float64{inf, 1, -inf}, inf},
		{[]float64{-inf, -inf}, inf},
		{[]float64{1, inf}, inf},
		{[]float64{0, -inf, 0}, inf},
		{[]float64{inf, nan}, nan},
		{[]float64{nan, -inf, 2}, nan},
		{[]float64{1, nan}, nan},
	} {
		got := Dnrm2(len(c.x), c.x, 1)
		if got != c.want && !(math.IsNaN(got) && math.IsNaN(c.want)) {
			t.Errorf("Dnrm2(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	// Strided, the infinity among the skipped entries does not count.
	if got := Dnrm2(2, []float64{3, inf, 4}, 2); got != 5 {
		t.Errorf("strided Dnrm2 = %v, want 5", got)
	}
}

// On finite input Dnrm2 is bit for bit the scaled sum of squares it
// always computed.
func TestDnrm2FiniteBitsUnchanged(t *testing.T) {
	ref := func(x []float64) float64 {
		scale, ssq := 0.0, 1.0
		for _, v := range x {
			if v == 0 {
				continue
			}
			ax := math.Abs(v)
			if scale < ax {
				r := scale / ax
				ssq = 1 + ssq*r*r
				scale = ax
			} else {
				r := ax / scale
				ssq += r * r
			}
		}
		return scale * math.Sqrt(ssq)
	}
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 500; trial++ {
		x := make([]float64, 2+rng.Intn(30))
		for i := range x {
			if rng.Intn(5) > 0 {
				x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(600)-300))
			}
		}
		if got, want := Dnrm2(len(x), x, 1), ref(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Dnrm2(%v) = %v, want %v", x, got, want)
		}
	}
}

// Reference BLAS sets B to zero when alpha is zero, reading neither A nor
// B; scaling B by zero instead kept its NaN and turned its Inf into NaN.
func TestDtrmmDtrsmAlphaZeroClearsB(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	a := []float64{nan, nan, nan, nan} // must not be read
	for _, side := range []Side{Left, Right} {
		for _, name := range []string{"Dtrmm", "Dtrsm"} {
			b := []float64{nan, 1, inf, 2}
			if name == "Dtrmm" {
				Dtrmm(side, Upper, NoTrans, NonUnit, 2, 2, 0, a, 2, b, 2)
			} else {
				Dtrsm(side, Upper, NoTrans, NonUnit, 2, 2, 0, a, 2, b, 2)
			}
			for i, v := range b {
				if math.Float64bits(v) != 0 {
					t.Errorf("%s(side=%d, alpha=0): B = %v, want all +0 (element %d)", name, side, b, i)
					break
				}
			}
		}
	}
	// Padding rows beyond m stay as they were.
	b := []float64{nan, 7, inf, 7}
	Dtrsm(Right, Lower, Trans, Unit, 1, 2, 0, a, 2, b, 2)
	if b[0] != 0 || b[1] != 7 || b[2] != 0 || b[3] != 7 {
		t.Errorf("Dtrsm alpha=0 with ldb > m: B = %v, want [0 7 0 7]", b)
	}
}

func TestIdamaxDswapDcopy(t *testing.T) {
	x := []float64{1, -9, 3}
	if i := Idamax(3, x, 1); i != 1 {
		t.Errorf("idamax = %d", i)
	}
	if i := Idamax(0, nil, 1); i != -1 {
		t.Errorf("idamax empty = %d", i)
	}
	y := []float64{7, 8, 9}
	Dswap(3, x, 1, y, 1)
	if x[0] != 7 || y[1] != -9 {
		t.Errorf("swap: %v %v", x, y)
	}
	z := make([]float64, 3)
	Dcopy(3, x, 1, z, 1)
	if z[2] != 9 {
		t.Errorf("copy: %v", z)
	}
}

func TestDgemvAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, trans := range []Transpose{NoTrans, Trans} {
		m, n, lda := 7, 5, 9
		a := randMat(rng, m, n, lda)
		xlen, ylen := n, m
		if trans == Trans {
			xlen, ylen = m, n
		}
		x := randMat(rng, xlen, 1, xlen)
		y := randMat(rng, ylen, 1, ylen)
		want := append([]float64(nil), y...)
		// naive
		for i := 0; i < ylen; i++ {
			var s float64
			for j := 0; j < xlen; j++ {
				if trans == NoTrans {
					s += a[i+j*lda] * x[j]
				} else {
					s += a[j+i*lda] * x[j]
				}
			}
			want[i] = 1.5*s + 0.5*want[i]
		}
		Dgemv(trans, m, n, 1.5, a, lda, x, 1, 0.5, y, 1)
		if d := maxDiff(y, want); d > 1e-12 {
			t.Errorf("trans=%v: diff %g", trans, d)
		}
	}
}

func TestDgerAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, n, lda := 6, 4, 7
	a := randMat(rng, m, n, lda)
	x := randMat(rng, m, 1, m)
	y := randMat(rng, n, 1, n)
	want := append([]float64(nil), a...)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			want[i+j*lda] += 2 * x[i] * y[j]
		}
	}
	Dger(m, n, 2, x, 1, y, 1, a, lda)
	if d := maxDiff(a, want); d > 1e-12 {
		t.Errorf("diff %g", d)
	}
}

func TestDgemmAllTransposeCombos(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, ta := range []Transpose{NoTrans, Trans} {
		for _, tb := range []Transpose{NoTrans, Trans} {
			m, n, k := 8, 6, 7
			lda, ldb, ldc := 11, 12, 13
			adim := k
			if ta == NoTrans {
				adim = n + k // generous
			}
			_ = adim
			a := randMat(rng, lda, max(m, k), lda)
			b := randMat(rng, ldb, max(n, k), ldb)
			c := randMat(rng, ldc, n, ldc)
			want := append([]float64(nil), c...)
			refGemm(ta, tb, m, n, k, 1.25, a, lda, b, ldb, -0.5, want, ldc)
			Dgemm(ta, tb, m, n, k, 1.25, a, lda, b, ldb, -0.5, c, ldc)
			if d := maxDiff(c, want); d > 1e-11 {
				t.Errorf("ta=%v tb=%v: diff %g", ta, tb, d)
			}
		}
	}
}

func TestDgemmBetaZeroIgnoresGarbage(t *testing.T) {
	// With beta == 0, NaNs in C must be overwritten, per BLAS convention.
	a := []float64{1, 0, 0, 1} // identity 2x2
	b := []float64{5, 6, 7, 8}
	c := []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()}
	Dgemm(NoTrans, NoTrans, 2, 2, 2, 1, a, 2, b, 2, 0, c, 2)
	if d := maxDiff(c, b); d > eps {
		t.Errorf("c = %v", c)
	}
}

func TestDsyrkMatchesGemmOnTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, uplo := range []UpLo{Upper, Lower} {
		for _, trans := range []Transpose{NoTrans, Trans} {
			n, k := 6, 4
			lda := n + 2
			if trans == Trans {
				lda = k + 2
			}
			cols := k
			if trans == Trans {
				cols = n
			}
			a := randMat(rng, lda, cols, lda)
			ldc := n + 1
			c := randMat(rng, ldc, n, ldc)
			full := append([]float64(nil), c...)
			if trans == NoTrans {
				refGemm(NoTrans, Trans, n, n, k, 0.75, a, lda, a, lda, 0.25, full, ldc)
			} else {
				refGemm(Trans, NoTrans, n, n, k, 0.75, a, lda, a, lda, 0.25, full, ldc)
			}
			Dsyrk(uplo, trans, n, k, 0.75, a, lda, 0.25, c, ldc)
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					inTri := (uplo == Upper && i <= j) || (uplo == Lower && i >= j)
					got, want := c[i+j*ldc], full[i+j*ldc]
					if inTri {
						if math.Abs(got-want) > 1e-12 {
							t.Errorf("uplo=%v trans=%v (%d,%d): got %g want %g", uplo, trans, i, j, got, want)
						}
					}
				}
			}
		}
	}
}

// makeTriangular builds a well-conditioned triangular matrix.
func makeTriangular(rng *rand.Rand, uplo UpLo, diag Diag, n, lda int) []float64 {
	a := make([]float64, lda*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			inTri := (uplo == Upper && i <= j) || (uplo == Lower && i >= j)
			if inTri {
				a[i+j*lda] = rng.NormFloat64() * 0.3
			} else {
				a[i+j*lda] = rng.NormFloat64() // junk outside the triangle must be ignored
			}
		}
		a[j+j*lda] = 2 + rng.Float64() // dominant diagonal
	}
	_ = diag
	return a
}

// refTriFull materializes op(A) as a dense matrix honoring uplo/diag.
func refTriFull(a []float64, lda, n int, uplo UpLo, trans Transpose, diag Diag) []float64 {
	full := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			inTri := (uplo == Upper && i <= j) || (uplo == Lower && i >= j)
			var v float64
			if inTri {
				v = a[i+j*lda]
			}
			if i == j && diag == Unit {
				v = 1
			}
			if trans == NoTrans {
				full[i+j*n] = v
			} else {
				full[j+i*n] = v
			}
		}
	}
	return full
}

func TestDtrsmSolvesSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []UpLo{Upper, Lower} {
			for _, trans := range []Transpose{NoTrans, Trans} {
				for _, diag := range []Diag{NonUnit, Unit} {
					m, n := 6, 5
					order := m
					if side == Right {
						order = n
					}
					lda := order + 2
					a := makeTriangular(rng, uplo, diag, order, lda)
					ldb := m + 1
					b := randMat(rng, ldb, n, ldb)
					orig := append([]float64(nil), b...)
					Dtrsm(side, uplo, trans, diag, m, n, 2.0, a, lda, b, ldb)
					// Check op(A)*X == 2*B (Left) or X*op(A) == 2*B (Right).
					full := refTriFull(a, lda, order, uplo, trans, diag)
					got := make([]float64, ldb*n)
					if side == Left {
						refGemm(NoTrans, NoTrans, m, n, m, 1, full, order, b, ldb, 0, got, ldb)
					} else {
						refGemm(NoTrans, NoTrans, m, n, n, 1, b, ldb, full, order, 0, got, ldb)
					}
					bad := 0.0
					for j := 0; j < n; j++ {
						for i := 0; i < m; i++ {
							if d := math.Abs(got[i+j*ldb] - 2*orig[i+j*ldb]); d > bad {
								bad = d
							}
						}
					}
					if bad > 1e-10 {
						t.Errorf("side=%v uplo=%v trans=%v diag=%v: residual %g", side, uplo, trans, diag, bad)
					}
				}
			}
		}
	}
}

func TestDtrmmMatchesGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []UpLo{Upper, Lower} {
			for _, trans := range []Transpose{NoTrans, Trans} {
				for _, diag := range []Diag{NonUnit, Unit} {
					m, n := 5, 7
					order := m
					if side == Right {
						order = n
					}
					lda := order + 1
					a := makeTriangular(rng, uplo, diag, order, lda)
					ldb := m + 2
					b := randMat(rng, ldb, n, ldb)
					want := make([]float64, ldb*n)
					full := refTriFull(a, lda, order, uplo, trans, diag)
					if side == Left {
						refGemm(NoTrans, NoTrans, m, n, m, 1.5, full, order, b, ldb, 0, want, ldb)
					} else {
						refGemm(NoTrans, NoTrans, m, n, n, 1.5, b, ldb, full, order, 0, want, ldb)
					}
					Dtrmm(side, uplo, trans, diag, m, n, 1.5, a, lda, b, ldb)
					bad := 0.0
					for j := 0; j < n; j++ {
						for i := 0; i < m; i++ {
							if d := math.Abs(b[i+j*ldb] - want[i+j*ldb]); d > bad {
								bad = d
							}
						}
					}
					if bad > 1e-10 {
						t.Errorf("side=%v uplo=%v trans=%v diag=%v: diff %g", side, uplo, trans, diag, bad)
					}
				}
			}
		}
	}
}

func TestDtrsvDtrmvInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, uplo := range []UpLo{Upper, Lower} {
		for _, trans := range []Transpose{NoTrans, Trans} {
			n := 8
			lda := n
			a := makeTriangular(rng, uplo, NonUnit, n, lda)
			x := randMat(rng, n, 1, n)
			orig := append([]float64(nil), x...)
			Dtrmv(uplo, trans, NonUnit, n, a, lda, x, 1)
			Dtrsv(uplo, trans, NonUnit, n, a, lda, x, 1)
			if d := maxDiff(x, orig); d > 1e-10 {
				t.Errorf("uplo=%v trans=%v: trsv(trmv(x)) != x, diff %g", uplo, trans, d)
			}
		}
	}
}

// Property: Dgemm agrees with the naive reference for random shapes.
func TestPropertyGemmMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n, k := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		ta, tb := Transpose(rng.Intn(2) == 1), Transpose(rng.Intn(2) == 1)
		lda, ldb, ldc := 14, 14, 14
		a := randMat(rng, lda, 14, lda)
		b := randMat(rng, ldb, 14, ldb)
		c := randMat(rng, ldc, n, ldc)
		alpha, beta := rng.NormFloat64(), rng.NormFloat64()
		want := append([]float64(nil), c...)
		refGemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, want, ldc)
		Dgemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
		return maxDiff(c, want) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dtrsm then Dtrmm returns the original right-hand side.
func TestPropertyTrsmTrmmRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(8), 1+rng.Intn(8)
		side := Side(rng.Intn(2))
		uplo := UpLo(rng.Intn(2))
		trans := Transpose(rng.Intn(2) == 1)
		diag := Diag(rng.Intn(2))
		order := m
		if side == Right {
			order = n
		}
		lda := order + rng.Intn(3)
		if lda < order {
			lda = order
		}
		a := makeTriangular(rng, uplo, diag, order, lda)
		ldb := m
		b := randMat(rng, ldb, n, ldb)
		orig := append([]float64(nil), b...)
		Dtrsm(side, uplo, trans, diag, m, n, 1, a, lda, b, ldb)
		Dtrmm(side, uplo, trans, diag, m, n, 1, a, lda, b, ldb)
		return maxDiff(b, orig) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// A warm Dgemm allocates nothing, in either of the shapes the QR trailing
// update runs.
func TestWarmDgemmAllocatesNothing(t *testing.T) {
	const m, n, k = 96, 80, 16
	rng := rand.New(rand.NewSource(4))
	a, b, c := randMat(rng, m, k, m), randMat(rng, n, k, n), randMat(rng, m, n, m)
	w := randMat(rng, n, k, n)
	if allocs := testing.AllocsPerRun(10, func() {
		Dgemm(Trans, NoTrans, n, k, m, 1, c, m, a, m, 1, w, n)
		Dgemm(NoTrans, Trans, m, n, k, -1, a, m, b, n, 1, c, m)
	}); allocs != 0 {
		t.Errorf("Dgemm: %.1f allocations a warm call, want 0", allocs)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
