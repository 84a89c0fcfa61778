package lapack

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dynacc/internal/blas"
)

func randMat(rng *rand.Rand, m, n int) []float64 {
	a := make([]float64, m*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	return a
}

// spd builds a well-conditioned symmetric positive definite matrix.
func spd(rng *rand.Rand, n int) []float64 {
	b := randMat(rng, n, n)
	a := make([]float64, n*n)
	blas.Dsyrk(blas.Lower, blas.NoTrans, n, n, 1, b, n, 0, a, n)
	for i := 0; i < n; i++ {
		a[i+i*n] += float64(n)
		// mirror for full-matrix checks
		for j := i + 1; j < n; j++ {
			a[i+j*n] = a[j+i*n]
		}
	}
	return a
}

// choleskyResidual returns ||A - L*Lᵀ||_M / ||A||_M.
func choleskyResidual(orig, fact []float64, n int) float64 {
	l := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			l[i+j*n] = fact[i+j*n]
		}
	}
	llt := make([]float64, n*n)
	blas.Dgemm(blas.NoTrans, blas.Trans, n, n, n, 1, l, n, l, n, 0, llt, n)
	diff := 0.0
	for i := range llt {
		if d := math.Abs(llt[i] - orig[i]); d > diff {
			diff = d
		}
	}
	return diff / Dlange(MaxAbs, n, n, orig, n)
}

func TestDlangeNorms(t *testing.T) {
	// 2x2 column-major: [1 -3; 2 4]
	a := []float64{1, 2, -3, 4}
	if got := Dlange(MaxAbs, 2, 2, a, 2); got != 4 {
		t.Errorf("MaxAbs = %v", got)
	}
	if got := Dlange(OneNorm, 2, 2, a, 2); got != 7 {
		t.Errorf("OneNorm = %v", got)
	}
	if got := Dlange(InfNorm, 2, 2, a, 2); got != 6 {
		t.Errorf("InfNorm = %v", got)
	}
	if got := Dlange(Frobenius, 2, 2, a, 2); math.Abs(got-math.Sqrt(30)) > 1e-14 {
		t.Errorf("Frobenius = %v", got)
	}
	if got := Dlange(MaxAbs, 0, 0, nil, 1); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

func TestDlacpyDlaset(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6}
	b := make([]float64, 6)
	Dlacpy(2, 3, a, 2, b, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("copy mismatch at %d", i)
		}
	}
	Dlaset(2, 3, 9, 1, b, 2)
	if b[0] != 1 || b[1] != 9 || b[3] != 1 || b[2] != 9 {
		t.Errorf("laset: %v", b)
	}
}

func TestDlarfgAnnihilates(t *testing.T) {
	x := []float64{3, 4}
	beta, tau := Dlarfg(3, 5, x, 1)
	// H [5;3;4] = [beta;0;0], |beta| = ||[5,3,4]|| = sqrt(50)
	if math.Abs(math.Abs(beta)-math.Sqrt(50)) > 1e-12 {
		t.Errorf("beta = %v", beta)
	}
	// Verify by applying H = I - tau v vᵀ to the original vector.
	v := []float64{1, x[0], x[1]}
	orig := []float64{5, 3, 4}
	var vtx float64
	for i := range v {
		vtx += v[i] * orig[i]
	}
	res := make([]float64, 3)
	for i := range res {
		res[i] = orig[i] - tau*v[i]*vtx
	}
	if math.Abs(res[0]-beta) > 1e-12 || math.Abs(res[1]) > 1e-12 || math.Abs(res[2]) > 1e-12 {
		t.Errorf("H x = %v, want [%v 0 0]", res, beta)
	}
}

func TestDlarfgZeroTail(t *testing.T) {
	x := []float64{0, 0}
	beta, tau := Dlarfg(3, 7, x, 1)
	if tau != 0 || beta != 7 {
		t.Errorf("beta,tau = %v,%v", beta, tau)
	}
	if _, tau := Dlarfg(1, 3, nil, 1); tau != 0 {
		t.Errorf("n=1 tau = %v", tau)
	}
}

// qrResidual factors a copy of A and returns (||A - QR||/||A||, ||QᵀQ - I||).
func qrResidual(t *testing.T, a []float64, m, n, nb int) (float64, float64) {
	t.Helper()
	k := n
	if m < n {
		k = m
	}
	fact := append([]float64(nil), a...)
	tau := make([]float64, k)
	if nb == 0 {
		Dgeqr2(m, n, fact, m, tau, make([]float64, n))
	} else {
		Dgeqrf(m, n, fact, m, tau, nb)
	}
	// R: upper triangle (k×n)
	r := make([]float64, k*n)
	for j := 0; j < n; j++ {
		for i := 0; i <= j && i < k; i++ {
			r[i+j*k] = fact[i+j*m]
		}
	}
	// Q: m×k
	q := append([]float64(nil), fact...)
	Dorgqr(m, k, k, q, m, tau)
	// QR
	qr := make([]float64, m*n)
	blas.Dgemm(blas.NoTrans, blas.NoTrans, m, n, k, 1, q, m, r, k, 0, qr, m)
	num := 0.0
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if d := math.Abs(qr[i+j*m] - a[i+j*m]); d > num {
				num = d
			}
		}
	}
	// QᵀQ - I
	qtq := make([]float64, k*k)
	blas.Dgemm(blas.Trans, blas.NoTrans, k, k, m, 1, q, m, q, m, 0, qtq, k)
	orth := 0.0
	for j := 0; j < k; j++ {
		for i := 0; i < k; i++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if d := math.Abs(qtq[i+j*k] - want); d > orth {
				orth = d
			}
		}
	}
	return num / Dlange(MaxAbs, m, n, a, m), orth
}

func TestDgeqr2Reconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range [][2]int{{5, 5}, {8, 5}, {5, 8}, {1, 1}, {7, 1}, {1, 7}} {
		m, n := dims[0], dims[1]
		a := randMat(rng, m, n)
		res, orth := qrResidual(t, a, m, n, 0)
		if res > 1e-13 || orth > 1e-13 {
			t.Errorf("%dx%d: residual %g orth %g", m, n, res, orth)
		}
	}
}

func TestDgeqrfMatchesUnblocked(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, nb := range []int{2, 3, 8, 64} {
		m, n := 20, 16
		a := randMat(rng, m, n)
		f1 := append([]float64(nil), a...)
		f2 := append([]float64(nil), a...)
		tau1 := make([]float64, n)
		tau2 := make([]float64, n)
		Dgeqr2(m, n, f1, m, tau1, make([]float64, n))
		DgeqrfWork(m, n, f2, m, tau2, nb, make([]float64, nb*(n+nb)))
		for i := range f1 {
			if math.Abs(f1[i]-f2[i]) > 1e-11 {
				t.Fatalf("nb=%d: factor differs at %d: %g vs %g", nb, i, f1[i], f2[i])
			}
		}
		for i := range tau1 {
			if math.Abs(tau1[i]-tau2[i]) > 1e-11 {
				t.Fatalf("nb=%d: tau differs at %d", nb, i)
			}
		}
	}
}

func TestDgeqrfReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, dims := range [][2]int{{30, 30}, {50, 20}, {33, 17}} {
		m, n := dims[0], dims[1]
		a := randMat(rng, m, n)
		res, orth := qrResidual(t, a, m, n, 8)
		if res > 1e-12 || orth > 1e-12 {
			t.Errorf("%dx%d: residual %g orth %g", m, n, res, orth)
		}
	}
}

func TestDlarftDlarfbConsistentWithDlarf(t *testing.T) {
	// Applying a block of reflectors via T must equal applying them one
	// at a time.
	rng := rand.New(rand.NewSource(14))
	m, n, k := 12, 9, 4
	a := randMat(rng, m, k)
	// Make V unit lower trapezoidal with tails from a QR of a.
	tau := make([]float64, k)
	Dgeqr2(m, k, a, m, tau, make([]float64, k))
	c1 := randMat(rng, m, n)
	c2 := append([]float64(nil), c1...)
	// one by one: C = H(k-1)ᵀ ... H(0)ᵀ C — LAPACK applies Hᵀ in geqrf
	// order H(0) first.
	work := make([]float64, n)
	v := make([]float64, m)
	for j := 0; j < k; j++ {
		for i := 0; i < m; i++ {
			switch {
			case i < j:
				v[i] = 0
			case i == j:
				v[i] = 1
			default:
				v[i] = a[i+j*m]
			}
		}
		Dlarf(m, n, v, 1, tau[j], c1, m, work) // H is symmetric: H = Hᵀ
	}
	tmat := make([]float64, k*k)
	Dlarft(m, k, a, m, tau, tmat, k)
	Dlarfb(blas.Trans, m, n, k, a, m, tmat, k, c2, m, make([]float64, n*k))
	for i := range c1 {
		if math.Abs(c1[i]-c2[i]) > 1e-11 {
			t.Fatalf("blocked apply differs at %d: %g vs %g", i, c1[i], c2[i])
		}
	}
}

func TestDpotf2Factorization(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n := 12
	a := spd(rng, n)
	fact := append([]float64(nil), a...)
	if err := Dpotf2(n, fact, n); err != nil {
		t.Fatal(err)
	}
	if res := choleskyResidual(a, fact, n); res > 1e-13 {
		t.Errorf("residual %g", res)
	}
}

func TestDpotrfBlockedMatchesUnblocked(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := 30
	a := spd(rng, n)
	for _, nb := range []int{1, 4, 7, 64} {
		f1 := append([]float64(nil), a...)
		f2 := append([]float64(nil), a...)
		if err := Dpotf2(n, f1, n); err != nil {
			t.Fatal(err)
		}
		if err := Dpotrf(n, f2, n, nb); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			for i := j; i < n; i++ {
				if math.Abs(f1[i+j*n]-f2[i+j*n]) > 1e-11 {
					t.Fatalf("nb=%d: (%d,%d) differs", nb, i, j)
				}
			}
		}
	}
}

func TestDpotrfRejectsIndefinite(t *testing.T) {
	// -I is not positive definite.
	n := 4
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		a[i+i*n] = -1
	}
	err := Dpotrf(n, a, n, 2)
	var pe *PositiveDefiniteError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v", err)
	}
	if pe.Pivot != 0 {
		t.Errorf("pivot = %d", pe.Pivot)
	}
	// Pivot index must be global, not block-local.
	rng := rand.New(rand.NewSource(17))
	b := spd(rng, 8)
	b[5+5*8] = -1e6
	err = Dpotrf(8, b, 8, 2)
	if !errors.As(err, &pe) || pe.Pivot != 5 {
		t.Errorf("err = %v", err)
	}
}

// Property: blocked Cholesky reconstructs random SPD matrices.
func TestPropertyCholeskyReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(24)
		nb := 1 + rng.Intn(8)
		a := spd(rng, n)
		fact := append([]float64(nil), a...)
		if err := Dpotrf(n, fact, n, nb); err != nil {
			return false
		}
		return choleskyResidual(a, fact, n) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Cholesky factor round-trips random SPD systems through the
// two triangular solves L·y = b, Lᵀ·x = y.
func TestPropertyCholeskySolve(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		a := spd(rng, n)
		orig := append([]float64(nil), a...)
		x := randMat(rng, n, 1)
		b := make([]float64, n)
		blas.Dgemv(blas.NoTrans, n, n, 1, orig, n, x, 1, 0, b, 1)
		if err := Dpotrf(n, a, n, 4); err != nil {
			return false
		}
		blas.Dtrsm(blas.Left, blas.Lower, blas.NoTrans, blas.NonUnit, n, 1, 1, a, n, b, n)
		blas.Dtrsm(blas.Left, blas.Lower, blas.Trans, blas.NonUnit, n, 1, 1, a, n, b, n)
		for i := range x {
			if math.Abs(b[i]-x[i]) > 1e-7*(1+math.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: blocked QR reconstructs random matrices with orthogonal Q.
func TestPropertyQRReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(20)
		n := 1 + rng.Intn(20)
		nb := 1 + rng.Intn(6)
		a := randMat(rng, m, n)
		res, orth := qrResidual(t, a, m, n, nb)
		return res < 1e-11 && orth < 1e-11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
