package lapack

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dynacc/internal/blas"
)

// luResidual reconstructs P*A from L and U and returns the max-norm
// relative residual.
func luResidual(orig, fact []float64, ipiv []int, m, n int) float64 {
	k := m
	if n < k {
		k = n
	}
	// L: m×k unit lower; U: k×n upper.
	l := make([]float64, m*k)
	for j := 0; j < k; j++ {
		l[j+j*m] = 1
		for i := j + 1; i < m; i++ {
			l[i+j*m] = fact[i+j*m]
		}
	}
	u := make([]float64, k*n)
	for j := 0; j < n; j++ {
		for i := 0; i <= j && i < k; i++ {
			u[i+j*k] = fact[i+j*m]
		}
	}
	lu := make([]float64, m*n)
	blas.Dgemm(blas.NoTrans, blas.NoTrans, m, n, k, 1, l, m, u, k, 0, lu, m)
	// P*A: apply the recorded interchanges to a copy of the original.
	pa := append([]float64(nil), orig...)
	Dlaswp(n, pa, m, 0, k, ipiv)
	diff := 0.0
	for i := range lu {
		if d := math.Abs(lu[i] - pa[i]); d > diff {
			diff = d
		}
	}
	return diff / Dlange(MaxAbs, m, n, orig, m)
}

func TestDgetf2Factorization(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, dims := range [][2]int{{8, 8}, {12, 7}, {7, 12}, {1, 1}} {
		m, n := dims[0], dims[1]
		a := randMat(rng, m, n)
		fact := append([]float64(nil), a...)
		ipiv := make([]int, min(m, n))
		if err := Dgetf2(m, n, fact, m, ipiv); err != nil {
			t.Fatalf("%dx%d: %v", m, n, err)
		}
		if res := luResidual(a, fact, ipiv, m, n); res > 1e-12 {
			t.Errorf("%dx%d: residual %g", m, n, res)
		}
	}
}

func TestDgetrfMatchesUnblocked(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	m, n := 30, 30
	a := randMat(rng, m, n)
	f1 := append([]float64(nil), a...)
	f2 := append([]float64(nil), a...)
	p1 := make([]int, n)
	p2 := make([]int, n)
	if err := Dgetf2(m, n, f1, m, p1); err != nil {
		t.Fatal(err)
	}
	for _, nb := range []int{1, 4, 7, 64} {
		copy(f2, a)
		if err := Dgetrf(m, n, f2, m, p2, nb); err != nil {
			t.Fatal(err)
		}
		for i := range f1 {
			if math.Abs(f1[i]-f2[i]) > 1e-11 {
				t.Fatalf("nb=%d: factor differs at %d: %g vs %g", nb, i, f1[i], f2[i])
			}
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("nb=%d: pivot %d differs: %d vs %d", nb, i, p1[i], p2[i])
			}
		}
	}
}

func TestDgetrfPivotingActuallyPivots(t *testing.T) {
	// A matrix with a zero leading entry requires a row interchange.
	a := []float64{0, 1, 1, 0} // column-major [[0,1],[1,0]]
	ipiv := make([]int, 2)
	if err := Dgetrf(2, 2, a, 2, ipiv, 2); err != nil {
		t.Fatal(err)
	}
	if ipiv[0] != 1 {
		t.Errorf("ipiv[0] = %d, want 1", ipiv[0])
	}
}

func TestDgetrfSingularDetected(t *testing.T) {
	a := make([]float64, 9) // zero matrix
	ipiv := make([]int, 3)
	err := Dgetrf(3, 3, a, 3, ipiv, 2)
	var se *SingularError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v", err)
	}
	if se.Pivot != 0 {
		t.Errorf("pivot = %d", se.Pivot)
	}
	// Global pivot index for a later zero column.
	rng := rand.New(rand.NewSource(33))
	b := randMat(rng, 8, 8)
	for i := 0; i < 8; i++ {
		b[i+5*8] = 0 // zero column 5
	}
	// Make column 5 linearly dependent: exactly zero pivot only occurs
	// for exact zeros after elimination, so zero the column entirely and
	// also the rows' contributions; easiest exact case: column of zeros.
	err = Dgetrf(8, 8, b, 8, make([]int, 8), 3)
	if !errors.As(err, &se) {
		t.Fatalf("err = %v", err)
	}
	if se.Pivot != 5 {
		t.Errorf("pivot = %d, want 5", se.Pivot)
	}
}

func TestDlaswpRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	m, n := 10, 4
	a := randMat(rng, m, n)
	orig := append([]float64(nil), a...)
	ipiv := []int{3, 1, 7, 3, 9}
	Dlaswp(n, a, m, 0, len(ipiv), ipiv)
	// Undo by applying in reverse order.
	for i := len(ipiv) - 1; i >= 0; i-- {
		if ipiv[i] != i {
			blas.Dswap(n, a[i:], m, a[ipiv[i]:], m)
		}
	}
	for i := range a {
		if a[i] != orig[i] {
			t.Fatalf("row swaps did not invert at %d", i)
		}
	}
}

// Property: blocked LU reconstructs P*A = L*U for random shapes.
func TestPropertyLUReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(20)
		n := 1 + rng.Intn(20)
		nb := 1 + rng.Intn(6)
		a := randMat(rng, m, n)
		fact := append([]float64(nil), a...)
		ipiv := make([]int, min(m, n))
		if err := Dgetrf(m, n, fact, m, ipiv, nb); err != nil {
			// Random Gaussian matrices are almost surely nonsingular;
			// treat an exact zero pivot as a (vanishingly unlikely) pass.
			return true
		}
		return luResidual(a, fact, ipiv, m, n) < 1e-11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
