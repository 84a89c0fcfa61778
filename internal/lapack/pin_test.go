package lapack

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dynacc/internal/blas"
)

// bitsDigest is the first 8 bytes of the SHA-256 of the float64 bit
// patterns of xs, in order, as hex: a pin that moves when any one bit of
// any factor does.
func bitsDigest(xs ...[]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		for _, v := range x {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// The factorizations are pinned bit for bit: a BLAS kernel rewritten for
// speed must give every output element the same IEEE operations in the
// same order, and these digests say whether it did. They are amd64's: the
// Go spec lets other architectures fuse a multiply and an add, which
// rounds once instead of twice.
func TestFactorBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the digests are of amd64 arithmetic, which never fuses a multiply-add")
	}
	qr := func() string {
		const n, nb = 384, 128
		a := randMat(rand.New(rand.NewSource(1)), n, n)
		tau := make([]float64, n)
		Dgeqrf(n, n, a, n, tau, nb)
		return bitsDigest(a, tau)
	}
	lu := func() string {
		const n = 256
		a := randMat(rand.New(rand.NewSource(2)), n, n)
		ipiv := make([]int, n)
		if err := Dgetrf(n, n, a, n, ipiv, DefaultBlock); err != nil {
			t.Fatal(err)
		}
		piv := make([]float64, n)
		for i, p := range ipiv {
			piv[i] = float64(p)
		}
		return bitsDigest(a, piv)
	}
	chol := func() string {
		const n = 256
		a := spd(rand.New(rand.NewSource(3)), n)
		if err := Dpotrf(n, a, n, DefaultBlock); err != nil {
			t.Fatal(err)
		}
		return bitsDigest(a)
	}
	for _, c := range []struct {
		name string
		run  func() string
		want string
	}{
		{"Dgeqrf n=384 nb=128", qr, "121004b99554f016"},
		{"Dgetrf n=256", lu, "1bed2242ebd928ee"},
		{"Dpotrf n=256", chol, "1e7820b7640f10e1"},
	} {
		if got := c.run(); got != c.want {
			t.Errorf("%s: factor bits digest %s, want %s", c.name, got, c.want)
		}
	}
}

// A warm Dlarfb, the trailing update of every QR, allocates nothing.
func TestWarmDlarfbAllocatesNothing(t *testing.T) {
	const m, n, k = 96, 80, 16
	rng := rand.New(rand.NewSource(4))
	v, c := randMat(rng, m, k), randMat(rng, m, n)
	tau := make([]float64, k)
	Dgeqr2(m, k, v, m, tau, make([]float64, k))
	tm := make([]float64, k*k)
	Dlarft(m, k, v, m, tau, tm, k)
	work := make([]float64, n*k)
	if allocs := testing.AllocsPerRun(10, func() {
		Dlarfb(blas.Trans, m, n, k, v, m, tm, k, c, m, work)
	}); allocs != 0 {
		t.Errorf("Dlarfb: %.1f allocations a warm call, want 0", allocs)
	}
}
