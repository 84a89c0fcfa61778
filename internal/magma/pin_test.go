package magma

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dynacc/internal/gpu"
	"dynacc/internal/sim"
)

// The execute-mode hybrid QR is pinned bit for bit, as the host LAPACK
// factorizations are in internal/lapack: the host panels and the devices'
// trailing updates both run internal/blas, so a kernel that changed the
// order of any IEEE operation moves this digest (the first 8 bytes of the
// SHA-256 of the factor, then tau, bits). Like those, the digest is
// amd64's, where no multiply-add is fused.
func TestDgeqrfThreeRemoteGPUsBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the digest is of amd64 arithmetic, which never fuses a multiply-add")
	}
	const n, want = 384, "ef12766f12f2f878"
	withCluster(t, 3, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
		a := randSquare(rand.New(rand.NewSource(1)), n)
		cfg := DefaultConfig()
		dist, err := NewDist(p, devs, n, n, cfg.NB, true)
		if err != nil {
			t.Fatal(err)
		}
		defer dist.Free(p)
		tau := make([]float64, n)
		if err = dist.Upload(p, a); err == nil {
			err = Dgeqrf(p, dist, tau, cfg)
		}
		if err == nil {
			err = dist.Download(p, a)
		}
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var b [8]byte
		for _, xs := range [][]float64{a, tau} {
			for _, v := range xs {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)[:8]); got != want {
			t.Errorf("factor bits digest %s, want %s", got, want)
		}
	})
}
