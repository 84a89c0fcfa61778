package magma

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dynacc/internal/accel"
	"dynacc/internal/blas"
	"dynacc/internal/cluster"
	"dynacc/internal/gpu"
	"dynacc/internal/lapack"
	"dynacc/internal/sim"
)

// withCluster runs fn on compute node 0 of a cluster with nAC
// network-attached accelerators whose registry holds the MAGMA kernels.
func withCluster(t *testing.T, nAC int, exec bool, localGPUs int, fn func(p *sim.Proc, devs []Device, local []*gpu.Device)) {
	t.Helper()
	reg := gpu.NewRegistry()
	RegisterKernels(reg)
	cl, err := cluster.New(cluster.Config{
		ComputeNodes: 1,
		Accelerators: nAC,
		Registry:     reg,
		Execute:      exec,
		LocalGPUs:    localGPUs,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Spawn(0, func(p *sim.Proc, n *cluster.Node) {
		var devs []Device
		if nAC > 0 {
			handles, err := n.ARM.Acquire(p, nAC, false)
			if err != nil {
				t.Error(err)
				return
			}
			for _, h := range handles {
				devs = append(devs, Remote(n.Attach(h)))
			}
			defer n.ARM.Release(p, handles)
		}
		fn(p, devs, n.Local)
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

func randSquare(rng *rand.Rand, n int) []float64 {
	a := make([]float64, n*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	return a
}

func spdMatrix(rng *rand.Rand, n int) []float64 {
	b := randSquare(rng, n)
	a := make([]float64, n*n)
	blas.Dsyrk(blas.Lower, blas.NoTrans, n, n, 1, b, n, 0, a, n)
	for i := 0; i < n; i++ {
		a[i+i*n] += float64(n)
		for j := i + 1; j < n; j++ {
			a[i+j*n] = a[j+i*n]
		}
	}
	return a
}

func TestFirstOwnedBlock(t *testing.T) {
	cases := []struct{ g, from, G, want int }{
		{0, 0, 3, 0}, {0, 1, 3, 3}, {1, 1, 3, 1}, {2, 1, 3, 2},
		{1, 5, 3, 7}, {0, 3, 3, 3}, {2, 9, 3, 11}, {0, 4, 1, 4},
	}
	for _, c := range cases {
		if got := firstOwnedBlock(c.g, c.from, c.G); got != c.want {
			t.Errorf("firstOwnedBlock(%d,%d,%d) = %d, want %d", c.g, c.from, c.G, got, c.want)
		}
	}
}

func TestGemmEffRampsUp(t *testing.T) {
	if gemmEff(64, 64, 64) >= gemmEff(1024, 1024, 1024) {
		t.Error("efficiency must grow with size")
	}
	if gemmEff(4096, 4096, 4096) > maxGemmEff {
		t.Error("efficiency exceeds cap")
	}
}

func TestQRFlopsAndCholeskyFlops(t *testing.T) {
	if got, want := QRFlops(100, 100), 2*100.0*100*100-2.0/3.0*1e6; math.Abs(got-want) > 1 {
		t.Errorf("QRFlops = %g, want %g", got, want)
	}
	if got := CholeskyFlops(300); math.Abs(got-9e6) > 1 {
		t.Errorf("CholeskyFlops = %g", got)
	}
}

// qrAgainstLAPACK factors A on the given devices and compares factors and
// tau against the host LAPACK reference.
func qrAgainstLAPACK(t *testing.T, p *sim.Proc, devs []Device, n, nb int, lookahead bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	a := randSquare(rng, n)
	ref := append([]float64(nil), a...)
	refTau := make([]float64, n)
	lapack.Dgeqrf(n, n, ref, n, refTau, nb)

	dist, err := NewDist(p, devs, n, n, nb, true)
	if err != nil {
		t.Fatal(err)
	}
	defer dist.Free(p)
	if err := dist.Upload(p, a); err != nil {
		t.Fatal(err)
	}
	tau := make([]float64, n)
	cfg := DefaultConfig()
	cfg.NB = nb
	cfg.Lookahead = lookahead
	if err := Dgeqrf(p, dist, tau, cfg); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, n*n)
	if err := dist.Download(p, got); err != nil {
		t.Fatal(err)
	}
	scale := lapack.Dlange(lapack.MaxAbs, n, n, ref, n)
	for i := range got {
		if math.Abs(got[i]-ref[i]) > 1e-10*scale {
			t.Fatalf("factor differs at %d: %g vs %g (G=%d)", i, got[i], ref[i], len(devs))
		}
	}
	for i := range tau {
		if math.Abs(tau[i]-refTau[i]) > 1e-10 {
			t.Fatalf("tau[%d] = %g vs %g", i, tau[i], refTau[i])
		}
	}
}

func TestDgeqrfSingleRemoteGPUMatchesLAPACK(t *testing.T) {
	withCluster(t, 1, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
		qrAgainstLAPACK(t, p, devs, 96, 16, true)
	})
}

func TestDgeqrfMultiGPUMatchesLAPACK(t *testing.T) {
	for _, g := range []int{2, 3} {
		withCluster(t, g, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
			qrAgainstLAPACK(t, p, devs, 80, 16, true)
		})
	}
}

func TestDgeqrfNoLookaheadSameResult(t *testing.T) {
	withCluster(t, 2, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
		qrAgainstLAPACK(t, p, devs, 64, 16, false)
	})
}

func TestDgeqrfLocalGPUMatchesLAPACK(t *testing.T) {
	withCluster(t, 0, true, 1, func(p *sim.Proc, _ []Device, local []*gpu.Device) {
		ld := accel.Local(p, local[0])
		defer ld.Close()
		qrAgainstLAPACK(t, p, []Device{ld}, 72, 16, true)
	})
}

func TestDgeqrfOddSizesAndBlocks(t *testing.T) {
	// Non-divisible n/nb exercises the partial last block.
	withCluster(t, 2, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
		qrAgainstLAPACK(t, p, devs, 57, 12, true)
	})
}

func TestDgeqrfRejectsWideMatrix(t *testing.T) {
	withCluster(t, 1, false, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
		dist, err := NewDist(p, devs, 8, 16, 4, false)
		if err != nil {
			t.Fatal(err)
		}
		defer dist.Free(p)
		if err := Dgeqrf(p, dist, nil, DefaultConfig()); err == nil {
			t.Error("wide matrix accepted")
		}
	})
}

func cholAgainstLAPACK(t *testing.T, p *sim.Proc, devs []Device, n, nb int, lookahead bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	a := spdMatrix(rng, n)
	ref := append([]float64(nil), a...)
	if err := lapack.Dpotrf(n, ref, n, nb); err != nil {
		t.Fatal(err)
	}
	dist, err := NewDist(p, devs, n, n, nb, true)
	if err != nil {
		t.Fatal(err)
	}
	defer dist.Free(p)
	if err := dist.Upload(p, a); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.NB = nb
	cfg.Lookahead = lookahead
	if err := Dpotrf(p, dist, cfg); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, n*n)
	if err := dist.Download(p, got); err != nil {
		t.Fatal(err)
	}
	scale := lapack.Dlange(lapack.MaxAbs, n, n, ref, n)
	// Compare the lower triangle only (the upper holds junk from the
	// rectangular trailing updates, as on real GPUs with full-tile
	// kernels).
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			if math.Abs(got[i+j*n]-ref[i+j*n]) > 1e-10*scale {
				t.Fatalf("L differs at (%d,%d): %g vs %g (G=%d)", i, j, got[i+j*n], ref[i+j*n], len(devs))
			}
		}
	}
}

func TestDpotrfSingleRemoteGPUMatchesLAPACK(t *testing.T) {
	withCluster(t, 1, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
		cholAgainstLAPACK(t, p, devs, 96, 16, true)
	})
}

func TestDpotrfMultiGPUMatchesLAPACK(t *testing.T) {
	for _, g := range []int{2, 3} {
		withCluster(t, g, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
			cholAgainstLAPACK(t, p, devs, 80, 16, true)
		})
	}
}

func TestDpotrfLocalAndOddSizes(t *testing.T) {
	withCluster(t, 0, true, 1, func(p *sim.Proc, _ []Device, local []*gpu.Device) {
		ld := accel.Local(p, local[0])
		defer ld.Close()
		cholAgainstLAPACK(t, p, []Device{ld}, 61, 13, true)
	})
}

func TestDpotrfRejectsNonSquare(t *testing.T) {
	withCluster(t, 1, false, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
		dist, err := NewDist(p, devs, 16, 8, 4, false)
		if err != nil {
			t.Fatal(err)
		}
		defer dist.Free(p)
		if err := Dpotrf(p, dist, DefaultConfig()); err == nil {
			t.Error("non-square accepted")
		}
	})
}

func TestDpotrfIndefiniteDetected(t *testing.T) {
	withCluster(t, 1, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
		n := 32
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			a[i+i*n] = -1
		}
		dist, err := NewDist(p, devs, n, n, 8, true)
		if err != nil {
			t.Fatal(err)
		}
		defer dist.Free(p)
		if err := dist.Upload(p, a); err != nil {
			t.Fatal(err)
		}
		err = Dpotrf(p, dist, DefaultConfig())
		if err == nil {
			t.Error("indefinite matrix factored")
		}
	})
}

// Timing shapes (model mode): these are the qualitative facts behind
// Figures 9 and 10.
func qrModelTime(t *testing.T, nAC, localGPUs, n int, lookahead bool) sim.Duration {
	t.Helper()
	var elapsed sim.Duration
	withCluster(t, nAC, false, localGPUs, func(p *sim.Proc, devs []Device, local []*gpu.Device) {
		if localGPUs > 0 {
			ld := accel.Local(p, local[0])
			defer ld.Close()
			devs = []Device{ld}
		}
		dist, err := NewDist(p, devs, n, n, 128, false)
		if err != nil {
			t.Fatal(err)
		}
		defer dist.Free(p)
		if err := dist.Upload(p, nil); err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Lookahead = lookahead
		start := p.Now()
		if err := Dgeqrf(p, dist, nil, cfg); err != nil {
			t.Fatal(err)
		}
		elapsed = p.Now().Sub(start)
	})
	return elapsed
}

func TestQRShapeLocalBeatsOneRemote(t *testing.T) {
	const n = 4032
	tLocal := qrModelTime(t, 0, 1, n, true)
	tRemote := qrModelTime(t, 1, 0, n, true)
	if tLocal >= tRemote {
		t.Errorf("local GPU (%v) not faster than 1 network-attached GPU (%v)", tLocal, tRemote)
	}
	// The gap must be moderate, not catastrophic (paper: "suffers
	// slightly").
	if float64(tRemote)/float64(tLocal) > 1.6 {
		t.Errorf("remote/local = %.2f, implausibly large", float64(tRemote)/float64(tLocal))
	}
}

func TestQRShapeThreeRemoteBeatLocal(t *testing.T) {
	const n = 4032
	tLocal := qrModelTime(t, 0, 1, n, true)
	t3 := qrModelTime(t, 3, 0, n, true)
	if t3 >= tLocal {
		t.Errorf("3 network-attached GPUs (%v) not faster than 1 local (%v)", t3, tLocal)
	}
}

func TestQRLookaheadHelps(t *testing.T) {
	const n = 3072
	withLA := qrModelTime(t, 1, 0, n, true)
	without := qrModelTime(t, 1, 0, n, false)
	if withLA >= without {
		t.Errorf("lookahead (%v) not faster than none (%v)", withLA, without)
	}
}

func TestDistValidation(t *testing.T) {
	withCluster(t, 1, false, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
		if _, err := NewDist(p, nil, 4, 4, 2, false); err == nil {
			t.Error("no devices accepted")
		}
		if _, err := NewDist(p, devs, 0, 4, 2, false); err == nil {
			t.Error("zero rows accepted")
		}
		if _, err := NewDist(p, devs, 4, 4, 0, false); err == nil {
			t.Error("zero block accepted")
		}
	})
}

func TestDistUploadDownloadRoundTrip(t *testing.T) {
	withCluster(t, 3, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
		rng := rand.New(rand.NewSource(5))
		m, n, nb := 30, 23, 4
		a := make([]float64, m*n)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		dist, err := NewDist(p, devs, m, n, nb, true)
		if err != nil {
			t.Fatal(err)
		}
		defer dist.Free(p)
		if err := dist.Upload(p, a); err != nil {
			t.Fatal(err)
		}
		back := make([]float64, m*n)
		if err := dist.Download(p, back); err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != back[i] {
				t.Fatalf("element %d: %g vs %g", i, a[i], back[i])
			}
		}
	})
}

// luAgainstLAPACK factors A on the devices and compares factors and
// pivots against the host reference.
func luAgainstLAPACK(t *testing.T, p *sim.Proc, devs []Device, m, n, nb int, lookahead bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(55))
	a := make([]float64, m*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	ref := append([]float64(nil), a...)
	kk := m
	if n < kk {
		kk = n
	}
	refPiv := make([]int, kk)
	if err := lapack.Dgetrf(m, n, ref, m, refPiv, nb); err != nil {
		t.Fatal(err)
	}
	dist, err := NewDist(p, devs, m, n, nb, true)
	if err != nil {
		t.Fatal(err)
	}
	defer dist.Free(p)
	if err := dist.Upload(p, a); err != nil {
		t.Fatal(err)
	}
	ipiv := make([]int, kk)
	cfg := DefaultConfig()
	cfg.NB = nb
	cfg.Lookahead = lookahead
	if err := Dgetrf(p, dist, ipiv, cfg); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, m*n)
	if err := dist.Download(p, got); err != nil {
		t.Fatal(err)
	}
	scale := lapack.Dlange(lapack.MaxAbs, m, n, ref, m)
	for i := range got {
		if math.Abs(got[i]-ref[i]) > 1e-10*scale {
			t.Fatalf("LU factor differs at %d: %g vs %g (G=%d)", i, got[i], ref[i], len(devs))
		}
	}
	for i := range ipiv {
		if ipiv[i] != refPiv[i] {
			t.Fatalf("ipiv[%d] = %d, want %d", i, ipiv[i], refPiv[i])
		}
	}
}

func TestDgetrfSingleRemoteGPUMatchesLAPACK(t *testing.T) {
	withCluster(t, 1, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
		luAgainstLAPACK(t, p, devs, 96, 96, 16, true)
	})
}

func TestDgetrfMultiGPUMatchesLAPACK(t *testing.T) {
	for _, g := range []int{2, 3} {
		withCluster(t, g, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
			luAgainstLAPACK(t, p, devs, 80, 80, 16, true)
		})
	}
}

func TestDgetrfRectangularShapes(t *testing.T) {
	withCluster(t, 2, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
		luAgainstLAPACK(t, p, devs, 70, 45, 12, true) // tall
	})
	withCluster(t, 2, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
		luAgainstLAPACK(t, p, devs, 45, 70, 12, true) // wide
	})
}

func TestDgetrfNoLookaheadSameResult(t *testing.T) {
	withCluster(t, 2, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
		luAgainstLAPACK(t, p, devs, 64, 64, 16, false)
	})
}

func TestDgetrfLocalGPU(t *testing.T) {
	withCluster(t, 0, true, 1, func(p *sim.Proc, _ []Device, local []*gpu.Device) {
		ld := accel.Local(p, local[0])
		defer ld.Close()
		luAgainstLAPACK(t, p, []Device{ld}, 61, 61, 13, true)
	})
}

func TestDgetrfSingularPropagates(t *testing.T) {
	withCluster(t, 1, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
		n := 32
		a := make([]float64, n*n) // zero matrix
		dist, err := NewDist(p, devs, n, n, 8, true)
		if err != nil {
			t.Fatal(err)
		}
		defer dist.Free(p)
		if err := dist.Upload(p, a); err != nil {
			t.Fatal(err)
		}
		if err := Dgetrf(p, dist, make([]int, n), DefaultConfig()); err == nil {
			t.Error("singular matrix factored")
		}
	})
}

func TestLUShapeMultiGPUSpeedup(t *testing.T) {
	// Model mode: 3 remote GPUs must beat 1 remote GPU at a paper-scale
	// size (LU has the same hybrid structure as QR/Cholesky).
	timeLU := func(gpus, n int) sim.Duration {
		var elapsed sim.Duration
		withCluster(t, gpus, false, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
			dist, err := NewDist(p, devs, n, n, 128, false)
			if err != nil {
				t.Fatal(err)
			}
			defer dist.Free(p)
			if err := dist.Upload(p, nil); err != nil {
				t.Fatal(err)
			}
			start := p.Now()
			if err := Dgetrf(p, dist, nil, DefaultConfig()); err != nil {
				t.Fatal(err)
			}
			elapsed = p.Now().Sub(start)
		})
		return elapsed
	}
	t1 := timeLU(1, 4032)
	t3 := timeLU(3, 4032)
	if t3 >= t1 {
		t.Errorf("3 GPUs (%v) not faster than 1 (%v)", t3, t1)
	}
	// Throughput sanity: 2/3·n³ flops at a plausible hybrid rate.
	gf := 2.0 / 3 * 4032 * 4032 * 4032 / t1.Seconds() / 1e9
	if gf < 20 || gf > 78 {
		t.Errorf("1-GPU LU at %.1f GFlop/s, implausible for a C1060", gf)
	}
}

// More GPUs than column blocks: the surplus devices hold no columns but
// the factorizations must still be correct.
func TestMoreGPUsThanBlocks(t *testing.T) {
	withCluster(t, 3, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
		// n=24, nb=16 -> 2 blocks for 3 GPUs.
		qrAgainstLAPACK(t, p, devs, 24, 16, true)
	})
	withCluster(t, 3, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
		cholAgainstLAPACK(t, p, devs, 24, 16, true)
	})
	withCluster(t, 3, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
		luAgainstLAPACK(t, p, devs, 24, 24, 16, true)
	})
}

// A single block on a single GPU (panel == matrix) must degenerate
// gracefully.
func TestSinglePanelMatrix(t *testing.T) {
	withCluster(t, 1, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
		qrAgainstLAPACK(t, p, devs, 16, 16, true)
		cholAgainstLAPACK(t, p, devs, 16, 16, true)
		luAgainstLAPACK(t, p, devs, 16, 16, 16, true)
	})
}

// D2D broadcast: Cholesky with accelerator-to-accelerator L21 transfers
// must produce the identical factorization and beat the host route.
func TestDpotrfD2DBroadcast(t *testing.T) {
	withCluster(t, 3, true, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
		rng := rand.New(rand.NewSource(99))
		n, nb := 80, 16
		a := spdMatrix(rng, n)
		ref := append([]float64(nil), a...)
		if err := lapack.Dpotrf(n, ref, n, nb); err != nil {
			t.Fatal(err)
		}
		dist, err := NewDist(p, devs, n, n, nb, true)
		if err != nil {
			t.Fatal(err)
		}
		defer dist.Free(p)
		if err := dist.Upload(p, a); err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.NB = nb
		cfg.Direct = true
		if err := Dpotrf(p, dist, cfg); err != nil {
			t.Fatal(err)
		}
		got := make([]float64, n*n)
		if err := dist.Download(p, got); err != nil {
			t.Fatal(err)
		}
		scale := lapack.Dlange(lapack.MaxAbs, n, n, ref, n)
		for j := 0; j < n; j++ {
			for i := j; i < n; i++ {
				if math.Abs(got[i+j*n]-ref[i+j*n]) > 1e-10*scale {
					t.Fatalf("L differs at (%d,%d) with D2D broadcast", i, j)
				}
			}
		}
	})
}

// Mixed local+remote devices: the D2D path must fall back to the host
// route for the local GPU and still produce the right factors.
func TestDpotrfD2DFallbackWithLocalDevice(t *testing.T) {
	withCluster(t, 1, true, 1, func(p *sim.Proc, remote []Device, local []*gpu.Device) {
		ld := accel.Local(p, local[0])
		defer ld.Close()
		devs := []Device{remote[0], ld}
		rng := rand.New(rand.NewSource(98))
		n, nb := 48, 8
		a := spdMatrix(rng, n)
		ref := append([]float64(nil), a...)
		if err := lapack.Dpotrf(n, ref, n, nb); err != nil {
			t.Fatal(err)
		}
		dist, err := NewDist(p, devs, n, n, nb, true)
		if err != nil {
			t.Fatal(err)
		}
		defer dist.Free(p)
		if err := dist.Upload(p, a); err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.NB = nb
		cfg.Direct = true // must fall back transparently
		if err := Dpotrf(p, dist, cfg); err != nil {
			t.Fatal(err)
		}
		got := make([]float64, n*n)
		if err := dist.Download(p, got); err != nil {
			t.Fatal(err)
		}
		scale := lapack.Dlange(lapack.MaxAbs, n, n, ref, n)
		for j := 0; j < n; j++ {
			for i := j; i < n; i++ {
				if math.Abs(got[i+j*n]-ref[i+j*n]) > 1e-10*scale {
					t.Fatalf("L differs at (%d,%d) with mixed devices", i, j)
				}
			}
		}
	})
}

func TestD2DBroadcastFasterThanHostRoute(t *testing.T) {
	timeChol := func(d2d bool) sim.Duration {
		var elapsed sim.Duration
		withCluster(t, 3, false, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
			cfg := DefaultConfig()
			cfg.Direct = d2d
			dist, err := NewDist(p, devs, 4032, 4032, cfg.NB, false)
			if err != nil {
				t.Fatal(err)
			}
			defer dist.Free(p)
			if err := dist.Upload(p, nil); err != nil {
				t.Fatal(err)
			}
			start := p.Now()
			if err := Dpotrf(p, dist, cfg); err != nil {
				t.Fatal(err)
			}
			elapsed = p.Now().Sub(start)
		})
		return elapsed
	}
	host := timeChol(false)
	d2d := timeChol(true)
	if d2d >= host {
		t.Errorf("D2D broadcast (%v) not faster than host route (%v)", d2d, host)
	}
}

// A decorator that embeds Device (benchmark/layers.go's tracedDev does)
// must not change the route: the wrapped devices still broadcast L21
// daemon-to-daemon, in the same virtual time as the bare ones (the host
// route takes 240.7 ms here).
func TestDpotrfD2DThroughDecorator(t *testing.T) {
	timeChol := func(wrap bool) sim.Duration {
		var elapsed sim.Duration
		withCluster(t, 3, false, 0, func(p *sim.Proc, devs []Device, _ []*gpu.Device) {
			if wrap {
				for g, d := range devs {
					devs[g] = struct{ Device }{d}
				}
			}
			cfg := DefaultConfig()
			cfg.Direct = true
			dist, err := NewDist(p, devs, 4032, 4032, cfg.NB, false)
			if err != nil {
				t.Fatal(err)
			}
			defer dist.Free(p)
			if err := dist.Upload(p, nil); err != nil {
				t.Fatal(err)
			}
			start := p.Now()
			if err := Dpotrf(p, dist, cfg); err != nil {
				t.Fatal(err)
			}
			elapsed = p.Now().Sub(start)
		})
		return elapsed
	}
	bare, wrapped := timeChol(false), timeChol(true)
	if got := fmt.Sprintf("%.1f", bare.Seconds()*1e3); got != "218.6" {
		t.Errorf("bare D2D Cholesky took %s virtual ms, want 218.6", got)
	}
	if wrapped != bare {
		t.Errorf("decorated devices took %v, bare %v: the decorator changed the route", wrapped, bare)
	}
}
