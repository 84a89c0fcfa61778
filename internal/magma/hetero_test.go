package magma

import (
	"math"
	"math/rand"
	"testing"

	"dynacc/internal/arm"
	"dynacc/internal/cluster"
	"dynacc/internal/gpu"
	"dynacc/internal/lapack"
	"dynacc/internal/sim"
)

// withHeteroCluster runs fn on compute node 0 of a mixed fleet — two
// C1060s, one Fermi, one FPGA card — with the devices the matrix is
// distributed over (the C1060s and the Fermi) acquired by capability
// class, which is what keeps the FPGA out of the set.
func withHeteroCluster(t *testing.T, exec bool, fn func(p *sim.Proc, devs []Device)) {
	t.Helper()
	reg := gpu.NewRegistry()
	RegisterKernels(reg)
	cl, err := cluster.New(cluster.Config{
		ComputeNodes: 1,
		Accelerators: 4,
		Fleet:        "tesla-c1060:2,tesla-m2050:1,fpga:1",
		Registry:     reg,
		Execute:      exec,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Spawn(0, func(p *sim.Proc, n *cluster.Node) {
		var all []arm.Handle
		var devs []Device
		for _, want := range []struct {
			class string
			count int
		}{{"c1060", 2}, {"fermi", 1}} {
			hs, err := n.ARM.AcquireCapable(p, want.count, false, arm.Constraint{Class: want.class})
			if err != nil {
				t.Errorf("acquire %s: %v", want.class, err)
				return
			}
			all = append(all, hs...)
			for _, h := range hs {
				devs = append(devs, Remote(n.Attach(h)))
			}
		}
		defer n.ARM.Release(p, all)
		fn(p, devs)
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDgeqrfHeterogeneousMatchesLAPACK factors a matrix distributed
// over devices of different models (two C1060s and a Fermi) under the
// classic schedule and checks factors and tau against LAPACK.
func TestDgeqrfHeterogeneousMatchesLAPACK(t *testing.T) {
	withHeteroCluster(t, true, func(p *sim.Proc, devs []Device) {
		n, nb := 80, 16
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
				t.Fatalf("factor differs at %d: %g vs %g", i, got[i], ref[i])
			}
		}
		for i := range tau {
			if math.Abs(tau[i]-refTau[i]) > 1e-10 {
				t.Fatalf("tau[%d] = %g vs %g", i, tau[i], refTau[i])
			}
		}
	})
}

// TestDgeqrfHeterogeneousModelMode runs the same mixed-model
// distribution with nil payloads: virtual time must advance and nothing
// may deadlock.
func TestDgeqrfHeterogeneousModelMode(t *testing.T) {
	withHeteroCluster(t, false, func(p *sim.Proc, devs []Device) {
		dist, err := NewDist(p, devs, 512, 512, 128, false)
		if err != nil {
			t.Fatal(err)
		}
		defer dist.Free(p)
		if err := dist.Upload(p, nil); err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		start := p.Now()
		if err := Dgeqrf(p, dist, nil, cfg); err != nil {
			t.Fatal(err)
		}
		if p.Now() <= start {
			t.Error("no virtual time spent")
		}
	})
}
