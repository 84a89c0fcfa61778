package bench

import (
	"fmt"

	"dynacc/internal/accel"
	"dynacc/internal/cluster"
	"dynacc/internal/gpu"
	"dynacc/internal/magma"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
)

// paperNs is Figure 9/10's matrix-size axis.
func paperNs(quick bool) []int {
	if quick {
		return []int{1024, 2048, 4032}
	}
	return []int{1024, 2048, 3072, 4032, 5184, 6048, 7200, 8064, 8928, 10240}
}

// factorKind selects the routine under test.
type factorKind int

const (
	factorQR factorKind = iota
	factorCholesky
	factorLU
)

// runFactorization builds a fresh cluster with either one node-local GPU
// (remoteGPUs == 0) or remoteGPUs network-attached GPUs, runs the hybrid
// factorization of an n×n matrix in model mode, and returns the virtual
// time of the factorization call (the upload, like MAGMA's testing
// harness, is outside the timer).
func runFactorization(kind factorKind, remoteGPUs, n int, cfg magma.Config) sim.Duration {
	return runFactorizationNet(kind, remoteGPUs, n, cfg, nil)
}

// runFactorizationNet additionally selects the interconnect (nil = the
// paper's QDR InfiniBand).
func runFactorizationNet(kind factorKind, remoteGPUs, n int, cfg magma.Config, net *netmodel.Params) sim.Duration {
	reg := gpu.NewRegistry()
	magma.RegisterKernels(reg)
	localGPUs := 0
	if remoteGPUs == 0 {
		localGPUs = 1
	}
	cl, err := cluster.New(cluster.Config{
		ComputeNodes: 1,
		Accelerators: remoteGPUs,
		Registry:     reg,
		LocalGPUs:    localGPUs,
		Net:          net,
	})
	if err != nil {
		panic(err)
	}
	var elapsed sim.Duration
	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		var devs []accel.Device
		if remoteGPUs > 0 {
			handles, err := node.ARM.Acquire(p, remoteGPUs, false)
			if err != nil {
				panic(err)
			}
			defer node.ARM.Release(p, handles)
			for _, h := range handles {
				devs = append(devs, accel.Remote(node.Attach(h)))
			}
		} else {
			ld := accel.Local(p, node.Local[0])
			defer ld.Close()
			devs = []accel.Device{ld}
		}
		dist, err := magma.NewDist(p, devs, n, n, cfg.NB, false)
		if err != nil {
			panic(err)
		}
		defer dist.Free(p)
		if err := dist.Upload(p, nil); err != nil {
			panic(err)
		}
		start := p.Now()
		switch kind {
		case factorQR:
			err = magma.Dgeqrf(p, dist, nil, cfg)
		case factorCholesky:
			err = magma.Dpotrf(p, dist, cfg)
		case factorLU:
			err = magma.Dgetrf(p, dist, nil, cfg)
		}
		if err != nil {
			panic(err)
		}
		elapsed = p.Now().Sub(start)
	})
	if _, err := cl.Run(); err != nil {
		panic(err)
	}
	return elapsed
}

// linalgFigure sweeps the four configurations of Figures 9 and 10.
func linalgFigure(id, title string, kind factorKind, flops func(n int) float64, o Options) *Figure {
	ns := paperNs(o.Quick)
	f := &Figure{
		ID:     id,
		Title:  title,
		XLabel: "N",
		YLabel: "GFlop/s",
	}
	for _, n := range ns {
		f.X = append(f.X, float64(n))
	}
	cfg := magma.DefaultConfig()
	configs := []struct {
		label  string
		remote int
	}{
		{"CUDA-local-GPU", 0},
		{"1-network-GPU", 1},
		{"2-network-GPUs", 2},
		{"3-network-GPUs", 3},
	}
	for _, c := range configs {
		ys := make([]float64, len(ns))
		for i, n := range ns {
			t := runFactorization(kind, c.remote, n, cfg)
			ys[i] = flops(n) / t.Seconds() / 1e9
		}
		f.Series = append(f.Series, Series{Label: c.label, Y: ys})
	}
	return f
}

// Fig9 reproduces Figure 9: MAGMA QR factorization GFlop/s on a local
// GPU vs 1-3 network-attached GPUs.
func Fig9(o Options) *Figure {
	f := linalgFigure("fig9", "MAGMA QR factorization: node-local vs network-attached GPUs",
		factorQR, func(n int) float64 { return magma.QRFlops(n, n) }, o)
	f.Notes = append(f.Notes,
		"paper: 1 network GPU slightly below local (QR is bandwidth-sensitive);",
		"3 network GPUs reach ~2.2x the local GPU at N=10240")
	if y3, ok := f.At("3-network-GPUs", 10240); ok {
		if yl, ok2 := f.At("CUDA-local-GPU", 10240); ok2 && yl > 0 {
			f.Notes = append(f.Notes, fmt.Sprintf("measured speedup at N=10240: %.2fx", y3/yl))
		}
	}
	return f
}

// ExtE extends Figures 9/10 to the third MAGMA workhorse, LU with
// partial pivoting (magma_dgetrf_mgpu): not evaluated in the paper, but
// the natural check that the architecture's benefit is not specific to
// QR/Cholesky. LU adds device-side row interchanges to the traffic.
func ExtE(o Options) *Figure {
	f := linalgFigure("extE", "MAGMA LU factorization (extension): node-local vs network-attached GPUs",
		factorLU, func(n int) float64 { return 2.0 / 3.0 * float64(n) * float64(n) * float64(n) }, o)
	f.Notes = append(f.Notes,
		"extension: same hybrid structure as Figures 9-10, plus the pivot-row",
		"swaps (dlaswp) on every GPU; orderings must match the QR/Cholesky story")
	return f
}

// Fig10 reproduces Figure 10: MAGMA Cholesky factorization GFlop/s.
func Fig10(o Options) *Figure {
	f := linalgFigure("fig10", "MAGMA Cholesky factorization: node-local vs network-attached GPUs",
		factorCholesky, func(n int) float64 { return magma.CholeskyFlops(n) }, o)
	f.Notes = append(f.Notes,
		"paper: Cholesky is less bandwidth-sensitive than QR (1 network GPU closer",
		"to local); multi-GPU speedup smaller than QR's")
	return f
}
