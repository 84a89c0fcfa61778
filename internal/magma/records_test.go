package magma

import (
	"math/rand"
	"testing"

	"dynacc/internal/cluster"
	"dynacc/internal/core"
	"dynacc/internal/gpu"
	"dynacc/internal/sim"
)

// A batched QR on three remote accelerators hands every call record back
// to its front-end. The wide update flushes each device's recorder without
// waiting, and a device with one larfb recorded ships it as a lone command:
// that flush must take no hold on a Pending nobody waits for, or the
// command's record never comes home.
func TestBatchedRemoteQRHandsBackEveryCall(t *testing.T) {
	const n, nb = 96, 16
	reg := gpu.NewRegistry()
	RegisterKernels(reg)
	opts := core.BatchedOptions()
	cl, err := cluster.New(cluster.Config{ComputeNodes: 1, Accelerators: 3, Execute: true, Registry: reg, Options: &opts})
	if err != nil {
		t.Fatal(err)
	}
	var fe *core.Client
	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		fe = node.FE
		handles, err := node.ARM.Acquire(p, 3, true)
		if err != nil {
			t.Fatal(err)
		}
		devs := make([]Device, len(handles))
		for i, h := range handles {
			devs[i] = Remote(node.Attach(h))
		}
		rng := rand.New(rand.NewSource(3))
		a, tau := make([]float64, n*n), make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		cfg := DefaultConfig()
		cfg.NB = nb
		d, err := NewDist(p, devs, n, n, nb, true)
		if err != nil {
			t.Fatal(err)
		}
		if err = d.Upload(p, a); err == nil {
			err = Dgeqrf(p, d, tau, cfg)
		}
		if err == nil {
			err = d.Download(p, a)
		}
		d.Free(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := node.ARM.Release(p, handles); err != nil {
			t.Fatal(err)
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if out := fe.CallsOut(); out != 0 {
		t.Errorf("%d call records still out after a batched QR, want 0", out)
	}
}
