package faults_test

// A run without faults ends with every minimpi record back in its World:
// every Request was waited on or freed, and every Message was received.
// This is the first clause of the quiescence oracle, checked here with no
// allowlist over the shapes that left records out before the one record
// rule: MP2C's halo exchanges, a collective on the application
// communicator, a replicated sharded ARM under a shared round, and a
// multi-GPU factorization.

import (
	"math/rand"
	"testing"

	"dynacc/internal/accel"
	"dynacc/internal/cluster"
	"dynacc/internal/gpu"
	"dynacc/internal/magma"
	"dynacc/internal/mp2c"
	"dynacc/internal/sim"
)

func TestFaultFreeRunsReturnEveryRecord(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  cluster.Config
		main func(t *testing.T, p *sim.Proc, n *cluster.Node)
	}{
		{"mp2c-step", cluster.Config{ComputeNodes: 2, Accelerators: 2}, mp2cSteps},
		{"app-barrier", cluster.Config{ComputeNodes: 3, Accelerators: 2}, func(t *testing.T, p *sim.Proc, n *cluster.Node) {
			n.App.Barrier(p)
		}},
		{"sharded-shared-round", cluster.Config{ComputeNodes: 2, Accelerators: 2, ShareCapacity: 2, ARMShards: 3, ARMReplicas: true}, sharedRound},
		{"qr-three-gpus", cluster.Config{ComputeNodes: 1, Accelerators: 3, Execute: true}, threeGPUQR},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := gpu.NewRegistry()
			mp2c.RegisterKernels(reg)
			magma.RegisterKernels(reg)
			tc.cfg.Registry = reg
			cl, err := cluster.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			cl.SpawnAll(func(p *sim.Proc, n *cluster.Node) { tc.main(t, p, n) })
			if _, err := cl.Run(); err != nil {
				t.Fatal(err)
			}
			if reqs, msgs := cl.World.RecordsOut(); reqs != 0 || msgs != 0 {
				t.Errorf("RecordsOut = %d requests, %d messages after the run, want 0, 0", reqs, msgs)
			}
		})
	}
}

// mp2cSteps runs two coupled MP2C steps on a remote accelerator per rank.
func mp2cSteps(t *testing.T, p *sim.Proc, n *cluster.Node) {
	handles, err := n.ARM.Acquire(p, 1, true)
	if err != nil {
		t.Error(err)
		return
	}
	defer n.ARM.Release(p, handles)
	cfg := mp2c.Defaults(400)
	cfg.Steps = 2
	s, err := mp2c.NewSim(n.App, accel.Remote(n.Attach(handles[0])), cfg)
	if err == nil {
		if err = s.Setup(p); err == nil {
			_, err = s.Run(p)
			s.Teardown(p)
		}
	}
	if err != nil {
		t.Error(err)
	}
}

// sharedRound opens a session on a shared lease and copies through it.
func sharedRound(t *testing.T, p *sim.Proc, n *cluster.Node) {
	handles, err := n.ARM.AcquireShared(p, 1, true)
	if err != nil {
		t.Error(err)
		return
	}
	defer n.ARM.Release(p, handles)
	a, err := n.AttachSession(p, handles[0])
	if err != nil {
		t.Error(err)
		return
	}
	defer a.CloseSession(p)
	ptr, err := a.MemAlloc(p, 64<<10)
	if err == nil {
		if err = a.MemcpyH2D(p, ptr, 0, nil, 64<<10); err == nil {
			err = a.MemcpyD2H(p, nil, ptr, 0, 64<<10)
		}
	}
	if err != nil {
		t.Error(err)
	}
}

// threeGPUQR factors a matrix over three remote accelerators, in execute
// mode.
func threeGPUQR(t *testing.T, p *sim.Proc, n *cluster.Node) {
	const size = 192
	handles, err := n.ARM.Acquire(p, 3, true)
	if err != nil {
		t.Error(err)
		return
	}
	defer n.ARM.Release(p, handles)
	var devs []magma.Device
	for _, h := range handles {
		devs = append(devs, accel.Remote(n.Attach(h)))
	}
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, size*size)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	cfg := magma.DefaultConfig()
	d, err := magma.NewDist(p, devs, size, size, cfg.NB, true)
	if err != nil {
		t.Error(err)
		return
	}
	defer d.Free(p)
	if err = d.Upload(p, a); err == nil {
		if err = magma.Dgeqrf(p, d, make([]float64, size), cfg); err == nil {
			err = d.Download(p, a)
		}
	}
	if err != nil {
		t.Error(err)
	}
}
