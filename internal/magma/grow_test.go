package magma

// Grow/shrink acceptance: a QR factorization running on the base
// accelerator pool expands, mid-run, onto two spare accelerator nodes
// registered with the ARM between panels (Config.Rebalance →
// Dist.Redistribute), finishes bit-correct against LAPACK, the pool
// statistics show the newcomers actually taking load, and the cluster
// then shrinks back: the spares retire out of the inventory with a
// clean drain and zero stranded leases. Runs against both the single
// legacy ARM and a 3-shard fleet.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dynacc/internal/arm"
	"dynacc/internal/cluster"
	"dynacc/internal/core"
	"dynacc/internal/gpu"
	"dynacc/internal/lapack"
	"dynacc/internal/sim"
)

func TestQRGrowShrinkElasticPool(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testQRGrowShrink(t, shards)
		})
	}
}

func testQRGrowShrink(t *testing.T, shards int) {
	const (
		n, nb  = 96, 16
		baseAC = 2
		spares = 2
		growAt = 2 // grow once this many panels are factored
	)
	reg := gpu.NewRegistry()
	RegisterKernels(reg)
	cl, err := cluster.New(cluster.Config{
		ComputeNodes:      1,
		Accelerators:      baseAC,
		SpareAccelerators: spares,
		Registry:          reg,
		Execute:           true,
		ARMShards:         shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		// One at a time, blocking: under sharding no single shard need own
		// the whole base pool.
		var handles []arm.Handle
		devs := make([]Device, 0, baseAC)
		for i := 0; i < baseAC; i++ {
			hs, err := node.ARM.Acquire(p, 1, true)
			if err != nil {
				t.Error(err)
				return
			}
			handles = append(handles, hs...)
			devs = append(devs, Remote(node.Attach(hs[0])))
		}

		rng := rand.New(rand.NewSource(41))
		a := randSquare(rng, n)
		ref := append([]float64(nil), a...)
		refTau := make([]float64, n)
		lapack.Dgeqrf(n, n, ref, n, refTau, nb)

		dist, err := NewDist(p, devs, n, n, nb, true)
		if err != nil {
			t.Error(err)
			return
		}
		freed := false
		defer func() {
			if !freed {
				dist.Free(p)
			}
		}()
		if err := dist.Upload(p, a); err != nil {
			t.Error(err)
			return
		}

		var grownHandles []arm.Handle
		tau := make([]float64, n)
		cfg := DefaultConfig()
		cfg.NB = nb
		cfg.Rebalance = func(p *sim.Proc, done int) []Device {
			if grownHandles != nil || done < growAt {
				return nil
			}
			// Admit the spare accelerator nodes, then lease them. The base
			// pool is held exclusively by this job, so every grant must be
			// a newcomer.
			for i := 0; i < spares; i++ {
				if _, err := cl.RegisterSpare(p, node, i); err != nil {
					t.Errorf("register spare %d: %v", i, err)
					return nil
				}
			}
			nd := append([]Device(nil), dist.Devs...)
			for i := 0; i < spares; i++ {
				hs, err := node.ARM.Acquire(p, 1, true)
				if err != nil {
					t.Errorf("acquire spare %d: %v", i, err)
					return nil
				}
				if hs[0].ID < baseAC {
					t.Errorf("grew onto base accelerator %d", hs[0].ID)
				}
				grownHandles = append(grownHandles, hs[0])
				nd = append(nd, Remote(node.Attach(hs[0])))
			}
			return nd
		}
		if err := Dgeqrf(p, dist, tau, cfg); err != nil {
			t.Error(err)
			return
		}
		if len(grownHandles) != spares {
			t.Errorf("rebalance hook admitted %d spares, want %d", len(grownHandles), spares)
			return
		}

		// Bit-correct factors despite the mid-run redistribution.
		got := make([]float64, n*n)
		if err := dist.Download(p, got); err != nil {
			t.Error(err)
			return
		}
		scale := lapack.Dlange(lapack.MaxAbs, n, n, ref, n)
		for i := range got {
			if math.Abs(got[i]-ref[i]) > 1e-10*scale {
				t.Errorf("factor differs at %d: %g vs %g", i, got[i], ref[i])
				break
			}
		}
		for i := range tau {
			if math.Abs(tau[i]-refTau[i]) > 1e-10 {
				t.Errorf("tau[%d] = %g vs %g", i, tau[i], refTau[i])
				break
			}
		}

		// The newcomers really took load: still assigned to this job, with
		// grants and busy time on the books.
		st, err := node.ARM.StatsEx(p)
		if err != nil {
			t.Error(err)
			return
		}
		if st.Total != baseAC+spares {
			t.Errorf("grown pool Total = %d, want %d", st.Total, baseAC+spares)
		}
		for _, h := range grownHandles {
			var row *arm.AccelStats
			for i := range st.PerAccel {
				if st.PerAccel[i].ID == h.ID {
					row = &st.PerAccel[i]
					break
				}
			}
			if row == nil {
				t.Errorf("no stats row for grown accelerator %d", h.ID)
				continue
			}
			if row.State != "assigned" || row.Grants < 1 || row.BusySeconds <= 0 {
				t.Errorf("grown accelerator %d idle: %+v", h.ID, *row)
			}
		}

		// Shrink: the device storage and leases go first, then the spares
		// retire out of the inventory (a clean drain — nothing held).
		dist.Free(p)
		freed = true
		all := append(append([]arm.Handle(nil), handles...), grownHandles...)
		if err := node.ARM.Release(p, all); err != nil {
			t.Error(err)
			return
		}
		for _, h := range grownHandles {
			if err := cl.RetireDaemon(p, node, h.ID, 0); err != nil {
				t.Errorf("retire %d: %v", h.ID, err)
			}
		}
		st, err = node.ARM.StatsEx(p)
		if err != nil {
			t.Error(err)
			return
		}
		if st.Total != baseAC || st.Free != baseAC || st.Assigned != 0 || st.Sessions != 0 {
			t.Errorf("pool after shrink: %+v, want %d free of %d with zero leases", st, baseAC, baseAC)
		}
		if st.Reclaimed != 0 {
			t.Errorf("reclaims during grow/shrink: %d, want 0 (clean drain)", st.Reclaimed)
		}
		for _, row := range st.PerAccel {
			if row.ID >= baseAC {
				t.Errorf("retired accelerator %d still in the inventory", row.ID)
			}
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestGrowOntoDyingDaemonReturnsError grows a running QR 2 -> 4 onto
// spares one of which dies while the blocks are moving: allocation on
// the newcomer succeeded, its block upload does not. Dgeqrf must hand
// the transfer error back (so Failover + retry can act on it) rather
// than trip over workspaces indexed by the half-installed device list,
// and must leave no device memory behind on the survivors.
func TestGrowOntoDyingDaemonReturnsError(t *testing.T) {
	const (
		n, nb  = 96, 16
		baseAC = 2
		spares = 2
		growAt = 2
		victim = 3 // the second spare
	)
	reg := gpu.NewRegistry()
	RegisterKernels(reg)
	opts := core.DefaultOptions()
	opts.Timeout = 5 * sim.Millisecond
	cl, err := cluster.New(cluster.Config{
		ComputeNodes:      1,
		Accelerators:      baseAC,
		SpareAccelerators: spares,
		Registry:          reg,
		Execute:           true,
		Options:           &opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		handles, err := node.ARM.Acquire(p, baseAC, true)
		if err != nil {
			t.Error(err)
			return
		}
		var devs []Device
		for _, h := range handles {
			devs = append(devs, Remote(node.Attach(h)))
		}
		dist, err := NewDist(p, devs, n, n, nb, true)
		if err != nil {
			t.Error(err)
			return
		}
		defer dist.Free(p)
		if err := dist.Upload(p, randSquare(rand.New(rand.NewSource(41)), n)); err != nil {
			t.Error(err)
			return
		}

		grown := false
		cfg := DefaultConfig()
		cfg.NB = nb
		cfg.Rebalance = func(p *sim.Proc, done int) []Device {
			if grown || done < growAt {
				return nil
			}
			grown = true
			nd := append([]Device(nil), dist.Devs...)
			for i := 0; i < spares; i++ {
				if _, err := cl.RegisterSpare(p, node, i); err != nil {
					t.Errorf("register spare %d: %v", i, err)
					return nil
				}
			}
			for i := 0; i < spares; i++ {
				hs, err := node.ARM.Acquire(p, 1, true)
				if err != nil {
					t.Errorf("acquire spare %d: %v", i, err)
					return nil
				}
				nd = append(nd, Remote(node.Attach(hs[0])))
			}
			cl.Sim.After(150*sim.Microsecond, func() { cl.KillDaemon(victim) })
			return nd
		}
		err = Dgeqrf(p, dist, make([]float64, n), cfg)
		if !errors.Is(err, core.ErrTimeout) {
			t.Errorf("Dgeqrf = %v, want a timeout from the dead newcomer", err)
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	for i, d := range cl.Daemons {
		if used := d.Device().MemUsed(); i != victim && used != 0 {
			t.Errorf("daemon %d still holds %d bytes of device memory", i, used)
		}
	}
}
