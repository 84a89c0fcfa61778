package cluster

import (
	"errors"
	"testing"

	"dynacc/internal/arm"
	"dynacc/internal/core"
	"dynacc/internal/gpu"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{ComputeNodes: 0}); err == nil {
		t.Error("zero compute nodes accepted")
	}
	if _, err := New(Config{ComputeNodes: 1, Accelerators: -1}); err == nil {
		t.Error("negative accelerators accepted")
	}
}

func TestStaticAssignmentWorkflow(t *testing.T) {
	// The paper's Figure 3(a): acquire before the compute phase, use the
	// handle through the computation API, release at the end.
	cl, err := New(Config{ComputeNodes: 1, Accelerators: 2, Execute: true})
	if err != nil {
		t.Fatal(err)
	}
	cl.Spawn(0, func(p *sim.Proc, n *Node) {
		handles, err := n.ARM.Acquire(p, 1, false)
		if err != nil {
			t.Errorf("acquire: %v", err)
			return
		}
		ac := n.Attach(handles[0])
		ptr, err := ac.MemAlloc(p, 4096)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		payload := make([]byte, 4096)
		for i := range payload {
			payload[i] = byte(i)
		}
		if err := ac.MemcpyH2D(p, ptr, 0, payload, len(payload)); err != nil {
			t.Errorf("h2d: %v", err)
		}
		back := make([]byte, 4096)
		if err := ac.MemcpyD2H(p, back, ptr, 0, len(back)); err != nil {
			t.Errorf("d2h: %v", err)
		}
		for i := range back {
			if back[i] != payload[i] {
				t.Errorf("byte %d mismatch", i)
				break
			}
		}
		if err := ac.MemFree(p, ptr); err != nil {
			t.Errorf("free: %v", err)
		}
		if err := n.ARM.Release(p, handles); err != nil {
			t.Errorf("release: %v", err)
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicAssignmentAcrossNodes(t *testing.T) {
	// Two compute nodes share one accelerator dynamically (Figure 3(b)):
	// node 1 blocks until node 0 releases.
	cl, err := New(Config{ComputeNodes: 2, Accelerators: 1})
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	cl.SpawnAll(func(p *sim.Proc, n *Node) {
		if n.Rank == 1 {
			p.Wait(10 * sim.Microsecond) // ensure node 0 wins the race
		}
		h, err := n.ARM.Acquire(p, 1, true)
		if err != nil {
			t.Errorf("node %d acquire: %v", n.Rank, err)
			return
		}
		order = append(order, n.Rank)
		ac := n.Attach(h[0])
		ptr, err := ac.MemAlloc(p, 1<<16)
		if err != nil {
			t.Errorf("node %d alloc: %v", n.Rank, err)
		}
		if err := ac.MemcpyH2D(p, ptr, 0, nil, 1<<16); err != nil {
			t.Errorf("node %d copy: %v", n.Rank, err)
		}
		if err := ac.MemFree(p, ptr); err != nil {
			t.Errorf("node %d free: %v", n.Rank, err)
		}
		if err := n.ARM.Release(p, h); err != nil {
			t.Errorf("node %d release: %v", n.Rank, err)
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Errorf("grant order = %v", order)
	}
}

func TestVaryingAcceleratorsPerNode(t *testing.T) {
	// The paper's core flexibility claim: nodes of the same job can hold
	// different numbers of accelerators (here 3 and 1 from a pool of 4).
	cl, err := New(Config{ComputeNodes: 2, Accelerators: 4})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 2)
	cl.SpawnAll(func(p *sim.Proc, n *Node) {
		want := 1
		if n.Rank == 0 {
			want = 3
		}
		h, err := n.ARM.Acquire(p, want, true)
		if err != nil {
			t.Errorf("node %d: %v", n.Rank, err)
			return
		}
		counts[n.Rank] = len(h)
		n.App.Barrier(p) // both nodes hold their accelerators simultaneously
		n.ARM.Release(p, h)
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if counts[0] != 3 || counts[1] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestAppCommunicatorExcludesInfrastructure(t *testing.T) {
	cl, err := New(Config{ComputeNodes: 3, Accelerators: 2})
	if err != nil {
		t.Fatal(err)
	}
	cl.SpawnAll(func(p *sim.Proc, n *Node) {
		if n.App.Size() != 3 {
			t.Errorf("app comm size = %d, want 3", n.App.Size())
		}
		if n.App.Rank() != n.Rank {
			t.Errorf("app rank %d != node rank %d", n.App.Rank(), n.Rank)
		}
		// A collective over App must complete without the daemons.
		sum := 0
		for _, part := range n.App.Allgather(p, []byte{byte(n.Rank)}) {
			sum += int(part[0])
		}
		if sum != 3 {
			t.Errorf("allgather sums to %d", sum)
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLocalGPUBaseline(t *testing.T) {
	cl, err := New(Config{ComputeNodes: 1, Accelerators: 0, LocalGPUs: 2, Execute: true})
	if err != nil {
		t.Fatal(err)
	}
	cl.Spawn(0, func(p *sim.Proc, n *Node) {
		if len(n.Local) != 2 {
			t.Fatalf("local GPUs = %d", len(n.Local))
		}
		dev := n.Local[0]
		ptr, err := dev.MemAlloc(p, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.CopyH2D(p, ptr, 0, make([]byte, 1024), 1024, true); err != nil {
			t.Fatal(err)
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBrokenAcceleratorDoesNotStopComputeNode(t *testing.T) {
	// Fault tolerance (paper Section III): fail one of two accelerators;
	// the compute node still completes using the other.
	cl, err := New(Config{ComputeNodes: 1, Accelerators: 2})
	if err != nil {
		t.Fatal(err)
	}
	cl.Spawn(0, func(p *sim.Proc, n *Node) {
		if err := n.ARM.Fail(p, 0); err != nil {
			t.Errorf("fail: %v", err)
		}
		h, err := n.ARM.Acquire(p, 1, false)
		if err != nil {
			t.Errorf("acquire after failure: %v", err)
			return
		}
		if h[0].ID != 1 {
			t.Errorf("got failed accelerator %d", h[0].ID)
		}
		if _, err := n.ARM.Acquire(p, 2, false); !errors.Is(err, arm.ErrImpossible) {
			t.Errorf("2-of-1 request: %v", err)
		}
		n.ARM.Release(p, h)
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCustomModelsAndOptions(t *testing.T) {
	net := netmodel.GigabitEthernet()
	gpu.RegisterModel(func() gpu.Model {
		m := gpu.TeslaC1060()
		m.Name = "custom"
		return m
	})
	opts := core.Options{H2D: core.PaperNaive(), D2H: core.PaperNaive()}
	cl, err := New(Config{
		ComputeNodes: 1, Accelerators: 1,
		Net: &net, Fleet: "custom:1", Options: &opts,
		Policy: arm.Backfill,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Spawn(0, func(p *sim.Proc, n *Node) {
		h, err := n.ARM.Acquire(p, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		info, err := n.Attach(h[0]).Info(p)
		if err != nil {
			t.Fatal(err)
		}
		if info.ModelName != "custom" {
			t.Errorf("model = %s", info.ModelName)
		}
		n.ARM.Release(p, h)
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunReturnsVirtualTime(t *testing.T) {
	cl, err := New(Config{ComputeNodes: 1, Accelerators: 1})
	if err != nil {
		t.Fatal(err)
	}
	cl.Spawn(0, func(p *sim.Proc, n *Node) {
		p.Wait(3 * sim.Millisecond)
	})
	end, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end < sim.Time(3*sim.Millisecond) {
		t.Errorf("end time = %v", end)
	}
}

func TestAutoReleaseAtJobEnd(t *testing.T) {
	// A job that forgets to release still returns its accelerators (with
	// wiped device memory) to the pool at teardown — the paper's
	// automatic release on job completion.
	cl, err := New(Config{ComputeNodes: 2, Accelerators: 2, Execute: true})
	if err != nil {
		t.Fatal(err)
	}
	cl.SpawnAll(func(p *sim.Proc, n *Node) {
		h, err := n.ARM.Acquire(p, 1, true)
		if err != nil {
			t.Error(err)
			return
		}
		ac := n.Attach(h[0])
		if _, err := ac.MemAlloc(p, 1<<20); err != nil {
			t.Error(err)
		}
		// No Release: the job "finishes" holding the accelerator.
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	for _, d := range cl.Daemons {
		if used := d.Device().MemUsed(); used != 0 {
			t.Errorf("accelerator %d still holds %d bytes after auto-release", d.Rank(), used)
		}
	}
}

func TestExplicitReleaseClearsBookkeeping(t *testing.T) {
	cl, err := New(Config{ComputeNodes: 1, Accelerators: 2})
	if err != nil {
		t.Fatal(err)
	}
	cl.Spawn(0, func(p *sim.Proc, n *Node) {
		h, err := n.ARM.Acquire(p, 2, false)
		if err != nil {
			t.Error(err)
			return
		}
		if got := len(n.ARM.Held()); got != 2 {
			t.Errorf("held = %d, want 2", got)
		}
		if err := n.ARM.Release(p, h[:1]); err != nil {
			t.Error(err)
		}
		if got := n.ARM.Held(); len(got) != 1 || got[0].ID != h[1].ID {
			t.Errorf("held after partial release = %v", got)
		}
		n.ARM.Release(p, h[1:])
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestLongLivedFrontEndDropsFinishedHandles runs 50 rounds shaped like
// sock_soak's on one node: an exclusive pair acquired, attached, used and
// released, then two tenant sessions on a shared lease opened, used and
// closed. A released grant's handles and a closed session's handle must
// not stay listed: after every round the front-end lists no handle, and
// the node keeps no more sessions than the round opened, every one closed
// (the next AttachSession drops them).
func TestLongLivedFrontEndDropsFinishedHandles(t *testing.T) {
	const rounds = 50
	cl, err := New(Config{ComputeNodes: 1, Accelerators: 3, ShareCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	use := func(p *sim.Proc, ac *core.Accel) {
		ptr, err := ac.MemAlloc(p, 4096)
		if err == nil {
			err = ac.MemFree(p, ptr)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	cl.Spawn(0, func(p *sim.Proc, n *Node) {
		for r := 0; r < rounds; r++ {
			pair, err := n.ARM.Acquire(p, 2, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range pair {
				use(p, n.Attach(h))
			}
			if err := n.ARM.Release(p, pair); err != nil {
				t.Fatal(err)
			}
			shared, err := n.ARM.AcquireShared(p, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			for tenant := 0; tenant < 2; tenant++ {
				ac, err := n.AttachSession(p, shared[0])
				if err != nil {
					t.Fatal(err)
				}
				use(p, ac)
				if err := ac.CloseSession(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := n.ARM.Release(p, shared); err != nil {
				t.Fatal(err)
			}
			if got := n.FE.Attached(); got != 0 {
				t.Fatalf("round %d: the front-end lists %d handles, want 0", r, got)
			}
			if len(n.sessions) > 2 {
				t.Fatalf("round %d: the node keeps %d sessions, want at most the round's 2", r, len(n.sessions))
			}
			for _, ac := range n.sessions {
				if ac.InUse() {
					t.Fatalf("round %d: session %#x still in use", r, ac.Session())
				}
			}
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSanitizerHandlesBounded drives the ARM-side front-ends the way a
// long-lived server does — a sharer lease expiring over and over on one
// daemon, then a promotion fencing it, then more expiries under the
// promoted follower — and pins that each sanitizer client keeps one handle
// per daemon, not one per reap or fence.
func TestSanitizerHandlesBounded(t *testing.T) {
	const (
		ttl      = 4 * sim.Millisecond
		expiries = 50
	)
	hc := arm.HealthConfig{HeartbeatInterval: sim.Millisecond, LeaseTTL: ttl}
	cl, err := New(Config{ComputeNodes: 1, Accelerators: 1, ShareCapacity: 2,
		Health: &hc, ARMReplicas: true, ARMPromoteAfter: 5 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cl.Spawn(0, func(p *sim.Proc, n *Node) {
		lapse := func(rounds int) {
			for i := 0; i < rounds; i++ {
				if _, err := n.ARM.AcquireShared(p, 1, true); err != nil {
					t.Errorf("acquire %d: %v", i, err)
					return
				}
				p.Wait(2 * ttl) // silent past the lease: the ARM revokes it and reaps
			}
		}
		lapse(expiries)
		cl.KillARMShard(0)
		lapse(5) // replayed to the follower once it promotes
		if rp := cl.ARMShardReplica(0); !rp.Promoted() {
			t.Error("follower not promoted after the leader kill")
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	led, promoted := cl.ARMShardServer(0).Snapshot(), cl.ARMShardReplica(0).Server().Snapshot()
	if led.Reclaimed < expiries || promoted.Reclaimed < 5 {
		t.Fatalf("leases reclaimed: %d by the leader, %d by the promoted follower; the scenario did not run",
			led.Reclaimed, promoted.Reclaimed)
	}
	if len(cl.sanitizers) != 2 {
		t.Fatalf("%d sanitizer clients, want leader's and follower's", len(cl.sanitizers))
	}
	for i, fe := range cl.sanitizers {
		if got := fe.Attached(); got > len(cl.Daemons) {
			t.Errorf("sanitizer client %d lists %d handles for %d daemon(s)", i, got, len(cl.Daemons))
		}
	}
}
