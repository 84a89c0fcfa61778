package faults_test

// Multi-tenant chaos: two tenants time-share one accelerator under
// shared leases; one is crash-killed mid-batch. The ARM must revoke only
// the dead tenant's lease (expiry), the session reaper must free only
// its allocations, and the survivor's session — data included — must
// come through untouched.

import (
	"bytes"
	"testing"

	"dynacc/internal/arm"
	"dynacc/internal/cluster"
	"dynacc/internal/core"
	"dynacc/internal/faults"
	"dynacc/internal/sim"
)

func TestChaosSharedTenantKill(t *testing.T) {
	const (
		ttl    = 20 * sim.Millisecond
		killAt = 10 * sim.Millisecond
		survN  = 4096
	)
	opts := chaosOptions()
	opts.Timeout = 50 * sim.Millisecond
	opts.Retries = 2
	dcfg := core.DefaultDaemonConfig()
	dcfg.PayloadTimeout = 20 * sim.Millisecond
	hc := arm.HealthConfig{
		HeartbeatInterval: 2 * sim.Millisecond,
		SuspectAfter:      6 * sim.Millisecond,
		LeaseTTL:          ttl,
	}
	cl, err := cluster.New(cluster.Config{
		ComputeNodes:  2,
		Accelerators:  1,
		Fleet:         chaosFleet(1),
		Execute:       true,
		Options:       &opts,
		Daemon:        &dcfg,
		Health:        &hc,
		ShareCapacity: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	faults.Plan{Seed: chaosSeed(t), Faults: []faults.Fault{
		{Verb: faults.Link, A: cl.DaemonRank(0), B: cl.ARMRank(), Drop: 0.05}, // seeded heartbeat loss
		{At: 25 * sim.Millisecond, Verb: faults.Link, A: cl.DaemonRank(0), B: cl.ARMRank()},
		{At: killAt, Verb: faults.KillClient, A: 0},
	}}.Arm(cl)

	// The victim tenant: a shared lease, a session, a fat allocation, and
	// a batch of work in flight when the crash lands.
	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		handles, err := node.ARM.AcquireShared(p, 1, false)
		if err != nil {
			t.Fatalf("victim acquire: %v", err)
		}
		a, err := node.AttachSession(p, handles[0])
		if err != nil {
			t.Fatalf("victim session: %v", err)
		}
		ptr, err := a.MemAlloc(p, 256<<10)
		if err != nil {
			t.Fatalf("victim alloc: %v", err)
		}
		if err := a.MemcpyH2D(p, ptr, 0, nil, 256<<10); err != nil {
			t.Fatalf("victim upload: %v", err)
		}
		for { // busy until the crash: activity keeps the lease renewed
			if err := a.Memset(p, ptr, 0, 4096, 0xCC); err != nil {
				return // post-crash wind-down of an in-flight op
			}
			p.Wait(sim.Millisecond)
		}
	})

	// The survivor tenant: same accelerator, own session, precious data.
	cl.Spawn(1, func(p *sim.Proc, node *cluster.Node) {
		handles, err := node.ARM.AcquireShared(p, 1, false)
		if err != nil {
			t.Fatalf("survivor acquire: %v", err)
		}
		a, err := node.AttachSession(p, handles[0])
		if err != nil {
			t.Fatalf("survivor session: %v", err)
		}
		ptr, err := a.MemAlloc(p, survN)
		if err != nil {
			t.Fatalf("survivor alloc: %v", err)
		}
		want := make([]byte, survN)
		for i := range want {
			want[i] = byte(i*13 + 7)
		}
		if err := a.MemcpyH2D(p, ptr, 0, want, survN); err != nil {
			t.Fatalf("survivor upload: %v", err)
		}

		// Wait out the victim's lease. Stats polling doubles as this
		// tenant's implicit lease renewal.
		deadline := sim.Time(0).Add(killAt + 2*ttl)
		for {
			st, err := node.ARM.StatsEx(p)
			if err != nil {
				t.Fatalf("survivor stats: %v", err)
			}
			if st.Sessions == 1 {
				if st.Reclaimed < 1 {
					t.Fatalf("victim lease gone but Reclaimed = %d", st.Reclaimed)
				}
				break
			}
			if p.Now().Sub(deadline) >= 0 {
				t.Fatalf("victim lease not reclaimed by kill+2*TTL: %+v", st)
			}
			p.Wait(sim.Millisecond)
		}
		// Give the spawned session reaper a beat to finish daemon-side.
		p.Wait(5 * sim.Millisecond)

		// Only the dead tenant's session was torn down...
		if n := cl.Daemons[0].OpenSessions(); n != 1 {
			t.Fatalf("%d sessions open after reap, want 1 (the survivor's)", n)
		}
		// ...and only its memory freed: the survivor's footprint remains.
		if used := cl.Daemons[0].Device().MemUsed(); used != survN {
			t.Fatalf("device holds %d bytes after reap, want the survivor's %d", used, survN)
		}
		// The survivor's session still works and its data is intact.
		got := make([]byte, survN)
		if err := a.MemcpyD2H(p, got, ptr, 0, survN); err != nil {
			t.Fatalf("survivor download: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("survivor data corrupted by the reclaim")
		}
		// The freed capacity is grantable again.
		st, err := node.ARM.StatsEx(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Shared != 1 {
			t.Fatalf("accelerator no longer shared: %+v", st)
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}
