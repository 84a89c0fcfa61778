package faults_test

// Shard-failover chaos: a fleet of tenants storms the sharded ARM with
// shared acquires while one shard's leader is crash-killed mid-storm.
// The shard's follower must promote itself off the silent replication
// stream, the tenants must ride through on failover replays, and at the
// end the books must balance exactly: no lease granted twice, no tenant
// session leaked, every accelerator back in the free pool. Runs under
// ARM_SHARDS (CI sweeps it alongside CHAOS_SEED) which sizes the shard
// fleet.

import (
	"os"
	"strconv"
	"testing"

	"dynacc/internal/arm"
	"dynacc/internal/cluster"
	"dynacc/internal/core"
	"dynacc/internal/faults"
	"dynacc/internal/sim"
)

// armShards returns the shard-fleet size, from ARM_SHARDS when set.
func armShards(t *testing.T) int {
	v := os.Getenv("ARM_SHARDS")
	if v == "" {
		return 3
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		t.Fatalf("bad ARM_SHARDS %q", v)
	}
	return n
}

func TestChaosShardLeaderKill(t *testing.T) {
	const (
		tenants      = 6
		accelerators = 6
		rounds       = 10
		killAt       = 15 * sim.Millisecond
		promoteAfter = 10 * sim.Millisecond
	)
	shards := armShards(t)
	opts := chaosOptions()
	opts.Timeout = 50 * sim.Millisecond
	opts.Retries = 2
	hc := arm.HealthConfig{
		HeartbeatInterval: 2 * sim.Millisecond,
		LeaseTTL:          80 * sim.Millisecond,
	}
	cl, err := cluster.New(cluster.Config{
		ComputeNodes:    tenants,
		Accelerators:    accelerators,
		Fleet:           chaosFleet(accelerators),
		Execute:         true,
		Options:         &opts,
		Health:          &hc,
		ShareCapacity:   2,
		ARMShards:       shards,
		ARMReplicas:     true,
		ARMPromoteAfter: promoteAfter,
	})
	if err != nil {
		t.Fatal(err)
	}
	victim := cl.Directory().OwnerOf(0)
	faults.Plan{Seed: chaosSeed(t), Faults: []faults.Fault{
		{Verb: faults.Link, A: cl.DaemonRank(0), B: cl.Directory().Leader(victim), Drop: 0.05}, // seeded heartbeat loss
		{At: killAt, Verb: faults.KillARMShard, A: victim},
	}}.Arm(cl)

	// Every tenant storms: acquire a shared lease (blocking, so the
	// sharded client retries across shards), open a session, do a little
	// device work, close, release — straddling the leader kill.
	cl.SpawnAll(func(p *sim.Proc, node *cluster.Node) {
		for round := 0; round < rounds; round++ {
			handles, err := node.ARM.AcquireShared(p, 1, true)
			if err != nil {
				t.Errorf("cn%d round %d acquire: %v", node.Rank, round, err)
				return
			}
			h := handles[0]
			a, err := node.AttachSession(p, h)
			if err != nil {
				t.Errorf("cn%d round %d session: %v", node.Rank, round, err)
				return
			}
			ptr, err := a.MemAlloc(p, 4096)
			if err == nil {
				err = a.Memset(p, ptr, 0, 4096, byte(round))
			}
			if err == nil {
				err = a.CloseSession(p)
			}
			if err != nil {
				t.Errorf("cn%d round %d work: %v", node.Rank, round, err)
				return
			}
			if err := node.ARM.Release(p, handles); err != nil {
				t.Errorf("cn%d round %d release: %v", node.Rank, round, err)
				return
			}
			p.Wait(sim.Duration(1+node.Rank%3) * sim.Millisecond)
		}

		// Everyone synchronizes, then tenant 0 audits the books.
		node.App.Barrier(p)
		if node.Rank != 0 {
			return
		}
		if rp := cl.ARMShardReplica(victim); rp == nil || !rp.Promoted() {
			t.Errorf("shard %d follower not promoted after leader kill", victim)
		}
		st, err := node.ARM.StatsEx(p)
		if err != nil {
			t.Errorf("final stats: %v", err)
			return
		}
		// Zero stranded leases: a replay executed twice would strand a
		// lease nobody releases, showing up as Assigned or Sessions (or,
		// once its lease lapses, Reclaimed).
		if st.Assigned != 0 || st.Sessions != 0 {
			t.Errorf("stranded leases after storm: Assigned=%d Sessions=%d", st.Assigned, st.Sessions)
		}
		if st.Free != accelerators || st.Total != accelerators {
			t.Errorf("pool did not settle: Free=%d Total=%d, want %d", st.Free, st.Total, accelerators)
		}
		if st.Reclaimed != 0 {
			t.Errorf("reclaims during storm: %d, want 0 (nothing should strand)", st.Reclaimed)
		}
		// No tenant session leaks daemon-side either.
		for i, d := range cl.Daemons {
			if n := d.OpenSessions(); n != 0 {
				t.Errorf("daemon ac%d holds %d sessions after storm", i, n)
			}
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosShardedSharedTenantKill is TestChaosSharedTenantKill on the
// sharded plane: the victim tenant dies mid-batch and the surviving
// tenant of the same shared accelerator must keep its session and data
// while the shard fleet reclaims only the dead tenant's lease.
func TestChaosShardedSharedTenantKill(t *testing.T) {
	const (
		ttl    = 20 * sim.Millisecond
		killAt = 10 * sim.Millisecond
	)
	shards := armShards(t)
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
	// One accelerator, two tenants: with most shards owning no inventory,
	// the acquires also exercise forwarding into the owning shard.
	cl, err := cluster.New(cluster.Config{
		ComputeNodes:  2,
		Accelerators:  1,
		Fleet:         chaosFleet(1),
		Execute:       true,
		Options:       &opts,
		Daemon:        &dcfg,
		Health:        &hc,
		ShareCapacity: 2,
		ARMShards:     shards,
		ARMReplicas:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	faults.Plan{Seed: chaosSeed(t), Faults: []faults.Fault{{At: killAt, Verb: faults.KillClient, A: 0}}}.Arm(cl)

	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		handles, err := node.ARM.AcquireShared(p, 1, true)
		if err != nil {
			t.Errorf("victim acquire: %v", err)
			return
		}
		a, err := node.AttachSession(p, handles[0])
		if err != nil {
			t.Errorf("victim session: %v", err)
			return
		}
		ptr, err := a.MemAlloc(p, 64<<10)
		if err != nil {
			t.Errorf("victim alloc: %v", err)
			return
		}
		for { // busy until the crash
			if err := a.Memset(p, ptr, 0, 4096, 0xCC); err != nil {
				return
			}
			p.Wait(sim.Millisecond)
		}
	})
	cl.Spawn(1, func(p *sim.Proc, node *cluster.Node) {
		handles, err := node.ARM.AcquireShared(p, 1, true)
		if err != nil {
			t.Errorf("survivor acquire: %v", err)
			return
		}
		a, err := node.AttachSession(p, handles[0])
		if err != nil {
			t.Errorf("survivor session: %v", err)
			return
		}
		ptr, err := a.MemAlloc(p, 4096)
		if err != nil {
			t.Errorf("survivor alloc: %v", err)
			return
		}
		want := make([]byte, 4096)
		for i := range want {
			want[i] = byte(i*13 + 7)
		}
		if err := a.MemcpyH2D(p, ptr, 0, want, 4096); err != nil {
			t.Errorf("survivor upload: %v", err)
			return
		}
		// Wait out the victim's lease; stats polling renews ours.
		deadline := sim.Time(0).Add(killAt + 3*ttl)
		for {
			st, err := node.ARM.StatsEx(p)
			if err != nil {
				t.Errorf("survivor stats: %v", err)
				return
			}
			if st.Sessions == 1 {
				break
			}
			if p.Now().Sub(deadline) >= 0 {
				t.Errorf("victim lease not reclaimed in time: %+v", st)
				return
			}
			p.Wait(sim.Millisecond)
		}
		p.Wait(5 * sim.Millisecond) // let the session reaper finish
		got := make([]byte, 4096)
		if err := a.MemcpyD2H(p, got, ptr, 0, 4096); err != nil {
			t.Errorf("survivor download: %v", err)
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("survivor data corrupted at byte %d", i)
				return
			}
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}
