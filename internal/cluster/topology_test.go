package cluster

import (
	"strings"
	"sync"
	"testing"
	"time"

	"dynacc/internal/sim"
)

func TestRankLayout(t *testing.T) {
	l := RankLayout(Config{ComputeNodes: 2, Accelerators: 3, SpareAccelerators: 1})
	if len(l.Compute) != 2 || l.Compute[0] != 0 || l.Compute[1] != 1 {
		t.Errorf("compute ranks %v", l.Compute)
	}
	if len(l.Daemons) != 4 || l.Daemons[0] != 2 || l.Daemons[3] != 5 {
		t.Errorf("daemon ranks %v", l.Daemons)
	}
	if len(l.ARM) != 1 || l.ARM[0] != 6 || l.Total != 7 {
		t.Errorf("arm %v total %d", l.ARM, l.Total)
	}

	l = RankLayout(Config{ComputeNodes: 1, Accelerators: 2, ARMShards: 2})
	if len(l.ARM) != 2 || l.ARM[0] != 3 || l.ARM[1] != 4 || l.Total != 5 {
		t.Errorf("sharded arm %v total %d", l.ARM, l.Total)
	}
}

func TestParseTopology(t *testing.T) {
	cfg := Config{ComputeNodes: 2, Accelerators: 4}
	topo, err := ParseTopology(cfg, "cn@h0:1; ac0-1@h1:1 ;ac2-3,arm@h2:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Procs) != 3 {
		t.Fatalf("procs %v", topo.Procs)
	}
	want := [][]int{{0, 1}, {2, 3}, {4, 5, 6}}
	for i, ps := range topo.Procs {
		if len(ps.Ranks) != len(want[i]) {
			t.Fatalf("proc %d ranks %v, want %v", i, ps.Ranks, want[i])
		}
		for j, r := range ps.Ranks {
			if r != want[i][j] {
				t.Errorf("proc %d ranks %v, want %v", i, ps.Ranks, want[i])
				break
			}
		}
	}
	for _, bad := range []string{"", "cn", "xy@h:1", "cn5@h:1", "ac1-0@h:1", "arm3@h:1"} {
		if _, err := ParseTopology(cfg, bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestStartProcessRefusesReplicas pins socket mode's one refusal: a
// follower's promotion would have to reach every process's own copy of
// the shard directory, so replicated resource management is rejected up
// front — for one shard and for several, on a topology that is otherwise
// valid for the replicated layout.
func TestStartProcessRefusesReplicas(t *testing.T) {
	for _, shards := range []int{1, 2} {
		cfg := Config{ComputeNodes: 1, Accelerators: 2, ARMShards: shards, ARMReplicas: true}
		topo, err := ListenTopology("t", ThreeTierSplit(cfg))
		if err != nil {
			t.Fatal(err)
		}
		for pid := range topo.Procs {
			_, err := StartProcess(cfg, topo, pid)
			if err == nil || !strings.Contains(err.Error(), "replicas are not supported over sockets") {
				t.Errorf("shards=%d proc %d: StartProcess = %v, want the replica refusal", shards, pid, err)
			}
		}
		for _, ln := range topo.Listeners {
			ln.Close()
		}
	}
}

func TestStartProcessRestrictions(t *testing.T) {
	cfg := Config{ComputeNodes: 1, Accelerators: 1}
	topo, err := ListenTopology("t", ThreeTierSplit(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, ln := range topo.Listeners {
			ln.Close()
		}
	}()
	if _, err := StartProcess(cfg, topo, 5); err == nil {
		t.Error("out-of-range proc id accepted")
	}
}

// serveInfra starts every non-client process of the topology on its own
// goroutine and returns a join function that fails the test if any Serve
// errored or never finished.
func serveInfra(t *testing.T, cfg Config, topo Topology, pids ...int) func() {
	t.Helper()
	var wg sync.WaitGroup
	members := make([]*Member, 0, len(pids))
	for _, pid := range pids {
		m, err := StartProcess(cfg, topo, pid)
		if err != nil {
			t.Fatalf("StartProcess(%d): %v", pid, err)
		}
		members = append(members, m)
		wg.Add(1)
		go func(pid int, m *Member) {
			defer wg.Done()
			if err := m.Serve(); err != nil {
				t.Errorf("proc %d Serve: %v", pid, err)
			}
		}(pid, m)
	}
	return func() {
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
			for i, m := range members {
				if st := m.Transport().Stats(); st.HandshakeFailures != 0 {
					t.Errorf("proc %d handshake failures: %+v", pids[i], st)
				}
			}
		case <-time.After(15 * time.Second):
			for _, m := range members {
				m.Stop()
			}
			t.Fatal("infrastructure members did not shut down after client teardown")
		}
	}
}

// TestDistributedWorkload runs the full client/daemon/ARM stack across
// three listeners joined by real TCP: an exclusive acquire with a data
// round trip, then a shared-session tenancy left open on purpose so the
// client's distributed teardown has to clean it up over the wire.
func TestDistributedWorkload(t *testing.T) {
	cfg := Config{ComputeNodes: 1, Accelerators: 2, Execute: true, ShareCapacity: 2}
	topo, err := ListenTopology("distributed-test", ThreeTierSplit(cfg))
	if err != nil {
		t.Fatal(err)
	}
	join := serveInfra(t, cfg, topo, 1, 2)

	client, err := StartProcess(cfg, topo, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Spawn(0, func(p *sim.Proc, n *Node) {
		// Exclusive acquire, payload round trip through a remote daemon.
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
			payload[i] = byte(i * 7)
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
				t.Errorf("round trip corrupt at byte %d", i)
				break
			}
		}
		if err := ac.MemFree(p, ptr); err != nil {
			t.Errorf("free: %v", err)
		}
		if err := n.ARM.Release(p, handles); err != nil {
			t.Errorf("release: %v", err)
		}

		// Shared session on the other accelerator; deliberately NOT closed
		// or released — the teardown must do both across the wire.
		hs, err := n.ARM.AcquireShared(p, 1, false)
		if err != nil {
			t.Errorf("acquire shared: %v", err)
			return
		}
		sac, err := n.AttachSession(p, hs[0])
		if err != nil {
			t.Errorf("attach session: %v", err)
			return
		}
		sptr, err := sac.MemAlloc(p, 1024)
		if err != nil {
			t.Errorf("session alloc: %v", err)
			return
		}
		if err := sac.MemcpyH2D(p, sptr, 0, payload[:1024], 1024); err != nil {
			t.Errorf("session h2d: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := client.Run(); err != nil {
		t.Fatalf("client Run: %v", err)
	}
	join()

	if st := client.Transport().Stats(); st.FramesSent == 0 || st.FramesReceived == 0 {
		t.Errorf("client exchanged no frames: %+v", st)
	}
}

// TestDistributedShardedARM runs the sharded resource-management plane
// over sockets: two shard leaders on their own listener; the client and
// daemon processes each derive the same static directory from cfg.
func TestDistributedShardedARM(t *testing.T) {
	cfg := Config{ComputeNodes: 1, Accelerators: 4, ARMShards: 2, Execute: true}
	topo, err := ListenTopology("sharded-test", ThreeTierSplit(cfg))
	if err != nil {
		t.Fatal(err)
	}
	join := serveInfra(t, cfg, topo, 1, 2)

	client, err := StartProcess(cfg, topo, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Spawn(0, func(p *sim.Proc, n *Node) {
		// Acquire enough accelerators that both shards must grant.
		handles, err := n.ARM.Acquire(p, 3, false)
		if err != nil {
			t.Errorf("sharded acquire: %v", err)
			return
		}
		for _, h := range handles {
			ac := n.Attach(h)
			ptr, err := ac.MemAlloc(p, 512)
			if err != nil {
				t.Errorf("alloc on ac%d: %v", h.ID, err)
				continue
			}
			if err := ac.MemFree(p, ptr); err != nil {
				t.Errorf("free on ac%d: %v", h.ID, err)
			}
		}
		if err := n.ARM.Release(p, handles); err != nil {
			t.Errorf("release: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := client.Run(); err != nil {
		t.Fatalf("client Run: %v", err)
	}
	join()
}
