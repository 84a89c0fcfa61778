package cluster

import (
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dynacc/internal/arm"
	"dynacc/internal/core"
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

// TestLoopbackRestartsLeaveNoGoroutines starts and stops a loopback
// deployment of three daemons sharing two tenants each, five times. A
// simulated process that ends hands its coroutine, idle, to the OS
// process's list, where the next deployment takes it up: from the first
// cycle on, the goroutine count stays where that cycle left it. It grew by
// 9 a cycle while each stopped real-time loop kept its idle coroutines.
func TestLoopbackRestartsLeaveNoGoroutines(t *testing.T) {
	cfg := Config{ComputeNodes: 1, Accelerators: 3, ShareCapacity: 2, Execute: true}
	cycle := func() {
		topo, err := ListenTopology("restart-test", ThreeTierSplit(cfg))
		if err != nil {
			t.Fatal(err)
		}
		join := serveInfra(t, cfg, topo, 1, 2)
		client, err := StartProcess(cfg, topo, 0)
		if err != nil {
			t.Fatal(err)
		}
		err = client.Spawn(0, func(p *sim.Proc, n *Node) {
			hs, err := n.ARM.AcquireShared(p, 1, true)
			if err != nil {
				t.Errorf("acquire shared: %v", err)
				return
			}
			for tenant := 0; tenant < 2; tenant++ {
				ac, err := n.AttachSession(p, hs[0])
				if err == nil {
					err = ac.CloseSession(p)
				}
				if err != nil {
					t.Errorf("tenant %d: %v", tenant, err)
				}
			}
			if err := n.ARM.Release(p, hs); err != nil {
				t.Errorf("release: %v", err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := client.Run(); err != nil {
			t.Fatalf("client Run: %v", err)
		}
		join()
	}
	// settled waits for goroutines still on their way out (connection
	// readers and writers) and reports the count once it is at most want,
	// or where it stood after two seconds.
	settled := func(want int) int {
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(10 * time.Millisecond)
		}
		return n
	}
	cycle()
	first := settled(0)
	for i := 2; i <= 5; i++ {
		cycle()
		if n := settled(first); n > first {
			t.Fatalf("cycle %d left %d goroutines, the first left %d", i, n, first)
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

// components lists what a built cluster hosts, as one tag per world rank.
func components(cl *Cluster) map[int]string {
	got := make(map[int]string)
	for i, n := range cl.nodes {
		if n != nil {
			got[n.World.Rank()] = "node"
			if n.Rank != i || n.App.Rank() != i {
				got[n.World.Rank()] = "node on the wrong rank"
			}
		}
	}
	for i, d := range cl.Daemons {
		if d != nil {
			got[d.Rank()] = "daemon"
			if d.Rank() != cl.DaemonRank(i) {
				got[d.Rank()] = "daemon on the wrong rank"
			}
		}
	}
	for sh := range cl.shardSrvs {
		if cl.shardSrvs[sh] != nil {
			got[cl.dir.Leader(sh)] = "arm"
		}
		if cl.shardReps[sh] != nil {
			got[cl.dir.Follower(sh)] = "replica"
		}
	}
	return got
}

// TestBuildPartitionsNew pins that a deployment is New's cluster cut along
// rank boundaries and nothing else: however the ranks are spread over
// processes, every rank is built exactly once, as the component New puts
// there, and each process spawns only what it hosts.
func TestBuildPartitionsNew(t *testing.T) {
	hc := arm.DefaultHealthConfig()
	for _, cfg := range []Config{
		{ComputeNodes: 2, Accelerators: 3, SpareAccelerators: 1},
		{ComputeNodes: 1, Accelerators: 4, ARMShards: 2, ShareCapacity: 2, Health: &hc},
		{ComputeNodes: 2, Accelerators: 2, ARMShards: 2, ARMReplicas: true, Health: &hc},
	} {
		whole, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := components(whole)
		l := RankLayout(cfg)
		if len(want) != l.Total {
			t.Fatalf("New built %d of %d ranks: %v", len(want), l.Total, want)
		}
		perRank := make([][]int, l.Total)
		for r := range perRank {
			perRank[r] = []int{r}
		}
		for name, rankSets := range map[string][][]int{
			"all-in-one": {slices.Concat(l.Compute, l.Daemons, l.ARM)},
			"three-tier": ThreeTierSplit(cfg),
			"per-rank":   perRank,
		} {
			env, err := resolveBuild(cfg)
			if err != nil {
				t.Fatal(err)
			}
			union, procs := make(map[int]string), 0
			for _, ranks := range rankSets {
				part, err := build(cfg, env, ranks)
				if err != nil {
					t.Fatalf("%s %v: %v", name, ranks, err)
				}
				got := components(part)
				if len(got) != len(ranks) {
					t.Errorf("%s: ranks %v built %v", name, ranks, got)
				}
				for r, c := range got {
					if _, dup := union[r]; dup {
						t.Errorf("%s: rank %d built twice", name, r)
					}
					union[r] = c
				}
				procs += part.Sim.LiveProcs()
			}
			if !maps.Equal(union, want) {
				t.Errorf("%s: union of parts = %v, New = %v", name, union, want)
			}
			if whole := whole.Sim.LiveProcs(); procs != whole {
				t.Errorf("%s: parts spawned %d processes, New %d", name, procs, whole)
			}
		}
	}
	if _, err := build(Config{ComputeNodes: 1}, buildEnv{}, []int{2}); err == nil {
		t.Error("rank outside the world accepted")
	}
}

// heldOnDeadDaemon is the auto-release scenario the two teardowns used to
// answer differently: the node's main returns holding two exclusive
// accelerators with device memory on both, one of whose daemons died
// meanwhile (kill does that, by accelerator id).
func heldOnDeadDaemon(t *testing.T, kill func(id int)) func(p *sim.Proc, n *Node) {
	return func(p *sim.Proc, n *Node) {
		handles, err := n.ARM.Acquire(p, 2, false)
		if err != nil {
			t.Errorf("acquire: %v", err)
			return
		}
		for _, h := range handles {
			if _, err := n.Attach(h).MemAlloc(p, 1<<16); err != nil {
				t.Errorf("alloc on ac%d: %v", h.ID, err)
			}
		}
		kill(handles[0].ID)
	}
}

// checkDeadDaemonBooks reads the stopped ARM's books: the accelerator
// whose daemon died is failed, never back in the pool as clean; the rest
// are free and the survivors' devices wiped.
func checkDeadDaemonBooks(t *testing.T, st arm.PoolStats, survivors []*core.Daemon) {
	t.Helper()
	if st.Total != 3 || st.Failed != 1 || st.Free != 2 || st.Assigned != 0 {
		t.Errorf("ARM books after teardown: %d total, %d failed, %d free, %d assigned; want 3/1/2/0",
			st.Total, st.Failed, st.Free, st.Assigned)
	}
	for _, d := range survivors {
		if used := d.Device().MemUsed(); used != 0 {
			t.Errorf("daemon rank %d still holds %d bytes", d.Rank(), used)
		}
	}
}

// TestTeardownFailsDeadDaemon pins that the one teardown keeps the same
// promise on both backends: hosted in this simulation the dead daemon is
// seen dead, hosted in another process it is found unreachable, and either
// way its accelerator is reported failed.
func TestTeardownFailsDeadDaemon(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Timeout = 50 * sim.Millisecond
	cfg := Config{ComputeNodes: 1, Accelerators: 3, Execute: true, Options: &opts}

	t.Run("sim", func(t *testing.T) {
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dead := -1
		cl.Spawn(0, heldOnDeadDaemon(t, func(id int) { dead = id; cl.KillDaemon(id) }))
		if _, err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		checkDeadDaemonBooks(t, cl.ARMShardServer(0).Snapshot(), slices.Delete(slices.Clone(cl.Daemons), dead, dead+1))
	})

	t.Run("socket", func(t *testing.T) {
		// One process per rank: cn0 | ac0 | ac1 | ac2 | arm.
		l := RankLayout(cfg)
		var rankSets [][]int
		for r := 0; r < l.Total; r++ {
			rankSets = append(rankSets, []int{r})
		}
		topo, err := ListenTopology("teardown-test", rankSets)
		if err != nil {
			t.Fatal(err)
		}
		members := make([]*Member, l.Total)
		var wg sync.WaitGroup
		for pid := range members {
			if members[pid], err = StartProcess(cfg, topo, pid); err != nil {
				t.Fatalf("StartProcess(%d): %v", pid, err)
			}
			if pid == 0 {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := members[pid].Serve(); err != nil {
					t.Errorf("proc %d Serve: %v", pid, err)
				}
			}()
		}
		client := members[0]
		dead := -1
		if err := client.Spawn(0, heldOnDeadDaemon(t, func(id int) {
			dead = id
			members[client.DaemonRank(id)].Stop()
		})); err != nil {
			t.Fatal(err)
		}
		if err := client.Run(); err != nil {
			t.Fatalf("client Run: %v", err)
		}
		wg.Wait()
		var survivors []*core.Daemon
		for id := 0; id < cfg.Accelerators; id++ {
			if id != dead {
				survivors = append(survivors, members[client.DaemonRank(id)].Daemons[id])
			}
		}
		checkDeadDaemonBooks(t, members[l.ARM[0]].ARMShardServer(0).Snapshot(), survivors)
	})
}
