package arm

// shard_test.go exercises the sharded control plane end to end at the
// protocol level: peer forwarding, least-loaded fallback, elastic
// register/retire, and follower promotion with lease continuity. The
// worlds here are control-plane only (synthetic daemon ranks), like
// arm_test.go's pool.

import (
	"fmt"
	"testing"

	"dynacc/internal/minimpi"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
)

// shardPool is a test world with nCN client ranks (0..nCN-1), one leader
// rank per shard, and — with replicas — one follower rank per shard.
type shardPool struct {
	t       *testing.T
	s       *sim.Simulation
	w       *minimpi.World
	dir     *Directory
	srvs    []*Server
	reps    []*Replica
	clients []*Client
	nCN     int
}

func newShardPool(t *testing.T, nAC, nCN, shards int, replicas bool) *shardPool {
	t.Helper()
	return newPlanePool(t, nAC, nCN, shards, replicas, Options{}, func(int) Capability { return Capability{} })
}

// newPlanePool is newShardPool with server options and a capability per
// accelerator id.
func newPlanePool(t *testing.T, nAC, nCN, shards int, replicas bool, opts Options, capOf func(id int) Capability) *shardPool {
	t.Helper()
	s := sim.New()
	armRanks := shards
	if replicas {
		armRanks *= 2
	}
	w, err := minimpi.NewWorld(s, nCN+armRanks, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	leaders := make([]int, shards)
	var followers []int
	for sh := 0; sh < shards; sh++ {
		leaders[sh] = nCN + sh
	}
	if replicas {
		followers = make([]int, shards)
		for sh := 0; sh < shards; sh++ {
			followers[sh] = nCN + shards + sh
		}
	}
	dir := NewDirectory(NewRing(shards), leaders, followers)
	perShard := make([][]Handle, shards)
	for id := 0; id < nAC; id++ {
		sh := dir.OwnerOf(id)
		perShard[sh] = append(perShard[sh], Handle{ID: id, Rank: 100 + id, Cap: capOf(id)})
	}
	sp := &shardPool{t: t, s: s, w: w, dir: dir, nCN: nCN}
	for sh := 0; sh < shards; sh++ {
		opts.Shard, opts.Directory = sh, dir
		srv, err := NewServerOpts(w.Comm(leaders[sh]), perShard[sh], opts)
		if err != nil {
			t.Fatal(err)
		}
		sp.srvs = append(sp.srvs, srv)
		s.Spawn(fmt.Sprintf("arm-s%d", sh), srv.Run)
		if replicas {
			rp, err := ReplicaFor(w.Comm(followers[sh]), dir, sh, perShard[sh], opts, 0)
			if err != nil {
				t.Fatal(err)
			}
			sp.reps = append(sp.reps, rp)
			s.Spawn(fmt.Sprintf("arm-s%d-replica", sh), rp.Run)
		}
	}
	// One client instance per rank, shared with the closer: a rank's
	// reqID sequence must stay monotonic for the dedup cache.
	for r := 0; r < nCN; r++ {
		sp.clients = append(sp.clients, NewDirectoryClient(w.Comm(r), dir))
	}
	return sp
}

// run spawns each client function, then tears the shard fleet down:
// standby followers are stopped first (they would otherwise promote into
// the silence left by leader shutdown), then every live serving shard is
// stopped.
func (sp *shardPool) run(client func(p *sim.Proc, c *Client, rank int)) {
	sp.t.Helper()
	var procs []*sim.Proc
	for r := 0; r < sp.nCN; r++ {
		r := r
		procs = append(procs, sp.s.Spawn(fmt.Sprintf("cn%d", r), func(p *sim.Proc) {
			client(p, sp.clients[r], r)
		}))
	}
	sp.s.Spawn("closer", func(p *sim.Proc) {
		for _, cp := range procs {
			cp.Done().Await(p)
		}
		for _, rp := range sp.reps {
			rp.Stop() // no-op on a promoted replica
		}
		for sh, srv := range sp.srvs {
			if len(sp.reps) > 0 && sp.reps[sh].Promoted() {
				srv = sp.reps[sh].Server()
			}
			if srv.Closed() {
				continue
			}
			if err := sp.clients[0].ShutdownShard(p, sh); err != nil {
				sp.t.Errorf("shutdown shard %d: %v", sh, err)
			}
		}
	})
	if err := sp.s.Run(); err != nil {
		sp.t.Fatal(err)
	}
}

func TestShardedAcquireReleaseStats(t *testing.T) {
	// 9 accelerators over 3 shards (ring splits them 4/3/2); two clients
	// each take 3, so at least one acquire crosses shards.
	sp := newShardPool(t, 9, 2, 3, false)
	sp.run(func(p *sim.Proc, c *Client, rank int) {
		p.Wait(3 * sim.Millisecond) // let load gossip warm up
		handles, err := c.Acquire(p, 1, true)
		if err != nil {
			t.Errorf("cn%d acquire: %v", rank, err)
			return
		}
		for i := 0; i < 2; i++ {
			hs, err := c.Acquire(p, 1, true)
			if err != nil {
				t.Errorf("cn%d acquire %d: %v", rank, i, err)
				return
			}
			handles = append(handles, hs...)
		}
		seen := map[int]bool{}
		for _, h := range handles {
			if h.Rank != 100+h.ID {
				t.Errorf("handle %d has rank %d", h.ID, h.Rank)
			}
			if seen[h.ID] {
				t.Errorf("cn%d holds accelerator %d twice", rank, h.ID)
			}
			seen[h.ID] = true
		}
		st, err := c.Stats(p)
		if err != nil {
			t.Errorf("stats: %v", err)
			return
		}
		if st.Total != 9 {
			t.Errorf("aggregate Total = %d, want 9", st.Total)
		}
		if err := c.Release(p, handles); err != nil {
			t.Errorf("cn%d release: %v", rank, err)
		}
		if rank == 0 {
			p.Wait(5 * sim.Millisecond) // let the peer finish releasing
			st, err := c.Stats(p)
			if err != nil {
				t.Errorf("final stats: %v", err)
				return
			}
			if st.Free != 9 || st.Assigned != 0 {
				t.Errorf("final stats: Free=%d Assigned=%d, want 9/0", st.Free, st.Assigned)
			}
		}
	})
}

// TestPacedAcquireBuildsJitterAtFirstBackOff: across shards a blocking
// acquire is client-paced, and its jitter RNG — a 4.9 KB source and its
// seeding — is built at the first back-off: an acquire granted at the first
// try never builds it, one that has to wait for a holder does.
func TestPacedAcquireBuildsJitterAtFirstBackOff(t *testing.T) {
	sp := newShardPool(t, 1, 2, 2, false)
	sp.run(func(p *sim.Proc, c *Client, rank int) {
		p.Wait(sim.Duration(3+rank) * sim.Millisecond) // gossip warms up; rank 0 goes first
		handles, err := c.Acquire(p, 1, true)
		if err != nil {
			t.Errorf("cn%d acquire: %v", rank, err)
			return
		}
		switch {
		case rank == 0 && c.rng != nil:
			t.Error("an acquire granted at the first try built its jitter RNG")
		case rank == 1 && c.rng == nil:
			t.Error("an acquire that backed off did so without its jitter RNG")
		}
		p.Wait(5 * sim.Millisecond) // hold it: rank 1 backs off meanwhile
		if err := c.Release(p, handles); err != nil {
			t.Errorf("cn%d release: %v", rank, err)
		}
	})
}

func TestShardedCrossShardFallback(t *testing.T) {
	// One client drains the whole 6-accelerator fleet one handle at a
	// time: once its home shard is empty, grants must come from the
	// least-loaded peers via forwarding.
	const nAC = 6
	sp := newShardPool(t, nAC, 1, 3, false)
	for sh := 0; sh < 3; sh++ {
		owns := 0
		for id := 0; id < nAC; id++ {
			if sp.dir.OwnerOf(id) == sh {
				owns++
			}
		}
		if owns == 0 {
			t.Fatalf("ring gives shard %d no accelerators; pick different test sizes", sh)
		}
	}
	sp.run(func(p *sim.Proc, c *Client, rank int) {
		p.Wait(3 * sim.Millisecond)
		var handles []Handle
		shardsUsed := map[int]bool{}
		for i := 0; i < nAC; i++ {
			hs, err := c.Acquire(p, 1, true)
			if err != nil {
				t.Errorf("acquire %d: %v", i, err)
				return
			}
			handles = append(handles, hs...)
			shardsUsed[sp.dir.OwnerOf(hs[0].ID)] = true
		}
		if len(shardsUsed) != 3 {
			t.Errorf("grants came from shards %v, want all 3", shardsUsed)
		}
		st, err := c.Stats(p)
		if err != nil {
			t.Errorf("stats: %v", err)
			return
		}
		if st.Free != 0 || st.Assigned != nAC {
			t.Errorf("drained stats: Free=%d Assigned=%d, want 0/%d", st.Free, st.Assigned, nAC)
		}
		// The fleet is empty and gossip knows it: one more non-blocking
		// acquire must come back unavailable, not hang or double-grant.
		if _, err := c.Acquire(p, 1, false); err != ErrUnavailable {
			t.Errorf("acquire on empty fleet: %v, want ErrUnavailable", err)
		}
		if err := c.Release(p, handles); err != nil {
			t.Errorf("release: %v", err)
		}
	})
}

func TestShardedRegisterRetire(t *testing.T) {
	sp := newShardPool(t, 3, 1, 3, false)
	sp.run(func(p *sim.Proc, c *Client, rank int) {
		p.Wait(3 * sim.Millisecond)
		// Elastic grow: admit two new accelerators into the live fleet.
		for _, id := range []int{3, 4} {
			if err := c.RegisterCapable(p, id, 100+id, Capability{}); err != nil {
				t.Errorf("register %d: %v", id, err)
				return
			}
		}
		if err := c.RegisterCapable(p, 3, 103, Capability{}); err != ErrBadRequest {
			t.Errorf("duplicate register: %v, want ErrBadRequest", err)
		}
		st, err := c.StatsEx(p)
		if err != nil {
			t.Errorf("statsex: %v", err)
			return
		}
		if st.Total != 5 || len(st.PerAccel) != 5 {
			t.Errorf("after grow: Total=%d PerAccel=%d, want 5/5", st.Total, len(st.PerAccel))
		}
		for i, pa := range st.PerAccel {
			if pa.ID != i {
				t.Errorf("PerAccel[%d].ID = %d (aggregate not sorted)", i, pa.ID)
			}
		}
		// The registered accelerators are real pool members: drain the
		// whole fleet through them.
		handles, err := c.Acquire(p, 1, true)
		if err != nil {
			t.Errorf("acquire: %v", err)
			return
		}
		for i := 0; i < 4; i++ {
			hs, err := c.Acquire(p, 1, true)
			if err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			handles = append(handles, hs...)
		}
		if err := c.Release(p, handles); err != nil {
			t.Errorf("release: %v", err)
			return
		}
		// Elastic shrink: retire one original and one registered
		// accelerator; both must leave the inventory for good.
		for _, id := range []int{0, 4} {
			if err := c.Retire(p, id, 0); err != nil {
				t.Errorf("retire %d: %v", id, err)
				return
			}
		}
		if err := c.Retire(p, 0, 0); err != ErrBadRequest {
			t.Errorf("retire of removed accelerator: %v, want ErrBadRequest", err)
		}
		st, err = c.StatsEx(p)
		if err != nil {
			t.Errorf("statsex: %v", err)
			return
		}
		if st.Total != 3 || st.Retired != 0 || len(st.PerAccel) != 3 {
			t.Errorf("after shrink: Total=%d Retired=%d PerAccel=%d, want 3/0/3",
				st.Total, st.Retired, len(st.PerAccel))
		}
		for _, pa := range st.PerAccel {
			if pa.ID == 0 || pa.ID == 4 {
				t.Errorf("retired accelerator %d still in inventory", pa.ID)
			}
		}
	})
}

func TestShardedFailoverPromotion(t *testing.T) {
	// Kill the leader owning the client's handles mid-session: the
	// follower must promote, the replicated ownership must survive, and
	// the client must fail over transparently on its next calls.
	sp := newShardPool(t, 4, 1, 2, true)
	sp.run(func(p *sim.Proc, c *Client, rank int) {
		p.Wait(3 * sim.Millisecond)
		handles, err := c.Acquire(p, 2, true)
		if err != nil {
			t.Errorf("acquire: %v", err)
			return
		}
		victim := sp.dir.OwnerOf(handles[0].ID)
		sp.srvs[victim].Kill()
		// Promotion fires after DeadAfter (20ms) of replication silence;
		// the client's failover timeout is twice that.
		p.Wait(70 * sim.Millisecond)
		if !sp.dir.Promoted(victim) || !sp.reps[victim].Promoted() {
			t.Errorf("shard %d not promoted after leader death", victim)
			return
		}
		st, err := c.Stats(p)
		if err != nil {
			t.Errorf("stats after failover: %v", err)
			return
		}
		if st.Total != 4 || st.Assigned != 2 {
			t.Errorf("post-failover stats: Total=%d Assigned=%d, want 4/2", st.Total, st.Assigned)
		}
		// The promoted follower learned the leases from the replication
		// stream: releasing through it must succeed.
		if err := c.Release(p, handles); err != nil {
			t.Errorf("release after failover: %v", err)
			return
		}
		st, err = c.Stats(p)
		if err != nil {
			t.Errorf("final stats: %v", err)
			return
		}
		if st.Free != 4 || st.Assigned != 0 {
			t.Errorf("final stats: Free=%d Assigned=%d, want 4/0", st.Free, st.Assigned)
		}
	})
}

// TestRepairEndsRankZeroHold pins that the holder table has no "0 means
// nobody" sentinel: compute node 0 is a legal holder, so an operator
// Fail+Repair of an accelerator it holds must end its hold in the grant
// ledger, or the next grant reads as a split brain.
func TestRepairEndsRankZeroHold(t *testing.T) {
	sp := newShardPool(t, 1, 2, 1, false)
	sp.run(func(p *sim.Proc, c *Client, rank int) {
		if rank == 0 {
			if _, err := c.Acquire(p, 1, false); err != nil {
				t.Errorf("cn0 acquire: %v", err)
			}
			return // never releases
		}
		p.Wait(sim.Millisecond) // after cn0's acquire
		if err := c.Fail(p, 0); err != nil {
			t.Errorf("fail: %v", err)
		}
		if err := c.Repair(p, 0); err != nil {
			t.Errorf("repair: %v", err)
		}
		hs, err := c.Acquire(p, 1, false)
		if err != nil {
			t.Errorf("cn1 acquire after repair: %v", err)
			return
		}
		if err := c.Release(p, hs); err != nil {
			t.Errorf("cn1 release: %v", err)
		}
	})
	if v := CheckSplitBrain(sp.srvs[0].GrantLedger(), nil); len(v) != 0 {
		t.Errorf("false overlap after repairing rank 0's accelerator: %v", v)
	}
}
