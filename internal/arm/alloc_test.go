package arm

// Allocation regression tests for the shard-routing hot path. Every
// request a sharded client issues runs ring lookup + directory
// resolution, and releases additionally group handles per shard; a
// stray allocation there multiplies across the fleet benchmark's
// hundreds of thousands of operations, so the steady state is pinned at
// zero.

import (
	"os"
	"runtime"
	"slices"
	"testing"

	"dynacc/internal/minimpi"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
)

// TestRingOwnerAllocFree pins the consistent-hash lookup: a binary
// search over pre-sorted points, no closures, no boxing.
func TestRingOwnerAllocFree(t *testing.T) {
	r := NewRing(5)
	id := 0
	lookup := func() {
		if sh := r.Owner(id); sh < 0 || sh >= 5 {
			t.Fatalf("owner %d out of range", sh)
		}
		id++
	}
	if avg := testing.AllocsPerRun(1000, lookup); avg != 0 {
		t.Errorf("Ring.Owner allocates %.2f per lookup, want 0", avg)
	}
}

// TestDirectoryRankForAllocFree pins id → serving-rank resolution, the
// per-request routing step (including after a promotion flips a shard).
func TestDirectoryRankForAllocFree(t *testing.T) {
	dir := NewDirectory(NewRing(4), []int{10, 11, 12, 13}, []int{20, 21, 22, 23})
	dir.Promote(2)
	id := 0
	resolve := func() {
		if rank := dir.RankFor(id); rank < 10 {
			t.Fatalf("rank %d", rank)
		}
		id++
	}
	if avg := testing.AllocsPerRun(1000, resolve); avg != 0 {
		t.Errorf("Directory.RankFor allocates %.2f per lookup, want 0", avg)
	}
}

// TestRouteIDsAllocFree pins the release-batch routing: grouping a
// handle batch by owning shard reuses the client's scratch slices, so
// steady state (after the first calls size them) is allocation-free.
func TestRouteIDsAllocFree(t *testing.T) {
	s := sim.New()
	w, err := minimpi.NewWorld(s, 4, netmodel.QDRInfiniBand())
	if err != nil {
		t.Fatal(err)
	}
	dir := NewDirectory(NewRing(3), []int{1, 2, 3}, nil)
	sc := NewDirectoryClient(w.Comm(0), dir)
	handles := make([]Handle, 16)
	for i := range handles {
		handles[i] = Handle{ID: i, Rank: 100 + i}
	}
	route := func() {
		groups := sc.routeIDs(handles)
		n := 0
		for _, g := range groups {
			n += len(g)
		}
		if n != len(handles) {
			t.Fatalf("routed %d of %d ids", n, len(handles))
		}
	}
	route() // size the scratch slices
	if avg := testing.AllocsPerRun(1000, route); avg != 0 {
		t.Errorf("routeIDs allocates %.2f per batch, want 0", avg)
	}
}

// skipUnderPoison skips an allocation pin when DYNACC_POISON=1 makes
// minimpi retire every freed record instead of recycling it.
func skipUnderPoison(t *testing.T) {
	if os.Getenv("DYNACC_POISON") == "1" {
		t.Skip("DYNACC_POISON=1: freed records are retired, so every message allocates")
	}
}

// TestReplicatedAcquireReleaseAllocs pins both ends of a warm ARM round
// trip on a replicated shard: the client's call (a recycled receive, a pool
// copy of its request, a deadline armed without a closure), the leader's
// grant and reply (scratch, a recycled acquire record, a reply cache slot,
// a pool copy) and its snapshot, and the follower's in-place apply. What is
// left is the []Handle the caller gets back (on an untagged fleet; a
// tagged one adds each handle's class name, and each snapshot the
// follower's decoded capabilities). Measured 1 per acquire and 0
// per release; 19 and 12 while every message was a fresh encoding.
func TestReplicatedAcquireReleaseAllocs(t *testing.T) {
	const (
		pairs       = 1000
		attempts    = 3
		maxAcquire  = 1.05
		maxRelease  = 0.05
		warmupPairs = 2000
	)
	skipUnderPoison(t)
	sp := newPlanePool(t, 4, 1, 1, true, Options{ShareCapacity: 2}, func(int) Capability { return Capability{} })
	var acquire, release uint64
	sp.run(func(p *sim.Proc, c *Client, _ int) {
		var handles []Handle
		var ms runtime.MemStats
		mallocs := func() uint64 { runtime.ReadMemStats(&ms); return ms.Mallocs }
		cycle := func(n int) (acq, rel uint64) {
			for i := 0; i < n; i++ {
				m0 := mallocs()
				var err error
				if handles, err = c.AcquireShared(p, 1, false); err != nil {
					t.Fatalf("acquire: %v", err)
				}
				m1 := mallocs()
				if err := c.Release(p, handles); err != nil {
					t.Fatalf("release: %v", err)
				}
				acq, rel = acq+m1-m0, rel+mallocs()-m1
			}
			return acq, rel
		}
		// Every call and every snapshot arms a deadline that outlives it;
		// run until the first ones have run out, as a long run's have.
		cycle(warmupPairs)
		acquire, release = ^uint64(0), ^uint64(0)
		for i := 0; i < attempts; i++ {
			a, r := cycle(pairs)
			acquire, release = min(acquire, a), min(release, r)
		}
	})
	perAcquire, perRelease := float64(acquire)/pairs, float64(release)/pairs
	if perAcquire > maxAcquire || perRelease > maxRelease {
		t.Errorf("%.2f allocations per shared acquire and %.2f per release on a replicated shard, want <= %.2f and <= %.2f",
			perAcquire, perRelease, maxAcquire, maxRelease)
	}
	t.Logf("allocations: %.2f per acquire, %.2f per release", perAcquire, perRelease)
}

// TestReplicaApplyAllocFree pins the follower's apply of a warm snapshot of
// an untagged fleet, as the benchmark's, with leases and recorded replies:
// every accelerator is updated where it stands, holders in place, and the
// replies land in cache slots. (A tagged capability is decoded afresh;
// TestFollowerMirrorsLeader checks those are mirrored.)
func TestReplicaApplyAllocFree(t *testing.T) {
	skipUnderPoison(t)
	inv := []Handle{{ID: 0, Rank: 100}, {ID: 1, Rank: 101}, {ID: 2, Rank: 102}}
	hp := newHandPlane(t, 2, inv, inv, Options{ShareCapacity: 2})
	for c := 0; c < 2; c++ {
		w, _ := hp.frame(c, opAcquire)
		encodeConstraint(w.Int(2).U8(flagShared), Constraint{})
		hp.send(c, w.Bytes())
	}
	hp.leader.ship() // a snapshot of the leases, with no reply in it
	snaps := hp.tap.take()
	w, _ := hp.frame(0, opRelease)
	hp.leader.handle(0, w.Ints(nil).Bytes()) // and one with a reply
	snaps = append(snaps, hp.tap.take()...)
	var stream [][]byte
	for _, m := range snaps {
		if m.tag == TagReplicate {
			stream = append(stream, m.data)
		}
	}
	if len(stream) != 2 {
		t.Fatalf("captured %d snapshots, want 2", len(stream))
	}
	for _, snap := range stream {
		snap := snap
		hp.rp.apply(snap) // warm
		if avg := testing.AllocsPerRun(100, func() { hp.rp.apply(snap) }); avg != 0 {
			t.Errorf("Replica.apply allocates %.2f per snapshot, want 0", avg)
		}
	}
	if d := hp.diff(); d != "" {
		t.Error(d)
	}
}

// TestPickAllocFree pins the grant choice for a shared request: candidates
// in the server's scratch, ordered by holder count without sort's closure.
func TestPickAllocFree(t *testing.T) {
	var inv []Handle
	for id := 0; id < 8; id++ {
		inv = append(inv, Handle{ID: id, Rank: 100 + id})
	}
	hp := newHandPlane(t, 2, inv, inv, Options{ShareCapacity: 4})
	for id, a := range hp.leader.accels {
		for h := 0; h < id%3; h++ {
			a.state = acShared
			a.hold(10+h, 0)
		}
	}
	req := &pendingAcquire{src: 0, n: 3, shared: true}
	picked := hp.leader.pick(req)
	if got := []int{picked[0].id, picked[1].id, picked[2].id}; !slices.Equal(got, []int{0, 3, 6}) {
		t.Fatalf("picked %v, want the three least-held in pool order [0 3 6]", got)
	}
	if avg := testing.AllocsPerRun(1000, func() { hp.leader.pick(req) }); avg != 0 {
		t.Errorf("Server.pick allocates %.2f per shared request, want 0", avg)
	}
}

// TestARMReceivesFreeTheirRecords: every receive the ARM posts — a client
// call's reply, the server's request, the follower's snapshot — gives its
// minimpi records back once decoded. A replicated shard that serves 1 000
// more acquire/release calls ends with exactly as many records out as one
// that served 10: the follower's last receive, abandoned when it stops.
func TestARMReceivesFreeTheirRecords(t *testing.T) {
	out := func(pairs int) (reqs, msgs int) {
		sp := newPlanePool(t, 2, 1, 1, true, Options{ShareCapacity: 2}, func(int) Capability { return Capability{} })
		sp.s.Spawn("cn0", func(p *sim.Proc) {
			c := sp.clients[0]
			for i := 0; i < pairs; i++ {
				handles, err := c.AcquireShared(p, 1, false)
				if err != nil {
					t.Fatalf("acquire: %v", err)
				}
				if err := c.Release(p, handles); err != nil {
					t.Fatalf("release: %v", err)
				}
			}
			// Shut the leader down, let its last snapshot land, then stop the
			// follower before the silence promotes it.
			if err := c.ShutdownShard(p, 0); err != nil {
				t.Errorf("shutdown: %v", err)
			}
			p.Wait(sim.Millisecond)
			sp.reps[0].Stop()
		})
		if err := sp.s.Run(); err != nil {
			t.Fatal(err)
		}
		return sp.w.RecordsOut()
	}
	shortReqs, shortMsgs := out(10)
	longReqs, longMsgs := out(1010)
	if longReqs != shortReqs || longMsgs != shortMsgs || shortReqs > 1 || shortMsgs != 0 {
		t.Errorf("records out after 10 calls: %d requests, %d messages; after 1010: %d, %d; want 1 and 0 both times",
			shortReqs, shortMsgs, longReqs, longMsgs)
	}
}
