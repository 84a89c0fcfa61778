package arm

// Allocation regression tests for the shard-routing hot path. Every
// request a sharded client issues runs ring lookup + directory
// resolution, and releases additionally group handles per shard; a
// stray allocation there multiplies across the fleet benchmark's
// hundreds of thousands of operations, so the steady state is pinned at
// zero.

import (
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
