package cluster

import (
	"bytes"
	"os"
	"runtime"
	"testing"

	"dynacc/internal/arm"
	"dynacc/internal/core"
	"dynacc/internal/sim"
)

// warmAllocs runs round a few times to warm every free list, then reports
// the fewest allocations and bytes one round took over three attempts of
// rounds rounds each (the simulator repeats, so the minimum is the steady
// state).
func warmAllocs(round func(), rounds int) (allocs, bytes uint64) {
	for i := 0; i < 3; i++ {
		round()
	}
	allocs, bytes = ^uint64(0), ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for j := 0; j < rounds; j++ {
			round()
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, (after.Mallocs-before.Mallocs)/uint64(rounds))
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/uint64(rounds))
	}
	return allocs, bytes
}

// A warm tenant round shaped like sock_soak's, in the simulator: a shared
// lease, two tenants each attaching with a session of their own, then
// alloc, memset, 64 KiB up and back and free, then both closes and the
// release.
func TestWarmTenantRoundAllocs(t *testing.T) {
	const (
		n = 64 << 10
		// Measured 13 allocations and 2 809 bytes a round; the ceilings are
		// 2 % above. It read 65 and 5 305 while each session's record, view,
		// stream mailboxes and their names, barrier and close helper's
		// closures, and each ledger record, were made afresh.
		maxAllocs = 13
		maxBytes  = 2865
	)
	if os.Getenv("DYNACC_POISON") == "1" {
		t.Skip("DYNACC_POISON=1: freed records are retired, so every message allocates")
	}
	cl, err := New(Config{ComputeNodes: 1, Accelerators: 1, ShareCapacity: 2, Execute: true})
	if err != nil {
		t.Fatal(err)
	}
	payload, back := bytes.Repeat([]byte{0x5A}, n), make([]byte, n)
	cl.Spawn(0, func(p *sim.Proc, node *Node) {
		round := func() {
			handles, err := node.ARM.AcquireShared(p, 1, true)
			if err != nil {
				t.Fatalf("acquire shared: %v", err)
			}
			var open [2]*core.Accel
			for tenant := range open {
				ac, err := node.AttachSession(p, handles[0])
				if err != nil {
					t.Fatalf("tenant %d session open: %v", tenant, err)
				}
				open[tenant] = ac
				ptr, err := ac.MemAlloc(p, n)
				if err == nil {
					err = ac.Memset(p, ptr, 0, n, 0)
				}
				if err == nil {
					err = ac.MemcpyH2D(p, ptr, 0, payload, n)
				}
				if err == nil {
					err = ac.MemcpyD2H(p, back, ptr, 0, n)
				}
				if err == nil {
					err = ac.MemFree(p, ptr)
				}
				if err != nil {
					t.Fatalf("tenant %d: %v", tenant, err)
				}
				if !bytes.Equal(back, payload) {
					t.Fatalf("tenant %d: the download differs from the upload", tenant)
				}
			}
			for tenant, ac := range open {
				if err := ac.CloseSession(p); err != nil {
					t.Fatalf("tenant %d session close: %v", tenant, err)
				}
			}
			if err := node.ARM.Release(p, handles); err != nil {
				t.Fatalf("release: %v", err)
			}
		}
		allocs, bytes := warmAllocs(round, 10)
		t.Logf("a warm tenant round: %d allocations, %d bytes", allocs, bytes)
		if allocs > maxAllocs || bytes > maxBytes {
			t.Errorf("a warm tenant round: %d allocations and %d bytes, want <= %d and <= %d", allocs, bytes, maxAllocs, maxBytes)
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// With health on, every daemon heartbeats the ARM; a warm beat, the
// daemon's encoding and send and the ARM's handling of it, allocates
// nothing.
func TestWarmHeartbeatAllocs(t *testing.T) {
	const beats = 50
	if os.Getenv("DYNACC_POISON") == "1" {
		t.Skip("DYNACC_POISON=1: freed records are retired, so every message allocates")
	}
	hc := arm.DefaultHealthConfig()
	cl, err := New(Config{ComputeNodes: 1, Accelerators: 4, Health: &hc})
	if err != nil {
		t.Fatal(err)
	}
	cl.Spawn(0, func(p *sim.Proc, node *Node) {
		handles, err := node.ARM.Acquire(p, 2, true)
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		ac := node.Attach(handles[0])
		round := func() {
			// One request per beat keeps the holder active, so the beats
			// carry a lease renewal.
			ptr, err := ac.MemAlloc(p, 256)
			if err == nil {
				err = ac.MemFree(p, ptr)
			}
			if err != nil {
				t.Fatalf("alloc and free: %v", err)
			}
			p.Wait(hc.HeartbeatInterval)
		}
		allocs, _ := warmAllocs(round, beats)
		t.Logf("%d allocations a heartbeat interval", allocs)
		if allocs > 0 {
			t.Errorf("%d allocations a heartbeat interval of four daemons, want 0", allocs)
		}
		if err := node.ARM.Release(p, handles); err != nil {
			t.Fatalf("release: %v", err)
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}
