package cluster

import (
	"testing"

	"dynacc/internal/sim"
)

func TestReportCountsActivity(t *testing.T) {
	cl, err := New(Config{ComputeNodes: 2, Accelerators: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4 << 20
	cl.Spawn(0, func(p *sim.Proc, node *Node) {
		h, err := node.ARM.Acquire(p, 1, false)
		if err != nil {
			t.Error(err)
			return
		}
		defer node.ARM.Release(p, h)
		ac := node.Attach(h[0])
		ptr, err := ac.MemAlloc(p, n)
		if err != nil {
			t.Error(err)
			return
		}
		if err := ac.MemcpyH2D(p, ptr, 0, nil, n); err != nil {
			t.Error(err)
		}
		if err := ac.MemcpyD2H(p, nil, ptr, 0, n/2); err != nil {
			t.Error(err)
		}
	})
	cl.Spawn(1, func(p *sim.Proc, node *Node) {})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	// The three sources every consumer reads directly: the device's
	// counters, the daemon's, and the world's per-rank traffic.
	if len(cl.Daemons) != 1 {
		t.Fatalf("%d daemons, want 1", len(cl.Daemons))
	}
	d := cl.Daemons[0]
	dev := d.Device().Stats()
	if dev.BytesIn != n || dev.BytesOut != n/2 {
		t.Errorf("device bytes = %d in, %d out", dev.BytesIn, dev.BytesOut)
	}
	if elapsed := sim.Duration(cl.Sim.Now()); elapsed <= 0 || dev.Busy <= 0 || dev.Busy > elapsed {
		t.Errorf("device busy %v of %v elapsed", dev.Busy, elapsed)
	}
	if d.Stats().Requests == 0 {
		t.Error("no requests recorded")
	}
	// Node 0 moved the payloads; node 1 idled; the daemon received them.
	cn0, cn1, ac := cl.World.Traffic(0), cl.World.Traffic(1), cl.World.Traffic(d.Rank())
	if cn0.BytesSent <= cn1.BytesSent || cn0.BytesSent < n {
		t.Errorf("node byte accounting: %d vs %d", cn0.BytesSent, cn1.BytesSent)
	}
	if ac.BytesReceived < n || ac.BytesSent < n/2 || ac.RxBusy <= 0 {
		t.Errorf("daemon traffic: %+v", ac)
	}
}
