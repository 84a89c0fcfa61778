package faults_test

// Partition-semantics regressions: a severed link DROPS traffic — it
// does not queue it. Messages sent into a partition must never be
// delivered after the heal (a heal that replayed stale traffic would
// resurrect pre-partition leases, heartbeats, and grants the fencing
// machinery already wrote off). One-way severs must cut exactly one
// direction. The faults are the same Plan values the chaos batteries
// use.

import (
	"encoding/binary"
	"testing"

	"dynacc/internal/arm"
	"dynacc/internal/cluster"
	"dynacc/internal/faults"
	"dynacc/internal/minimpi"
	"dynacc/internal/sim"
)

const (
	semTagFwd minimpi.Tag = 901
	semTagRev minimpi.Tag = 902
	semDone               = 999 // sentinel sequence number ending a stream
)

func semSend(c *minimpi.Comm, dst int, tag minimpi.Tag, seq uint64) {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, seq)
	c.Isend(dst, tag, buf).Free()
}

// semStream sends sequence numbers 0..n-1 at 1 ms intervals, then the
// sentinel, and returns when everything is on the wire.
func semStream(p *sim.Proc, c *minimpi.Comm, dst int, tag minimpi.Tag, n int) {
	for k := 0; k < n; k++ {
		semSend(c, dst, tag, uint64(k))
		p.Wait(sim.Millisecond)
	}
	semSend(c, dst, tag, semDone)
}

// semCollect receives until the sentinel and returns the sequence
// numbers that made it through.
func semCollect(p *sim.Proc, c *minimpi.Comm, src int, tag minimpi.Tag) []uint64 {
	var got []uint64
	for {
		data, _ := c.Recv(p, src, tag)
		seq := binary.LittleEndian.Uint64(data)
		if seq == semDone {
			return got
		}
		got = append(got, seq)
	}
}

// semVerify checks that exactly the sequences outside [lo, hi] arrived,
// in order, with no duplicates — the ones sent into the partition are
// gone for good.
func semVerify(t *testing.T, who string, got []uint64, n int, lo, hi uint64) {
	t.Helper()
	var want []uint64
	for k := uint64(0); k < uint64(n); k++ {
		if k < lo || k > hi {
			want = append(want, k)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: received %d messages %v, want %d %v", who, len(got), got, len(want), want)
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: message %d is seq %d, want %d (full: %v)", who, i, got[i], want[i], got)
			return
		}
	}
}

// TestSeverLinkDropsStayDropped streams sequence numbers across a link
// that is severed mid-stream and healed later: the sequences sent while
// the link was down must be missing from the receiver — not delayed,
// not replayed after the heal — while everything outside the window
// arrives exactly once and in order.
func TestSeverLinkDropsStayDropped(t *testing.T) {
	const n = 31 // seq k leaves at t = k ms
	cl, err := cluster.New(cluster.Config{ComputeNodes: 2, Accelerators: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Sever [4.5 ms, 14.5 ms): sequences 5..14 die on the wire.
	faults.Plan{Seed: 1, Faults: []faults.Fault{
		{At: 4500 * sim.Microsecond, Verb: faults.Link, A: 0, B: 1, Drop: 1},
		{At: 14500 * sim.Microsecond, Verb: faults.Link, A: 0, B: 1},
	}}.Arm(cl)
	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		semStream(p, node.App, 1, semTagFwd, n)
	})
	cl.Spawn(1, func(p *sim.Proc, node *cluster.Node) {
		got := semCollect(p, node.App, 0, semTagFwd)
		semVerify(t, "cn1", got, n, 5, 14)
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSeverLinkOneWayIsDirectional cuts only the cn0→cn1 direction:
// cn0's stream loses its partition window while cn1's simultaneous
// reverse stream arrives complete.
func TestSeverLinkOneWayIsDirectional(t *testing.T) {
	const n = 31
	cl, err := cluster.New(cluster.Config{ComputeNodes: 2, Accelerators: 1})
	if err != nil {
		t.Fatal(err)
	}
	faults.Plan{Seed: 1, Faults: []faults.Fault{
		{At: 4500 * sim.Microsecond, Verb: faults.Link, A: 0, B: 1, OneWay: true, Drop: 1},
		{At: 14500 * sim.Microsecond, Verb: faults.Link, A: 0, B: 1, OneWay: true},
	}}.Arm(cl)
	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		semStream(p, node.App, 1, semTagFwd, n)
		got := semCollect(p, node.App, 1, semTagRev)
		semVerify(t, "cn0 (reverse, unsevered)", got, n, 1, 0) // nothing missing
	})
	cl.Spawn(1, func(p *sim.Proc, node *cluster.Node) {
		semStream(p, node.App, 0, semTagRev, n)
		got := semCollect(p, node.App, 0, semTagFwd)
		semVerify(t, "cn1 (forward, severed)", got, n, 5, 14)
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionARMSuspectAndRecover partitions one daemon away from the
// ARM: its heartbeats are genuinely lost (the detector marks the free
// accelerator suspect — queued-for-later delivery would keep it
// healthy), and after the heal fresh beats return it to the pool. The
// stale beats from the window must not resurrect anything early.
func TestPartitionARMSuspectAndRecover(t *testing.T) {
	const (
		severAt = 5 * sim.Millisecond
		healAt  = 25 * sim.Millisecond
	)
	hc := arm.HealthConfig{
		HeartbeatInterval: 2 * sim.Millisecond,
		SuspectAfter:      6 * sim.Millisecond,
	}
	cl, err := cluster.New(cluster.Config{ComputeNodes: 1, Accelerators: 1, Health: &hc})
	if err != nil {
		t.Fatal(err)
	}
	faults.Plan{Seed: 1, Faults: []faults.Fault{
		{At: severAt, Verb: faults.Link, A: cl.DaemonRank(0), B: cl.ARMRank(), Drop: 1},
		{At: healAt, Verb: faults.Link, A: cl.DaemonRank(0), B: cl.ARMRank()},
	}}.Arm(cl)
	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		sawSuspect := false
		// During the partition the accelerator must leave the pool.
		for p.Now().Sub(sim.Time(0).Add(healAt)) < 0 {
			st, err := node.ARM.StatsEx(p)
			if err != nil {
				t.Errorf("stats: %v", err)
				return
			}
			if st.Suspect == 1 {
				sawSuspect = true
			}
			p.Wait(sim.Millisecond)
		}
		if !sawSuspect {
			t.Error("accelerator never went suspect during the heartbeat partition")
		}
		// After the heal it must rejoin and be grantable again.
		deadline := p.Now().Add(30 * sim.Millisecond)
		for {
			st, err := node.ARM.StatsEx(p)
			if err != nil {
				t.Errorf("stats: %v", err)
				return
			}
			if st.Suspect == 0 && st.Free == 1 {
				break
			}
			if p.Now().Sub(deadline) >= 0 {
				t.Errorf("accelerator did not recover after heal: %+v", st)
				return
			}
			p.Wait(sim.Millisecond)
		}
		handles, err := node.ARM.Acquire(p, 1, false)
		if err != nil {
			t.Errorf("post-heal acquire: %v", err)
			return
		}
		if err := node.ARM.Release(p, handles); err != nil {
			t.Errorf("post-heal release: %v", err)
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}
