package faults_test

// Acceptance chaos scenarios for the ARM health subsystem: a crashed
// client's accelerators must come back through lease expiry alone, and a
// suspect daemon's resident device state must live-migrate to a spare —
// in both cases without the client calling Failover. The scenarios run
// under CHAOS_SEED (CI sweeps a small seed matrix) which parameterizes
// the injected heartbeat-loss noise.

import (
	"encoding/binary"
	"math"
	"os"
	"strconv"
	"testing"

	"dynacc/internal/arm"
	"dynacc/internal/cluster"
	"dynacc/internal/core"
	"dynacc/internal/faults"
	"dynacc/internal/gpu"
	"dynacc/internal/sim"
)

// chaosSeed returns the fault-plan seed, from CHAOS_SEED when set.
func chaosSeed(t *testing.T) int64 {
	v := os.Getenv("CHAOS_SEED")
	if v == "" {
		return 1
	}
	seed, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("bad CHAOS_SEED %q: %v", v, err)
	}
	return seed
}

// A client killed mid-job releases nothing — the ARM's leases must get
// every accelerator back into the free pool within 2×LeaseTTL of the
// crash, sanitized (device memory empty), with no cooperation from the
// dead client. Heartbeat loss is injected on the daemon↔ARM link while
// the client is still alive.
func TestChaosClientCrashLeaseReclaim(t *testing.T) {
	const (
		ttl    = 20 * sim.Millisecond
		killAt = 10 * sim.Millisecond
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
		ComputeNodes: 2,
		Accelerators: 2,
		Fleet:        chaosFleet(2),
		Options:      &opts,
		Daemon:       &dcfg,
		Health:       &hc,
	})
	if err != nil {
		t.Fatal(err)
	}
	faults.Plan{Seed: chaosSeed(t), Faults: []faults.Fault{
		{Verb: faults.Link, A: cl.DaemonRank(0), B: cl.ARMRank(), Drop: 0.05}, // seeded heartbeat loss
		{At: 25 * sim.Millisecond, Verb: faults.Link, A: cl.DaemonRank(0), B: cl.ARMRank()},
		{At: killAt, Verb: faults.KillClient, A: 0},
	}}.Arm(cl)

	// The victim: grabs the whole pool, uploads, and works until killed.
	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		handles, err := node.ARM.Acquire(p, 2, false)
		if err != nil {
			t.Fatalf("victim acquire: %v", err)
		}
		a := node.Attach(handles[0])
		ptr, err := a.MemAlloc(p, 256<<10)
		if err != nil {
			t.Fatalf("victim alloc: %v", err)
		}
		if err := a.MemcpyH2D(p, ptr, 0, nil, 256<<10); err != nil {
			t.Fatalf("victim upload: %v", err)
		}
		for { // busy until the crash: activity keeps the leases renewed
			if err := a.Memset(p, ptr, 0, 4096, 0xCC); err != nil {
				return // post-crash wind-down of an in-flight op
			}
			p.Wait(sim.Millisecond)
		}
	})
	// The observer: watches the pool recover from another node. A free pool
	// counts only once it has been seen held: one read before the victim's
	// grant lands is the empty pool, not a reclaim.
	cl.Spawn(1, func(p *sim.Proc, node *cluster.Node) {
		deadline := sim.Time(0).Add(killAt + 2*ttl)
		for held := false; ; {
			st, err := node.ARM.Stats(p)
			if err != nil {
				t.Fatalf("observer stats: %v", err)
			}
			held = held || st.Free < 2
			if held && st.Free == 2 {
				if st.Reclaimed < 2 {
					t.Fatalf("pool free but Reclaimed = %d, want >= 2 (lease expiry)", st.Reclaimed)
				}
				break
			}
			if p.Now().Sub(deadline) >= 0 {
				t.Fatalf("pool not reclaimed by kill+2*TTL (%v): %+v", deadline, st)
			}
			p.Wait(sim.Millisecond)
		}
		// Sanitized: the dead client's allocations are gone.
		for i := 0; i < 2; i++ {
			if used := cl.Daemons[i].Device().MemUsed(); used != 0 {
				t.Fatalf("ac%d holds %d bytes after reclaim, want 0", i, used)
			}
		}
		// And the pool is genuinely reusable.
		handles, err := node.ARM.Acquire(p, 2, false)
		if err != nil {
			t.Fatalf("post-reclaim acquire: %v", err)
		}
		if err := node.ARM.Release(p, handles); err != nil {
			t.Fatalf("post-reclaim release: %v", err)
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// A daemon partitioned from the ARM (but still serving its client) goes
// suspect; the health watcher must move the client's resident
// device state to a spare over the daemon-to-daemon pipeline. The
// contents are kernel-produced — they exist nowhere on the host, so a
// byte-identical buffer on the spare proves the device-to-device path,
// and the application never calls Failover (it only ever waits).
func TestChaosSuspectDaemonLiveMigration(t *testing.T) {
	const n = 8192 // float64s
	reg := gpu.NewRegistry()
	reg.Register(gpu.FuncKernel{
		KernelName: "fillseq",
		CostFn: func(l gpu.Launch, m gpu.Model) sim.Duration {
			return sim.Duration(float64(8*l.Arg(1).Int) / m.MemBandwidth * 1e9)
		},
		ExecFn: func(l gpu.Launch, dev *gpu.Device) error {
			cnt := int(l.Arg(1).Int)
			vals := make([]float64, cnt)
			for i := range vals {
				vals[i] = float64(i)*0.5 + 3
			}
			return dev.WriteFloat64s(l.Arg(0).Ptr, 0, vals)
		},
	})
	opts := chaosOptions()
	opts.Timeout = 50 * sim.Millisecond
	opts.Retries = 2
	dcfg := core.DefaultDaemonConfig()
	dcfg.PayloadTimeout = 20 * sim.Millisecond
	hc := arm.HealthConfig{
		HeartbeatInterval: 2 * sim.Millisecond,
		SuspectAfter:      6 * sim.Millisecond,
	}
	cl, err := cluster.New(cluster.Config{
		ComputeNodes: 1,
		Accelerators: 2,
		Fleet:        chaosFleet(2),
		Registry:     reg,
		Execute:      true,
		Options:      &opts,
		Daemon:       &dcfg,
		Health:       &hc,
	})
	if err != nil {
		t.Fatal(err)
	}
	faults.Plan{Seed: chaosSeed(t), Faults: []faults.Fault{
		{At: 2 * sim.Millisecond, Verb: faults.Link, A: cl.DaemonRank(0), B: cl.ARMRank(), Drop: 0.1}, // flaky, then
		{At: 10 * sim.Millisecond, Verb: faults.Link, A: cl.DaemonRank(0), B: cl.ARMRank(), Drop: 1},  // gone for good
	}}.Arm(cl)

	spare := cl.DaemonRank(1)
	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		handles, err := node.ARM.Acquire(p, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		a := node.Attach(handles[0])
		if a.Rank() == spare {
			t.Fatalf("test expects the first grant on ac0, got rank %d", a.Rank())
		}
		ptr, err := a.MemAlloc(p, 8*n)
		if err != nil {
			t.Fatal(err)
		}
		k := a.KernelCreate("fillseq").SetArgs(gpu.PtrArg(ptr), gpu.IntArg(n))
		if err := k.Run(p, gpu.Dim3{X: 32}, gpu.Dim3{X: 256}); err != nil {
			t.Fatalf("kernel: %v", err)
		}
		if err := a.Sync(p); err != nil {
			t.Fatalf("sync: %v", err)
		}
		// The application idles; partition, suspicion and migration all
		// happen behind its back.
		p.Wait(30 * sim.Millisecond)
		if a.Rank() != spare {
			t.Fatalf("handle still on rank %d, want migrated to spare %d", a.Rank(), spare)
		}
		got := make([]byte, 8*n)
		if err := a.MemcpyD2H(p, got, ptr, 0, 8*n); err != nil {
			t.Fatalf("download from spare: %v", err)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = float64(i)*0.5 + 3
		}
		for i := 0; i < n; i++ {
			gotF := readF64(got[8*i:])
			if gotF != want[i] {
				t.Fatalf("migrated buffer differs at %d: got %v, want %v", i, gotF, want[i])
			}
		}
		st, err := node.ARM.Stats(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Migrations != 1 || st.Assigned != 1 {
			t.Fatalf("stats after migration: %+v", st)
		}
		if err := node.ARM.Release(p, node.ARM.Held()); err != nil {
			t.Fatalf("release: %v", err)
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

// Graceful drain: a free accelerator retires instantly and its daemon
// shuts down cleanly; a held one is forcibly revoked at the deadline and
// sanitized into retirement — after which the pool is empty.
func TestChaosGracefulDrain(t *testing.T) {
	opts := chaosOptions()
	opts.Timeout = 50 * sim.Millisecond
	opts.Retries = 2
	hc := arm.HealthConfig{
		HeartbeatInterval: 2 * sim.Millisecond,
		SuspectAfter:      6 * sim.Millisecond,
	}
	cl, err := cluster.New(cluster.Config{
		ComputeNodes: 1,
		Accelerators: 2,
		Fleet:        chaosFleet(2),
		Options:      &opts,
		Health:       &hc,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		handles, err := node.ARM.Acquire(p, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if handles[0].ID != 0 {
			t.Fatalf("expected grant of ac0, got %+v", handles[0])
		}
		// Retire the idle spare.
		if err := cl.DrainDaemon(p, node, 1, 0); err != nil {
			t.Fatalf("drain spare: %v", err)
		}
		if cl.Daemons[1].Alive() {
			t.Fatal("drained daemon still alive")
		}
		st, err := node.ARM.Stats(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Retired != 1 {
			t.Fatalf("after spare drain: %+v", st)
		}
		// Drain our own accelerator without releasing: the deadline must
		// revoke us.
		start := p.Now()
		if err := node.ARM.Drain(p, 0, 5*sim.Millisecond); err != nil {
			t.Fatalf("drain held: %v", err)
		}
		if waited := p.Now().Sub(start); waited < 5*sim.Millisecond {
			t.Fatalf("deadline drain returned after %v, want >= 5ms", waited)
		}
		if st, _ = node.ARM.Stats(p); st.Retired != 2 || st.Assigned != 0 || st.Reclaimed != 1 {
			t.Fatalf("after forced drain: %+v", st)
		}
		if _, err := node.ARM.Acquire(p, 1, false); err != arm.ErrImpossible {
			t.Fatalf("acquire from retired pool: %v", err)
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

func readF64(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
