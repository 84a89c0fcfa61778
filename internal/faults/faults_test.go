package faults_test

// Tests the fault-injection layer from the outside, the way a chaos
// harness uses it: a Plan armed on a cluster applies its events at the
// scheduled virtual instants, and — the property the whole package is
// built around — a faulted run is exactly as deterministic as a clean
// one. The regression here runs a 2-GPU QR factorization under an
// active plan (delayed link, seeded lossy link, daemon killed halfway,
// client-side failover) twice and requires the two transcripts,
// timestamps and result hash included, to be byte-identical.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dynacc/internal/cluster"
	"dynacc/internal/core"
	"dynacc/internal/faults"
	"dynacc/internal/gpu"
	"dynacc/internal/magma"
	"dynacc/internal/sim"
)

// faultCluster builds a 1-compute-node cluster with nAC accelerators
// and the fault-aware protocol settings used across the chaos tests.
func faultCluster(t *testing.T, nAC int) *cluster.Cluster {
	t.Helper()
	reg := gpu.NewRegistry()
	magma.RegisterKernels(reg)
	opts := chaosOptions()
	opts.Timeout = 100 * sim.Millisecond
	opts.Retries = 2
	dcfg := core.DefaultDaemonConfig()
	dcfg.PayloadTimeout = 20 * sim.Millisecond
	cl, err := cluster.New(cluster.Config{
		ComputeNodes: 1,
		Accelerators: nAC,
		Registry:     reg,
		Execute:      true,
		Options:      &opts,
		Daemon:       &dcfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestPlanAppliesEventsInOrder schedules one of each fault primitive,
// lets the full storm pass, and then checks that (a) the chaos log
// shows every event at its instant in schedule order, ties broken by
// list order, and (b) the cluster actually recovered: the repaired GPU
// and the rebooted daemon both serve requests afterwards.
func TestPlanAppliesEventsInOrder(t *testing.T) {
	cl := faultCluster(t, 2)
	var log []string
	plan := faults.Plan{Seed: 1, Faults: []faults.Fault{
		{At: 1 * sim.Millisecond, Verb: faults.FailGPU, A: 0},
		{At: 1 * sim.Millisecond, Verb: faults.Link, A: 0, B: 2, Drop: 1}, // same instant: must apply second
		{At: 2 * sim.Millisecond, Verb: faults.RepairGPU, A: 0},
		{At: 3 * sim.Millisecond, Verb: faults.Link, A: 0, B: 2},
		{At: 4 * sim.Millisecond, Verb: faults.KillDaemon, A: 1},
		{At: 5 * sim.Millisecond, Verb: faults.RestartDaemon, A: 1},
	}}
	plan.Log = func(s string) { log = append(log, s) }
	plan.Arm(cl)

	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		p.Wait(6 * sim.Millisecond) // sit out the storm
		handles, err := node.ARM.Acquire(p, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range handles {
			a := node.Attach(h)
			ptr, err := a.MemAlloc(p, 512)
			if err != nil {
				t.Fatalf("accel %d after recovery: alloc: %v", i, err)
			}
			if err := a.Memset(p, ptr, 0, 512, 0xAB); err != nil {
				t.Fatalf("accel %d after recovery: memset: %v", i, err)
			}
			got := make([]byte, 512)
			if err := a.MemcpyD2H(p, got, ptr, 0, 512); err != nil {
				t.Fatalf("accel %d after recovery: download: %v", i, err)
			}
			if got[0] != 0xAB || got[511] != 0xAB {
				t.Fatalf("accel %d after recovery: wrong data % x", i, got[:4])
			}
		}
		if err := node.ARM.Release(p, handles); err != nil {
			t.Fatal(err)
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}

	want := []string{
		"fail gpu ac0", "sever link 0<->2", "repair gpu ac0",
		"heal link 0<->2", "kill daemon ac1", "restart daemon ac1",
	}
	if len(log) != len(want) {
		t.Fatalf("chaos log has %d lines, want %d: %v", len(log), len(want), log)
	}
	for i, w := range want {
		if !strings.Contains(log[i], w) {
			t.Errorf("log[%d] = %q, want event %q", i, log[i], w)
		}
	}
	// The restart line is logged once the reboot (device wipe) finished,
	// so only the first five instants are exact.
	for i, at := range []string{"[1000000]", "[1000000]", "[2000000]", "[3000000]", "[4000000]"} {
		if !strings.HasPrefix(log[i], at) {
			t.Errorf("log[%d] = %q, want applied at %s", i, log[i], at)
		}
	}
	// The reboot discards the dead daemon's posted receive: it must come
	// home, not stay out for the rest of the world's life.
	if reqs, msgs := cl.World.RecordsOut(); reqs != 0 || msgs != 0 {
		t.Errorf("RecordsOut after the storm = (%d, %d), want (0, 0)", reqs, msgs)
	}
}

// TestFaultStringKeepsLogWording pins every verb's chaos log line: the
// golden outputs and the faulted-QR transcripts are written in these words.
func TestFaultStringKeepsLogWording(t *testing.T) {
	for _, tc := range []struct {
		f    faults.Fault
		want string
	}{
		{faults.Fault{Verb: faults.KillDaemon, A: 0}, "kill daemon ac0"},
		{faults.Fault{Verb: faults.RestartDaemon, A: 1}, "restart daemon ac1"},
		{faults.Fault{Verb: faults.KillClient, A: 2}, "kill client cn2"},
		{faults.Fault{Verb: faults.KillARMShard, A: 1}, "kill ARM shard 1 leader"},
		{faults.Fault{Verb: faults.FailGPU, A: 0}, "fail gpu ac0"},
		{faults.Fault{Verb: faults.RepairGPU, A: 0}, "repair gpu ac0"},
		{faults.Fault{Verb: faults.Link, A: 0, B: 2, Drop: 1}, "sever link 0<->2"},
		{faults.Fault{Verb: faults.Link, A: 3, B: 4, OneWay: true, Drop: 1}, "sever link 3->4"},
		{faults.Fault{Verb: faults.Link, A: 0, B: 2}, "heal link 0<->2"},
		{faults.Fault{Verb: faults.Link, A: 0, B: 1, OneWay: true}, "heal link 0->1"},
		{faults.Fault{Verb: faults.Link, A: 0, B: 1, Delay: 2 * sim.Microsecond}, "delay link 0<->1"},
		{faults.Fault{Verb: faults.Link, A: 0, B: 2, Drop: 0.5}, "drop link 0<->2 p=0.5"},
		{faults.Fault{Verb: faults.Link, A: 0, B: 2, Drop: 0.5, Delay: 2 * sim.Microsecond}, "drop link 0<->2 p=0.5, delay 2us"},
	} {
		if got := tc.f.String(); got != tc.want {
			t.Errorf("%#v.String() = %q, want %q", tc.f, got, tc.want)
		}
	}
}

// TestPlanArmsAnyNumberOfClusters arms one plan value — a seeded lossy
// link and a sever that is never healed — on two fresh clusters in turn.
// Each Arm starts from a whole link table and the seed's first draw, so
// the two runs must be byte-identical.
func TestPlanArmsAnyNumberOfClusters(t *testing.T) {
	const n = 30 // seq k leaves at t = k ms, both ways
	var b strings.Builder
	plan := faults.Plan{Seed: 7, Faults: []faults.Fault{
		{Verb: faults.Link, A: 0, B: 1, Drop: 0.5},
		{At: 20 * sim.Millisecond, Verb: faults.Link, A: 1, B: 0, OneWay: true, Drop: 1},
	}}
	plan.Log = func(s string) { fmt.Fprintln(&b, s) }
	// Each node streams to the other, then logs whatever got through.
	stream := func(p *sim.Proc, node *cluster.Node) {
		peer := 1 - node.Rank
		semStream(p, node.App, peer, semTagFwd, n)
		p.Wait(5 * sim.Millisecond)
		for {
			if _, ok := node.App.Iprobe(peer, semTagFwd); !ok {
				return
			}
			data, _ := node.App.Recv(p, peer, semTagFwd)
			fmt.Fprintf(&b, "cn%d got %d\n", node.Rank, binary.LittleEndian.Uint64(data))
		}
	}
	run := func() string {
		b.Reset()
		cl, err := cluster.New(cluster.Config{ComputeNodes: 2, Accelerators: 1})
		if err != nil {
			t.Fatal(err)
		}
		plan.Arm(cl)
		cl.Spawn(0, stream)
		cl.Spawn(1, stream)
		end, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "end %v\n", end)
		return b.String()
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("the second cluster ran differently:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	if !strings.Contains(first, "sever link 1->0") || !strings.Contains(first, "cn0 got") {
		t.Fatalf("transcript missing the sever:\n%s", first)
	}
}

// faultedQR runs a 2-GPU QR (pool of 3, one spare) under plan-injected
// faults: the link to GPU 0 is slowed from the start, the link to GPU 1
// turns lossy the moment its daemon is crash-killed at killAt, and the
// client fails the dead accelerator over to the spare and re-runs. It
// returns a transcript of everything observable — chaos events, error
// strings, virtual timestamps, a hash of the factorization output.
func faultedQR(t *testing.T, n, nb int, a []float64, killAt sim.Duration) string {
	t.Helper()
	var b strings.Builder
	cl := faultCluster(t, 3)
	plan := faults.Plan{Seed: 99, Faults: []faults.Fault{
		{Verb: faults.Link, A: 0, B: 1, Delay: 2 * sim.Microsecond},
		{At: killAt, Verb: faults.Link, A: 0, B: 2, Drop: 0.5},
		{At: killAt, Verb: faults.KillDaemon, A: 1},
	}}
	plan.Log = func(s string) { fmt.Fprintln(&b, s) }
	plan.Arm(cl)

	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		handles, err := node.ARM.Acquire(p, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		accels := make([]*core.Accel, len(handles))
		devs := make([]magma.Device, len(handles))
		for i, h := range handles {
			accels[i] = node.Attach(h)
			devs[i] = magma.Remote(accels[i])
		}
		dist, err := magma.NewDist(p, devs, n, n, nb, true)
		if err != nil {
			t.Fatal(err)
		}
		defer dist.Free(p)
		if err := dist.Upload(p, a); err != nil {
			t.Fatal(err)
		}
		tau := make([]float64, n)
		cfg := magma.DefaultConfig()
		cfg.NB = nb
		err = magma.Dgeqrf(p, dist, tau, cfg)
		fmt.Fprintf(&b, "dgeqrf: %v @ %v\n", err, p.Now())

		for i, ac := range accels {
			if err := ac.Sync(p); err != nil {
				fmt.Fprintf(&b, "accel %d: %v @ %v\n", i, err, p.Now())
				ferr := ac.Failover(p)
				fmt.Fprintf(&b, "failover %d -> rank %d: %v @ %v\n", i, ac.Rank(), ferr, p.Now())
			}
		}
		if err := dist.Upload(p, a); err != nil {
			t.Fatalf("re-upload: %v", err)
		}
		for i := range tau {
			tau[i] = 0
		}
		if err := magma.Dgeqrf(p, dist, tau, cfg); err != nil {
			t.Fatalf("rerun after failover: %v", err)
		}
		got := make([]float64, n*n)
		if err := dist.Download(p, got); err != nil {
			t.Fatalf("download: %v", err)
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, v := range append(got, tau...) {
			bits := math.Float64bits(v)
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
		fmt.Fprintf(&b, "result %016x @ %v\n", h.Sum64(), p.Now())
	})
	end, err := cl.Run()
	fmt.Fprintf(&b, "end %v err=%v\n", end, err)
	// The killed daemon's posted receive and the envelopes sent to it come
	// home at teardown.
	if reqs, msgs := cl.World.RecordsOut(); reqs != 0 || msgs != 0 {
		t.Errorf("records out after the faulted run: %d requests, %d messages, want 0 and 0", reqs, msgs)
	}
	return b.String()
}

// TestFaultedQRDeterministic is the determinism regression with fault
// injection active: the identical faulted-QR scenario, run twice in the
// same process, must produce byte-identical transcripts — same event
// timing, same error strings, same failover path, same output bits.
func TestFaultedQRDeterministic(t *testing.T) {
	const n, nb = 64, 16
	rng := rand.New(rand.NewSource(7))
	a := make([]float64, n*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}

	// Calibrate the factorization window with the same link delay but no
	// kill, so the crash lands mid-factorization.
	var tStart, tEnd sim.Time
	cl := faultCluster(t, 3)
	faults.Plan{Seed: 99, Faults: []faults.Fault{
		{Verb: faults.Link, A: 0, B: 1, Delay: 2 * sim.Microsecond},
	}}.Arm(cl)
	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		handles, err := node.ARM.Acquire(p, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		devs := make([]magma.Device, len(handles))
		for i, h := range handles {
			devs[i] = magma.Remote(node.Attach(h))
		}
		dist, err := magma.NewDist(p, devs, n, n, nb, true)
		if err != nil {
			t.Fatal(err)
		}
		defer dist.Free(p)
		if err := dist.Upload(p, a); err != nil {
			t.Fatal(err)
		}
		tau := make([]float64, n)
		cfg := magma.DefaultConfig()
		cfg.NB = nb
		tStart = p.Now()
		if err := magma.Dgeqrf(p, dist, tau, cfg); err != nil {
			t.Fatalf("calibration run: %v", err)
		}
		tEnd = p.Now()
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if tEnd <= tStart {
		t.Fatalf("calibration window empty: [%v, %v]", tStart, tEnd)
	}
	killAt := tStart.Add(tEnd.Sub(tStart) / 2).Sub(sim.Time(0))

	first := faultedQR(t, n, nb, a, killAt)
	second := faultedQR(t, n, nb, a, killAt)
	if first != second {
		t.Fatalf("faulted runs diverged:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	if !strings.Contains(first, "kill daemon ac1") || !strings.Contains(first, "failover 1 -> rank 3: <nil>") {
		t.Fatalf("transcript missing expected fault/recovery events:\n%s", first)
	}
}
