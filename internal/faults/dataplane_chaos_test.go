package faults_test

// Data-plane fast-path battery: the online transfer autotuner facing a
// real link-latency step change, and the tree panel broadcast surviving
// a mid-tree daemon kill. The AUTOTUNE=1 CI matrix dimension
// additionally runs every chaos scenario in this package with the
// autotuned protocol active (see chaosOptions).

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"dynacc/internal/cluster"
	"dynacc/internal/core"
	"dynacc/internal/faults"
	"dynacc/internal/gpu"
	"dynacc/internal/magma"
	"dynacc/internal/sim"
)

// chaosOptions returns the protocol options the chaos battery runs
// under: the paper defaults, upgraded to the online autotuner in both
// directions when AUTOTUNE=1 (the CI chaos-matrix dimension), so every
// fault scenario also exercises the data-plane planning and recording
// paths under packet loss, kills and failover.
func chaosOptions() core.Options {
	opts := core.DefaultOptions()
	if os.Getenv("AUTOTUNE") == "1" {
		opts.H2D = core.PaperAutotune()
		opts.D2H = core.PaperAutotune()
	}
	return opts
}

// TestAutotuneStepChangeConvergence degrades a healthy link with heavy
// per-message latency mid-run (a faults.Link fault's Delay) and requires the
// client's link model to walk its plan off the paper warm start toward
// larger blocks, which amortize the new per-block handshake cost. This
// is the end-to-end convergence check: the bandwidth samples come from
// real transfers through the faulted interconnect, not synthetic feeds.
//
// It is also what the tuner is kept for (EXPERIMENTS.md has the table).
// The same script runs under the defaults, and 30 downloads of 8 MiB must
// finish at least 1.4× sooner tuned than untuned on the degraded link
// (1.52× here, 1.57× with the delay on from the start) while losing at
// most 3% on the healthy one; uploads differ by under 2% either way.
func TestAutotuneStepChangeConvergence(t *testing.T) {
	const (
		nBytes  = 8 << 20
		copies  = 30
		delayAt = 150 * sim.Millisecond
		extra   = 300 * sim.Microsecond
	)
	// run plays the script under opts and returns how long the healthy and
	// the degraded downloads took, and the upload plan after each phase.
	run := func(opts core.Options) (d2h [2]sim.Duration, h2dPlan [3]int) {
		cl, err := cluster.New(cluster.Config{
			ComputeNodes: 1,
			Accelerators: 1,
			Registry:     gpu.NewRegistry(),
			Options:      &opts,
		})
		if err != nil {
			t.Fatal(err)
		}
		faults.Plan{Seed: 1, Faults: []faults.Fault{
			{At: delayAt, Verb: faults.Link, A: 0, B: cl.DaemonRank(0), Delay: extra},
		}}.Arm(cl)

		cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
			handles, err := node.ARM.Acquire(p, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			a := node.Attach(handles[0])
			ptr, err := a.MemAlloc(p, nBytes)
			if err != nil {
				t.Fatal(err)
			}
			downloads := func() sim.Duration {
				t0 := p.Now()
				for i := 0; i < copies; i++ {
					if err := a.MemcpyD2H(p, nil, ptr, 0, nBytes); err != nil {
						t.Fatalf("download %d: %v", i, err)
					}
				}
				return p.Now().Sub(t0)
			}
			h2dPlan[0], _ = node.FE.AutotunePlan(a.Rank(), core.DirH2D, nBytes)

			// Phase 1: healthy link. A few transfers seed the model; the
			// optimum stays in the warm start's neighborhood because per-block
			// overheads are negligible on the clean fabric.
			for i := 0; i < 3; i++ {
				if err := a.MemcpyH2D(p, ptr, 0, nil, nBytes); err != nil {
					t.Fatalf("healthy upload %d: %v", i, err)
				}
			}
			h2dPlan[1], _ = node.FE.AutotunePlan(a.Rank(), core.DirH2D, nBytes)
			d2h[0] = downloads()

			// Phase 2: the step change. Sit out the fault instant, then keep
			// transferring: every block message now pays the extra handshake
			// latency, so small rungs collapse and the probe cadence must
			// climb the ladder.
			d := sim.Time(0).Add(delayAt + sim.Millisecond).Sub(p.Now())
			if d <= 0 {
				t.Fatalf("healthy phase ran %v past the fault instant", -d)
			}
			p.Wait(d)
			for i := 0; i < copies; i++ {
				if err := a.MemcpyH2D(p, ptr, 0, nil, nBytes); err != nil {
					t.Fatalf("degraded upload %d: %v", i, err)
				}
			}
			h2dPlan[2], _ = node.FE.AutotunePlan(a.Rank(), core.DirH2D, nBytes)
			d2h[1] = downloads()
		})
		if _, err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		return d2h, h2dPlan
	}

	tuned := core.DefaultOptions()
	tuned.H2D, tuned.D2H = core.PaperAutotune(), core.PaperAutotune()
	got, plan := run(tuned)
	base, _ := run(core.DefaultOptions())

	warm, healthy, degraded := plan[0], plan[1], plan[2]
	t.Logf("upload plan: warm %d, healthy %d, degraded %d", warm, healthy, degraded)
	if want := 128 * 1024; warm != want {
		t.Errorf("warm-start block = %d, want PaperAdaptive's %d", warm, want)
	}
	if degraded <= healthy {
		t.Errorf("degraded-link plan block = %d, want > healthy-link %d (latency not re-learned)",
			degraded, healthy)
	}
	if degraded < 512*1024 {
		t.Errorf("degraded-link plan block = %d, want >= 512 KiB after %d transfers", degraded, copies)
	}

	t.Logf("%d downloads of 8 MiB: healthy %v tuned, %v default; degraded %v tuned, %v default (%.2fx)",
		copies, got[0], base[0], got[1], base[1], float64(base[1])/float64(got[1]))
	if float64(got[0]) > 1.03*float64(base[0]) {
		t.Errorf("healthy link: tuned downloads took %v, over 3%% more than the default's %v", got[0], base[0])
	}
	if float64(base[1]) < 1.4*float64(got[1]) {
		t.Errorf("degraded link: tuned downloads took %v against the default's %v, want at least 1.4x sooner", got[1], base[1])
	}
}

// treeQR factors a matrix with Config.Direct on a 4-GPU pool
// (one spare standing by), optionally crash-killing daemon victim at
// killAt — mid panel fan-out — and failing over. It returns the
// downloaded factors and tau.
func treeQR(t *testing.T, n, nb int, a []float64, killAt sim.Duration, victim int) ([]float64, []float64) {
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
		Accelerators: 5,
		Registry:     reg,
		Execute:      true,
		Options:      &opts,
		Daemon:       &dcfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if killAt > 0 {
		faults.Plan{Seed: chaosSeed(t), Faults: []faults.Fault{{At: killAt, Verb: faults.KillDaemon, A: victim}}}.Arm(cl)
	}

	var got, tau []float64
	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		handles, err := node.ARM.Acquire(p, 4, false)
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
		tau = make([]float64, n)
		cfg := magma.DefaultConfig()
		cfg.NB = nb
		cfg.Direct = true
		err = magma.Dgeqrf(p, dist, tau, cfg)
		if killAt > 0 {
			// The kill lands mid-fan-out: the factorization must surface
			// the dead daemon as an error, never silently complete with a
			// half-broadcast panel.
			if err == nil {
				t.Fatal("Dgeqrf succeeded despite a daemon killed mid-broadcast")
			}
			for i, ac := range accels {
				if serr := ac.Sync(p); serr != nil {
					if ferr := ac.Failover(p); ferr != nil {
						t.Fatalf("failover of accel %d: %v", i, ferr)
					}
				}
			}
			if err := dist.Upload(p, a); err != nil {
				t.Fatalf("re-upload after failover: %v", err)
			}
			for i := range tau {
				tau[i] = 0
			}
			if err := magma.Dgeqrf(p, dist, tau, cfg); err != nil {
				t.Fatalf("retry after failover: %v", err)
			}
		} else if err != nil {
			t.Fatalf("clean tree QR: %v", err)
		}
		got = make([]float64, n*n)
		if err := dist.Download(p, got); err != nil {
			t.Fatal(err)
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	return got, tau
}

// TestChaosTreeBroadcastMidTreeKill kills a daemon in the middle of the
// tree panel broadcast. The factorization must fail loudly, the client
// fails the dead accelerator over to the spare, and the retried run
// must produce factors bit-identical to a clean tree-broadcast run —
// the fault and recovery leave no numerical trace.
func TestChaosTreeBroadcastMidTreeKill(t *testing.T) {
	const n, nb = 64, 16
	rng := rand.New(rand.NewSource(23))
	a := make([]float64, n*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}

	// Calibrate the factorization window with a clean run so the kill
	// lands mid-fan-out, then verify the faulted run reproduces the
	// clean factors exactly.
	clean, cleanTau := treeQR(t, n, nb, a, 0, 0)
	killAt := calibrateTreeQRKillAt(t, n, nb, a)
	faulted, faultedTau := treeQR(t, n, nb, a, killAt, 1)

	for i := range clean {
		if clean[i] != faulted[i] {
			t.Fatalf("factor bit-differs at %d after failover: %x vs %x",
				i, math.Float64bits(clean[i]), math.Float64bits(faulted[i]))
		}
	}
	for i := range cleanTau {
		if cleanTau[i] != faultedTau[i] {
			t.Fatalf("tau bit-differs at %d after failover", i)
		}
	}
}

// calibrateTreeQRKillAt measures the clean tree-broadcast QR's
// factorization window under the exact settings the faulted run uses
// and returns its midpoint, so the chaos kill lands mid-fan-out.
func calibrateTreeQRKillAt(t *testing.T, n, nb int, a []float64) sim.Duration {
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
		Accelerators: 5,
		Registry:     reg,
		Execute:      true,
		Options:      &opts,
		Daemon:       &dcfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	var start, end sim.Time
	cl.Spawn(0, func(p *sim.Proc, node *cluster.Node) {
		handles, err := node.ARM.Acquire(p, 4, false)
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
		cfg.Direct = true
		start = p.Now()
		if err := magma.Dgeqrf(p, dist, tau, cfg); err != nil {
			t.Fatalf("calibration: %v", err)
		}
		end = p.Now()
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if end.Sub(start) <= 0 {
		t.Fatal("calibration window empty")
	}
	return start.Add(end.Sub(start) / 2).Sub(sim.Time(0))
}
