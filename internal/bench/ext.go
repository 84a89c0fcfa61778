package bench

import (
	"fmt"
	"math/rand"

	"dynacc/internal/arm"
	"dynacc/internal/cluster"
	"dynacc/internal/core"
	"dynacc/internal/gpu"
	"dynacc/internal/magma"
	"dynacc/internal/minimpi"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
)

// PoolResult summarizes one utilization run.
type PoolResult struct {
	// Utilization is the mean assigned fraction of the pool.
	Utilization float64
	// MeanWaitMs is the average time an acquire spent queued.
	MeanWaitMs float64
	// MakespanS is the virtual time until the job mix drained.
	MakespanS float64
}

// RunPool drives a synthetic job mix through the ARM: every compute node
// alternates thinking and holding a randomly sized exclusive set of
// accelerators. This quantifies the paper's "economy" claim — how well a
// shared pool is utilized — and the effect of the queueing policy, part
// of the paper's future-work agenda.
func RunPool(cns, acs int, policy arm.Policy, seed int64) PoolResult {
	cl, err := cluster.New(cluster.Config{
		ComputeNodes: cns,
		Accelerators: acs,
		Policy:       policy,
	})
	if err != nil {
		panic(err)
	}
	const jobsPerNode = 5
	var stats arm.PoolStats
	var end sim.Time
	cl.SpawnAll(func(p *sim.Proc, node *cluster.Node) {
		rng := rand.New(rand.NewSource(seed + int64(node.Rank)*101))
		maxK := 3
		if acs < maxK {
			maxK = acs
		}
		for j := 0; j < jobsPerNode; j++ {
			p.Wait(sim.Duration(rng.Intn(30)) * sim.Millisecond) // think
			k := 1 + rng.Intn(maxK)
			handles, err := node.ARM.Acquire(p, k, true)
			if err != nil {
				panic(err)
			}
			p.Wait(sim.Duration(20+rng.Intn(60)) * sim.Millisecond) // hold
			if err := node.ARM.Release(p, handles); err != nil {
				panic(err)
			}
		}
		// All jobs drain before the barrier, so node 0 reads the final
		// pool statistics.
		node.App.Barrier(p)
		if node.Rank == 0 {
			st, err := node.ARM.Stats(p)
			if err != nil {
				panic(err)
			}
			stats = st
			end = p.Now()
		}
	})
	if _, err := cl.Run(); err != nil {
		panic(err)
	}
	res := PoolResult{MakespanS: end.Seconds()}
	res.Utilization = stats.Utilization(end.Sub(0))
	if stats.Acquires > 0 {
		res.MeanWaitMs = stats.WaitSeconds / float64(stats.Acquires) * 1e3
	}
	return res
}

// ExtA is the pool-utilization extension experiment: utilization and mean
// acquire wait versus pool size, under FIFO and backfill queueing, for a
// fixed 6-compute-node job mix.
func ExtA(o Options) *Figure {
	acCounts := []int{2, 3, 4, 6}
	if o.Quick {
		acCounts = []int{2, 4}
	}
	const cns = 6
	f := &Figure{
		ID:     "extA",
		Title:  "Pool utilization vs accelerator count (6 compute nodes, dynamic assignment)",
		XLabel: "accelerators",
		YLabel: "util [%], wait [ms], makespan [s]",
		Notes: []string{
			"extension of the paper's economy claim and future-work dynamic assignment:",
			"small pools are highly utilized but queue; backfill shortens waits when",
			"the head request is large",
		},
	}
	for _, a := range acCounts {
		f.X = append(f.X, float64(a))
	}
	type cell struct {
		label string
		get   func(PoolResult) float64
		pol   arm.Policy
	}
	cells := []cell{
		{"util%-fifo", func(r PoolResult) float64 { return r.Utilization * 100 }, arm.FIFO},
		{"util%-backfill", func(r PoolResult) float64 { return r.Utilization * 100 }, arm.Backfill},
		{"wait-ms-fifo", func(r PoolResult) float64 { return r.MeanWaitMs }, arm.FIFO},
		{"wait-ms-backfill", func(r PoolResult) float64 { return r.MeanWaitMs }, arm.Backfill},
		{"makespan-s-fifo", func(r PoolResult) float64 { return r.MakespanS }, arm.FIFO},
		{"makespan-s-backfill", func(r PoolResult) float64 { return r.MakespanS }, arm.Backfill},
	}
	results := make(map[arm.Policy][]PoolResult)
	for _, pol := range []arm.Policy{arm.FIFO, arm.Backfill} {
		for _, a := range acCounts {
			results[pol] = append(results[pol], RunPool(cns, a, pol, 42))
		}
	}
	for _, c := range cells {
		s := Series{Label: c.label}
		for i := range acCounts {
			s.Y = append(s.Y, c.get(results[c.pol][i]))
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// measureD2D times moving n bytes between two accelerators either
// directly (daemon-to-daemon, the paper's AC-to-AC feature) or staged
// through the compute node.
func measureD2D(n int, direct bool) sim.Duration {
	s := sim.New()
	w, err := minimpi.NewWorld(s, 3, netmodel.QDRInfiniBand())
	if err != nil {
		panic(err)
	}
	mkDaemon := func(rank int) *core.Daemon {
		dev, err := gpu.NewDevice(s, gpu.Config{Model: gpu.TeslaC1060(), Name: fmt.Sprintf("ac%d", rank)})
		if err != nil {
			panic(err)
		}
		return core.NewDaemon(w.Comm(rank), dev, core.DefaultDaemonConfig())
	}
	d1, d2 := mkDaemon(1), mkDaemon(2)
	s.Spawn("d1", d1.Run)
	s.Spawn("d2", d2.Run)
	var elapsed sim.Duration
	s.Spawn("cn", func(p *sim.Proc) {
		client, err := core.NewClient(w.Comm(0), core.DefaultOptions())
		if err != nil {
			panic(err)
		}
		a1, a2 := client.Attach(1), client.Attach(2)
		src, err := a1.MemAlloc(p, n)
		if err != nil {
			panic(err)
		}
		dst, err := a2.MemAlloc(p, n)
		if err != nil {
			panic(err)
		}
		start := p.Now()
		if direct {
			if err := client.CopyD2D(p, a1, src, 0, n, 1, n, a2, dst, 0, 0, 0); err != nil {
				panic(err)
			}
		} else {
			if err := a1.MemcpyD2H(p, nil, src, 0, n); err != nil {
				panic(err)
			}
			if err := a2.MemcpyH2D(p, dst, 0, nil, n); err != nil {
				panic(err)
			}
		}
		elapsed = p.Now().Sub(start)
		a1.Shutdown(p)
		a2.Shutdown(p)
	})
	if err := s.Run(); err != nil {
		panic(err)
	}
	return elapsed
}

// ExtB is the design-choice ablation: staging-buffer depth, QR lookahead,
// and direct AC-to-AC transfers vs staging through the compute node.
func ExtB(o Options) *Figure {
	depths := []int{1, 2, 4, 8}
	const n = 16 * netmodel.MiB
	f := &Figure{
		ID:     "extB",
		Title:  "Ablations: pipeline depth, QR lookahead, direct AC-to-AC transfer",
		XLabel: "pipeline depth",
		YLabel: "H2D bandwidth [MiB/s] at 16 MiB, 128K blocks",
	}
	s := Series{Label: "pipeline-128K"}
	for _, d := range depths {
		f.X = append(f.X, float64(d))
		cfg := core.CopyConfig{Kind: core.Pipeline, Block: 128 * kib, Depth: d}
		t := measureRemoteCopy(n, true, h2dOpts(cfg))
		s.Y = append(s.Y, mibPerSec(n, t))
	}
	f.Series = append(f.Series, s)

	qrN := 4032
	if o.Quick {
		qrN = 2048
	}
	cfg := magma.DefaultConfig()
	withLA := runFactorization(factorQR, 1, qrN, cfg)
	cfg.Lookahead = false
	withoutLA := runFactorization(factorQR, 1, qrN, cfg)
	f.Notes = append(f.Notes, fmt.Sprintf(
		"QR N=%d on 1 network GPU: lookahead %.1f GF vs no-lookahead %.1f GF (%.1f%% gain)",
		qrN,
		magma.QRFlops(qrN, qrN)/withLA.Seconds()/1e9,
		magma.QRFlops(qrN, qrN)/withoutLA.Seconds()/1e9,
		(float64(withoutLA)/float64(withLA)-1)*100))

	direct := measureD2D(n, true)
	staged := measureD2D(n, false)
	f.Notes = append(f.Notes, fmt.Sprintf(
		"16 MiB AC-to-AC: direct %.1f MiB/s vs staged-through-CN %.1f MiB/s (%.2fx)",
		mibPerSec(n, direct), mibPerSec(n, staged), float64(staged)/float64(direct)))

	// The same capability inside an application: Cholesky's L21 broadcast
	// routed accelerator-to-accelerator (Config.Direct).
	cholN := 4032
	if o.Quick {
		cholN = 2048
	}
	cfgC := magma.DefaultConfig()
	hostRoute := runFactorizationNet(factorCholesky, 3, cholN, cfgC, nil)
	cfgC.Direct = true
	d2dRoute := runFactorizationNet(factorCholesky, 3, cholN, cfgC, nil)
	f.Notes = append(f.Notes, fmt.Sprintf(
		"Cholesky N=%d on 3 network GPUs: D2D L21 broadcast %.1f GF vs host-routed %.1f GF (%.1f%% gain)",
		cholN,
		magma.CholeskyFlops(cholN)/d2dRoute.Seconds()/1e9,
		magma.CholeskyFlops(cholN)/hostRoute.Seconds()/1e9,
		(float64(hostRoute)/float64(d2dRoute)-1)*100))
	return f
}
