package bench

// Fleet-scale engine benchmark: one simulation hosting a full rack — 32
// accelerator daemons time-shared by 96 tenant compute nodes running a
// mixed workload (pipelined memcpys, kernel launches, session traffic).
// Unlike the figure generators, which measure the *simulated* system,
// this measures the *simulator*: host wall-clock and host allocations
// for a fixed amount of virtual work, which is what the hot-path pooling
// work (pooled events, payload buffers, pipeline scratch, encoder reuse)
// is meant to improve. `acbench -fleet-json` writes the report to the CI
// artifact BENCH_core.json, alongside re-measured hot-path baselines so
// every CI run records the speedup over the pre-pooling engine.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"dynacc/internal/cluster"
	"dynacc/internal/core"
	"dynacc/internal/gpu"
	"dynacc/internal/netmodel"
	"dynacc/internal/sim"
)

// FleetConfig sizes the fleet benchmark.
type FleetConfig struct {
	// Daemons and Tenants size the machine; tenants share accelerators
	// through sessions (ShareCapacity = ceil(Tenants/Daemons) + 1).
	Daemons int
	Tenants int
	// Rounds is how many (upload, launch, download) rounds each tenant
	// drives through its session.
	Rounds int
	// CopyBytes is the payload of each direction of a round's copies,
	// moved with the paper's pipelined protocols (model mode: sized
	// messages, no real bytes).
	CopyBytes int
	// Shards partitions the ARM into this many shards (<2 runs the
	// legacy single server); Replicas adds a log-shipping follower per
	// shard. Both add the shard fleet's own ranks and traffic to the
	// measured engine cost.
	Shards   int
	Replicas bool
}

// DefaultFleetConfig returns the CI configuration: a 32-daemon rack
// under 96 tenants.
func DefaultFleetConfig() FleetConfig {
	return FleetConfig{Daemons: 32, Tenants: 96, Rounds: 4, CopyBytes: 512 * netmodel.KiB}
}

// Fleet256Config scales the rack to 256 daemons under 512 tenants with
// a lighter per-tenant workload, keeping one -benchtime=1x iteration
// tractable in CI while exercising the engine at 8x the default rank
// count (BenchmarkFleetScale256).
func Fleet256Config() FleetConfig {
	return FleetConfig{Daemons: 256, Tenants: 512, Rounds: 2, CopyBytes: 128 * netmodel.KiB}
}

// FleetResult is one measured fleet run.
type FleetResult struct {
	Daemons int `json:"daemons"`
	Tenants int `json:"tenants"`
	Shards  int `json:"shards"`
	// Ops counts completed operations (alloc/copy/launch/free/session
	// calls) across all tenants; BytesMoved is the total payload.
	Ops        int   `json:"ops"`
	BytesMoved int64 `json:"bytes_moved"`
	// Host-side cost of simulating the fleet.
	WallNS  int64   `json:"wall_ns"`
	Mallocs uint64  `json:"mallocs"`
	PerOp   float64 `json:"allocs_per_op"`
	// Virtual-time results.
	VirtualSecs      float64 `json:"virtual_seconds"`
	OpsPerVirtualSec float64 `json:"ops_per_virtual_sec"`
}

// HotPathResult re-measures one tracked hot path and compares it against
// its recorded pre-pooling seed numbers.
type HotPathResult struct {
	Name string `json:"name"`
	// Seed numbers: the engine before the hot-path performance pass
	// (recorded constants, measured on the CI machine class).
	SeedWallNS int64 `json:"seed_wall_ns"`
	SeedAllocs int64 `json:"seed_allocs"`
	// Current numbers, measured in this run.
	WallNS int64 `json:"wall_ns"`
	Allocs int64 `json:"allocs"`
	// Ratios >1 mean the current engine is better.
	WallSpeedup float64 `json:"wall_speedup"`
	AllocRatio  float64 `json:"alloc_ratio"`
}

// FleetReport is the `acbench -fleet-json` artifact (BENCH_core.json).
type FleetReport struct {
	Fleet    FleetResult     `json:"fleet"`
	HotPaths []HotPathResult `json:"hot_paths"`
}

// Pre-pooling seed numbers of the tracked hot paths (one-shot runs of
// the root benchmarks at the commit preceding the performance pass).
// Wall times are machine-dependent and only anchor the speedup column;
// allocation counts are deterministic.
const (
	seedFig9WallNS      = 316_018_944
	seedFig9Allocs      = 1_217_953
	seedPipe16MiBWallNS = 708_707
	seedPipe16MiBAllocs = 3_494
)

// MeasureFleet simulates the fleet once and reports host cost and
// virtual throughput.
func MeasureFleet(cfg FleetConfig) (FleetResult, error) {
	if cfg.Daemons <= 0 || cfg.Tenants <= 0 || cfg.Rounds <= 0 || cfg.CopyBytes <= 0 {
		return FleetResult{}, fmt.Errorf("bench: invalid fleet config %+v", cfg)
	}
	reg := gpu.NewRegistry()
	reg.Register(gpu.FuncKernel{
		KernelName: "fleet.gemm",
		CostFn:     func(gpu.Launch, gpu.Model) sim.Duration { return 250 * sim.Microsecond },
	})
	share := (cfg.Tenants+cfg.Daemons-1)/cfg.Daemons + 1
	cl, err := cluster.New(cluster.Config{
		ComputeNodes:  cfg.Tenants,
		Accelerators:  cfg.Daemons,
		Registry:      reg,
		ShareCapacity: share,
		ARMShards:     cfg.Shards,
		ARMReplicas:   cfg.Replicas,
	})
	if err != nil {
		return FleetResult{}, err
	}
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	res := FleetResult{Daemons: cfg.Daemons, Tenants: cfg.Tenants, Shards: shards}
	ops := 0
	cl.SpawnAll(func(p *sim.Proc, node *cluster.Node) {
		handles, err := node.ARM.AcquireShared(p, 1, true)
		if err != nil {
			panic(fmt.Sprintf("fleet cn%d acquire: %v", node.Rank, err))
		}
		ac, err := node.AttachSession(p, handles[0])
		if err != nil {
			panic(fmt.Sprintf("fleet cn%d session: %v", node.Rank, err))
		}
		ptr, err := ac.MemAlloc(p, cfg.CopyBytes)
		if err != nil {
			panic(fmt.Sprintf("fleet cn%d alloc: %v", node.Rank, err))
		}
		ops += 2
		k := ac.KernelCreate("fleet.gemm").SetArgs(gpu.PtrArg(ptr), gpu.IntArg(int64(cfg.CopyBytes/8)))
		for r := 0; r < cfg.Rounds; r++ {
			if err := ac.MemcpyH2D(p, ptr, 0, nil, cfg.CopyBytes); err != nil {
				panic(fmt.Sprintf("fleet cn%d h2d: %v", node.Rank, err))
			}
			if err := k.Run(p, gpu.Dim3{X: 64}, gpu.Dim3{X: 256}); err != nil {
				panic(fmt.Sprintf("fleet cn%d launch: %v", node.Rank, err))
			}
			if err := ac.MemcpyD2H(p, nil, ptr, 0, cfg.CopyBytes); err != nil {
				panic(fmt.Sprintf("fleet cn%d d2h: %v", node.Rank, err))
			}
			ops += 3
			res.BytesMoved += 2 * int64(cfg.CopyBytes)
		}
		if err := ac.MemFree(p, ptr); err != nil {
			panic(fmt.Sprintf("fleet cn%d free: %v", node.Rank, err))
		}
		if err := ac.CloseSession(p); err != nil {
			panic(fmt.Sprintf("fleet cn%d close: %v", node.Rank, err))
		}
		if err := node.ARM.Release(p, handles); err != nil {
			panic(fmt.Sprintf("fleet cn%d release: %v", node.Rank, err))
		}
		ops += 3
	})
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	end, err := cl.Run()
	res.WallNS = time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return res, err
	}
	res.Ops = ops
	res.Mallocs = ms1.Mallocs - ms0.Mallocs
	if ops > 0 {
		res.PerOp = float64(res.Mallocs) / float64(ops)
	}
	res.VirtualSecs = end.Sub(sim.Time(0)).Seconds()
	if res.VirtualSecs > 0 {
		res.OpsPerVirtualSec = float64(ops) / res.VirtualSecs
	}
	return res, nil
}

// measureHotPath runs fn once under ReadMemStats/wall-clock bracketing.
func measureHotPath(name string, seedWall, seedAllocs int64, fn func()) HotPathResult {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	fn()
	wall := time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&ms1)
	r := HotPathResult{
		Name:       name,
		SeedWallNS: seedWall,
		SeedAllocs: seedAllocs,
		WallNS:     wall,
		Allocs:     int64(ms1.Mallocs - ms0.Mallocs),
	}
	if wall > 0 {
		r.WallSpeedup = float64(seedWall) / float64(wall)
	}
	if r.Allocs > 0 {
		r.AllocRatio = float64(seedAllocs) / float64(r.Allocs)
	}
	return r
}

// MeasureFleetReport runs the fleet benchmark plus the tracked hot-path
// comparisons.
func MeasureFleetReport(cfg FleetConfig) (FleetReport, error) {
	fleet, err := MeasureFleet(cfg)
	if err != nil {
		return FleetReport{}, err
	}
	rep := FleetReport{Fleet: fleet}
	rep.HotPaths = append(rep.HotPaths,
		measureHotPath("fig9_magma_qr", seedFig9WallNS, seedFig9Allocs, func() {
			Fig9(Options{Quick: true})
		}),
		measureHotPath("pipeline_copy_16mib", seedPipe16MiBWallNS, seedPipe16MiBAllocs, func() {
			MeasureRemoteCopy(16*netmodel.MiB, true,
				core.Options{H2D: core.PaperAdaptive(), D2H: core.PaperNaive()})
		}),
	)
	return rep, nil
}

// WriteFleetJSON runs MeasureFleetReport and writes the artifact
// (BENCH_core.json in CI).
func WriteFleetJSON(path string, cfg FleetConfig) (FleetReport, error) {
	r, err := MeasureFleetReport(cfg)
	if err != nil {
		return r, err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return r, err
	}
	return r, os.WriteFile(path, append(data, '\n'), 0o644)
}
